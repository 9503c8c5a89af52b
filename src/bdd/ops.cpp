// Apply-family recursive kernels: AND, XOR, ITE, EXISTS, AND-EXISTS.
#include <algorithm>
#include <utility>

#include "bdd/bdd.hpp"

namespace bfvr::bdd {

// ---------------------------------------------------------------------------
// AND
// ---------------------------------------------------------------------------

Edge Manager::andRec(Edge f, Edge g) {
  // Terminal cases.
  if (f == g) return f;
  if (f == negate(g)) return kFalseEdge;
  if (f == kTrueEdge) return g;
  if (g == kTrueEdge) return f;
  if (f == kFalseEdge || g == kFalseEdge) return kFalseEdge;
  // Commutative: normalize operand order for the cache.
  if (f > g) std::swap(f, g);
  Edge out;
  if (cacheLookup(kOpAnd, f, g, 0, out)) return out;
  ++stats_.recursive_steps;
  const std::uint32_t lf = level(f);
  const std::uint32_t lg = level(g);
  const std::uint32_t top = std::min(lf, lg);
  const Edge fh = lf == top ? highOf(f) : f;
  const Edge fl = lf == top ? lowOf(f) : f;
  const Edge gh = lg == top ? highOf(g) : g;
  const Edge gl = lg == top ? lowOf(g) : g;
  const Edge rh = andRec(fh, gh);
  const Edge rl = andRec(fl, gl);
  const Edge r = mkNode(level2var_[top], rh, rl);
  cacheStore(kOpAnd, f, g, 0, r);
  return r;
}

// ---------------------------------------------------------------------------
// XOR
// ---------------------------------------------------------------------------

Edge Manager::xorRec(Edge f, Edge g) {
  if (f == g) return kFalseEdge;
  if (f == negate(g)) return kTrueEdge;
  if (f == kFalseEdge) return g;
  if (g == kFalseEdge) return f;
  if (f == kTrueEdge) return negate(g);
  if (g == kTrueEdge) return negate(f);
  // xor(~f, g) == ~xor(f, g): strip complements, remember parity.
  std::uint32_t parity = 0;
  if (isCompl(f)) {
    f = regular(f);
    parity ^= 1;
  }
  if (isCompl(g)) {
    g = regular(g);
    parity ^= 1;
  }
  if (f > g) std::swap(f, g);
  Edge out;
  if (cacheLookup(kOpXor, f, g, 0, out)) return out ^ parity;
  ++stats_.recursive_steps;
  const std::uint32_t lf = level(f);
  const std::uint32_t lg = level(g);
  const std::uint32_t top = std::min(lf, lg);
  const Edge fh = lf == top ? highOf(f) : f;
  const Edge fl = lf == top ? lowOf(f) : f;
  const Edge gh = lg == top ? highOf(g) : g;
  const Edge gl = lg == top ? lowOf(g) : g;
  const Edge rh = xorRec(fh, gh);
  const Edge rl = xorRec(fl, gl);
  const Edge r = mkNode(level2var_[top], rh, rl);
  cacheStore(kOpXor, f, g, 0, r);
  return r ^ parity;
}

// ---------------------------------------------------------------------------
// ITE
// ---------------------------------------------------------------------------

Edge Manager::iteRec(Edge f, Edge g, Edge h) {
  // Terminal cases.
  if (f == kTrueEdge) return g;
  if (f == kFalseEdge) return h;
  if (g == h) return g;
  if (g == kTrueEdge && h == kFalseEdge) return f;
  if (g == kFalseEdge && h == kTrueEdge) return negate(f);
  // Collapse equal / opposite operands.
  if (f == g) g = kTrueEdge;
  if (f == negate(g)) g = kFalseEdge;
  if (f == h) h = kFalseEdge;
  if (f == negate(h)) h = kTrueEdge;
  if (g == kTrueEdge && h == kFalseEdge) return f;
  if (g == kFalseEdge && h == kTrueEdge) return negate(f);
  if (g == h) return g;
  // Delegate two-operand forms to the cheaper kernels.
  if (g == kTrueEdge) return negate(andRec(negate(f), negate(h)));  // f | h
  if (h == kFalseEdge) return andRec(f, g);
  if (g == kFalseEdge) return andRec(negate(f), h);
  if (h == kTrueEdge) return negate(andRec(f, negate(g)));  // ~f | g
  if (g == negate(h)) return xorRec(f, h);
  // Canonicalize: first operand regular; then-edge regular via output flip.
  if (isCompl(f)) {
    f = negate(f);
    std::swap(g, h);
  }
  std::uint32_t parity = 0;
  if (isCompl(g)) {
    g = negate(g);
    h = negate(h);
    parity = 1;
  }
  Edge out;
  if (cacheLookup(kOpIte, f, g, h, out)) return out ^ parity;
  ++stats_.recursive_steps;
  const std::uint32_t lf = level(f);
  const std::uint32_t lg = level(g);
  const std::uint32_t lh = level(h);
  const std::uint32_t top = std::min(lf, std::min(lg, lh));
  const Edge fh = lf == top ? highOf(f) : f;
  const Edge fl = lf == top ? lowOf(f) : f;
  const Edge gh = lg == top ? highOf(g) : g;
  const Edge gl = lg == top ? lowOf(g) : g;
  const Edge hh = lh == top ? highOf(h) : h;
  const Edge hl = lh == top ? lowOf(h) : h;
  const Edge rh = iteRec(fh, gh, hh);
  const Edge rl = iteRec(fl, gl, hl);
  const Edge r = mkNode(level2var_[top], rh, rl);
  cacheStore(kOpIte, f, g, h, r);
  return r ^ parity;
}

// ---------------------------------------------------------------------------
// Quantification
// ---------------------------------------------------------------------------

Edge Manager::existsRec(Edge f, Edge cube) {
  if (isConstEdge(f) || cube == kTrueEdge) return f;
  // Skip quantified variables above f's top variable.
  while (!isConstEdge(cube) && level(cube) < level(f)) {
    cube = highOf(cube);
  }
  if (cube == kTrueEdge) return f;
  Edge out;
  if (cacheLookup(kOpExists, f, cube, 0, out)) return out;
  ++stats_.recursive_steps;
  const std::uint32_t top = level(f);
  const Edge fh = highOf(f);
  const Edge fl = lowOf(f);
  Edge r;
  if (level(cube) == top) {
    const Edge rest = highOf(cube);
    const Edge rh = existsRec(fh, rest);
    if (rh == kTrueEdge) {
      r = kTrueEdge;
    } else {
      const Edge rl = existsRec(fl, rest);
      r = negate(andRec(negate(rh), negate(rl)));  // rh | rl
    }
  } else {
    r = mkNode(level2var_[top], existsRec(fh, cube), existsRec(fl, cube));
  }
  cacheStore(kOpExists, f, cube, 0, r);
  return r;
}

Edge Manager::andExistsRec(Edge f, Edge g, Edge cube) {
  // Terminal cases.
  if (f == kFalseEdge || g == kFalseEdge || f == negate(g)) return kFalseEdge;
  if (f == kTrueEdge && g == kTrueEdge) return kTrueEdge;
  if (f == g || g == kTrueEdge) return existsRec(f, cube);
  if (f == kTrueEdge) return existsRec(g, cube);
  if (f > g) std::swap(f, g);
  const std::uint32_t top = std::min(level(f), level(g));
  // Skip quantified variables above both operands.
  while (!isConstEdge(cube) && level(cube) < top) {
    cube = highOf(cube);
  }
  if (cube == kTrueEdge) return andRec(f, g);
  Edge out;
  if (cacheLookup(kOpAndExists, f, g, cube, out)) return out;
  ++stats_.recursive_steps;
  const std::uint32_t lf = level(f);
  const std::uint32_t lg = level(g);
  const Edge fh = lf == top ? highOf(f) : f;
  const Edge fl = lf == top ? lowOf(f) : f;
  const Edge gh = lg == top ? highOf(g) : g;
  const Edge gl = lg == top ? lowOf(g) : g;
  Edge r;
  if (level(cube) == top) {
    const Edge rest = highOf(cube);
    const Edge rh = andExistsRec(fh, gh, rest);
    if (rh == kTrueEdge) {
      r = kTrueEdge;
    } else {
      const Edge rl = andExistsRec(fl, gl, rest);
      r = negate(andRec(negate(rh), negate(rl)));  // rh | rl
    }
  } else {
    r = mkNode(level2var_[top], andExistsRec(fh, gh, cube),
               andExistsRec(fl, gl, cube));
  }
  cacheStore(kOpAndExists, f, g, cube, r);
  return r;
}

// ---------------------------------------------------------------------------
// Public wrappers
// ---------------------------------------------------------------------------

// Each wrapper retries under the pressure ladder (withPressure): at this
// boundary the operands are handle-protected, so a failed attempt's partial
// results are collectible garbage and the relieve() GC is safe.

Bdd Manager::ite(const Bdd& f, const Bdd& g, const Bdd& h) {
  ++stats_.top_ops;
  return withPressure([&] {
    return make(iteRec(requireSameManager(f), requireSameManager(g),
                       requireSameManager(h)));
  });
}

Bdd Manager::andB(const Bdd& f, const Bdd& g) {
  ++stats_.top_ops;
  return withPressure([&] {
    return make(andRec(requireSameManager(f), requireSameManager(g)));
  });
}

Bdd Manager::orB(const Bdd& f, const Bdd& g) {
  ++stats_.top_ops;
  return withPressure([&] {
    return make(negate(
        andRec(negate(requireSameManager(f)), negate(requireSameManager(g)))));
  });
}

Bdd Manager::xorB(const Bdd& f, const Bdd& g) {
  ++stats_.top_ops;
  return withPressure([&] {
    return make(xorRec(requireSameManager(f), requireSameManager(g)));
  });
}

Bdd Manager::exists(const Bdd& f, const Bdd& cube) {
  ++stats_.top_ops;
  return withPressure([&] {
    return make(existsRec(requireSameManager(f), requireSameManager(cube)));
  });
}

Bdd Manager::forall(const Bdd& f, const Bdd& cube) {
  ++stats_.top_ops;
  return withPressure([&] {
    return make(negate(
        existsRec(negate(requireSameManager(f)), requireSameManager(cube))));
  });
}

Bdd Manager::andExists(const Bdd& f, const Bdd& g, const Bdd& cube) {
  ++stats_.top_ops;
  return withPressure([&] {
    return make(andExistsRec(requireSameManager(f), requireSameManager(g),
                             requireSameManager(cube)));
  });
}

Bdd Manager::cube(std::span<const unsigned> vars) {
  Bdd c = one();
  std::vector<unsigned> sorted(vars.begin(), vars.end());
  for (unsigned v : sorted) ensureVar(v);
  // Build bottom-up (deepest level first) so each mkNode is O(1); under a
  // reordered manager the level order differs from the index order.
  std::sort(sorted.begin(), sorted.end(), [this](unsigned a, unsigned b) {
    return var2level_[a] < var2level_[b];
  });
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
    c = make(mkNode(*it, c.raw(), kFalseEdge));
  }
  return c;
}

}  // namespace bfvr::bdd

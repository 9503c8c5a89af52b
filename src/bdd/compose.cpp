// Composition (single and vector) and variable permutation. Vector
// composition is what the characteristic-function → BFV conversion of
// Coudert–Berthet–Madre needs; permutation renames the parameter bank after
// re-parameterization (u → v, see reach/bfv_reach.cpp).
#include <unordered_map>

#include "bdd/bdd.hpp"

namespace bfvr::bdd {

Edge Manager::composeRec(Edge f, std::uint32_t var, Edge g) {
  // f is independent of var when its top level is below var's level.
  if (isConstEdge(f) || level(f) > var2level_[var]) return f;
  const std::uint32_t op = kOpComposeBase + var;
  Edge out;
  if (cacheLookup(op, f, g, 0, out)) return out;
  ++stats_.recursive_steps;
  const std::uint32_t top = varOf(f);
  Edge r;
  if (top == var) {
    r = iteRec(g, highOf(f), lowOf(f));
  } else {
    const Edge rh = composeRec(highOf(f), var, g);
    const Edge rl = composeRec(lowOf(f), var, g);
    // g may depend on variables at or above `top`, so rebuild with ITE on
    // the projection of `top` rather than mkNode.
    if (rh == rl) {
      r = rh;
    } else {
      const Edge v = mkNode(top, kTrueEdge, kFalseEdge);
      r = iteRec(v, rh, rl);
    }
  }
  cacheStore(op, f, g, 0, r);
  return r;
}

Bdd Manager::compose(const Bdd& f, unsigned var, const Bdd& g) {
  ++stats_.top_ops;
  ensureVar(var);
  return withPressure([&] {
    return make(composeRec(requireSameManager(f), var, requireSameManager(g)));
  });
}

namespace {

/// Per-invocation memo for vector composition (the computed table cannot be
/// keyed by a whole substitution map).
struct VectorComposer {
  Manager& mgr;
  std::span<const Bdd> map;
  std::unordered_map<Edge, Bdd> memo;

  Bdd run(const Bdd& f) {
    if (f.isConst()) return f;
    // Complemented and regular edges compose to complements of each other;
    // memo on the regular edge only.
    const bool compl_in = (f.raw() & 1U) != 0;
    const Bdd reg = compl_in ? ~f : f;
    if (auto it = memo.find(reg.raw()); it != memo.end()) {
      return compl_in ? ~it->second : it->second;
    }
    const unsigned v = reg.topVar();
    const Bdd rh = run(reg.high());
    const Bdd rl = run(reg.low());
    Bdd sub;
    if (v < map.size() && !map[v].isNull()) {
      sub = map[v];
    } else {
      sub = mgr.var(v);
    }
    Bdd r = mgr.ite(sub, rh, rl);
    memo.emplace(reg.raw(), r);
    return compl_in ? ~r : r;
  }
};

}  // namespace

Bdd Manager::vectorCompose(const Bdd& f, std::span<const Bdd> map) {
  ++stats_.top_ops;
  requireSameManager(f);
  for (const Bdd& m : map) {
    if (!m.isNull()) requireSameManager(m);
  }
  // The retry boundary sits around the whole walk: the memo's Bdd handles
  // unwind with the failed attempt, so relieve()'s GC reclaims them; the
  // nested ite() calls see in_pressure_op_ and do not retry individually.
  return withPressure([&] {
    VectorComposer vc{*this, map, {}};
    return vc.run(f);
  });
}

Bdd Manager::permute(const Bdd& f, std::span<const unsigned> perm) {
  ++stats_.top_ops;
  std::vector<Bdd> map(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    if (perm[i] != i) map[i] = var(perm[i]);
  }
  return vectorCompose(f, map);
}

}  // namespace bfvr::bdd

// Shannon cofactors and the two generalized-cofactor operators the paper's
// related work leans on: Coudert–Madre `constrain` (used for range
// computation by recursive splitting and for the conjunctive-decomposition
// algorithms of §2.7) and the size-minimizing `restrict`; and the range
// kernel built on constrain.
#include <algorithm>

#include "bdd/bdd.hpp"
#include "bdd/memo.hpp"

namespace bfvr::bdd {

Bdd Manager::cofactor(const Bdd& f, unsigned var, bool value) {
  ++stats_.top_ops;
  ensureVar(var);
  // f|v=c is composition of the constant c for v.
  const Edge g = value ? kTrueEdge : kFalseEdge;
  return withPressure(
      [&] { return make(composeRec(requireSameManager(f), var, g)); });
}

// ---------------------------------------------------------------------------
// Fused dual cofactor: both Shannon cofactors from one traversal
// ---------------------------------------------------------------------------

Edge Manager::cofactor2Rec(Edge f, std::uint32_t var, Edge& hi) {
  // f is independent of var when its top level is below var's level.
  if (isConstEdge(f) || level(f) > var2level_[var]) {
    hi = f;
    return f;
  }
  // Cofactors of ~f are the complements of f's; cache regular edges only.
  const Edge parity = f & 1U;
  f = regular(f);
  // Copy the node fields: recursion below may grow (reallocate) nodes_.
  const std::uint32_t top = varOf(f);
  const Edge fh = highOf(f);
  const Edge fl = lowOf(f);
  if (top == var) {
    hi = fh ^ parity;
    return fl ^ parity;
  }
  Edge lo;
  if (cacheLookup2(kOpCofactor2, f, var, 0, lo, hi)) {
    hi ^= parity;
    return lo ^ parity;
  }
  ++stats_.recursive_steps;
  // Both children's cofactor pairs in the same walk, then one mkNode per
  // output slice. Children's cofactors no longer contain var, so their
  // levels stay strictly below top's and mkNode's invariants hold.
  Edge fh1, fl1;
  const Edge fh0 = cofactor2Rec(fh, var, fh1);
  const Edge fl0 = cofactor2Rec(fl, var, fl1);
  lo = mkNode(top, fh0, fl0);
  const Edge hi_reg = mkNode(top, fh1, fl1);
  cacheStore2(kOpCofactor2, f, var, 0, lo, hi_reg);
  hi = hi_reg ^ parity;
  return lo ^ parity;
}

std::pair<Bdd, Bdd> Manager::cofactor2(const Bdd& f, unsigned var) {
  ++stats_.top_ops;
  ensureVar(var);
  return withPressure([&] {
    Edge hi = kFalseEdge;
    const Edge lo = cofactor2Rec(requireSameManager(f), var, hi);
    return std::pair<Bdd, Bdd>{make(lo), make(hi)};
  });
}

// ---------------------------------------------------------------------------
// constrain (Coudert–Madre generalized cofactor)
// ---------------------------------------------------------------------------

Edge Manager::constrainRec(Edge f, Edge c) {
  if (c == kTrueEdge || isConstEdge(f)) return f;
  if (f == c) return kTrueEdge;
  if (f == negate(c)) return kFalseEdge;
  Edge out;
  if (cacheLookup(kOpConstrain, f, c, 0, out)) return out;
  ++stats_.recursive_steps;
  const std::uint32_t lf = level(f);
  const std::uint32_t lc = level(c);
  const std::uint32_t top = std::min(lf, lc);
  const Edge fh = lf == top ? highOf(f) : f;
  const Edge fl = lf == top ? lowOf(f) : f;
  const Edge ch = lc == top ? highOf(c) : c;
  const Edge cl = lc == top ? lowOf(c) : c;
  Edge r;
  if (cl == kFalseEdge) {
    r = constrainRec(fh, ch);
  } else if (ch == kFalseEdge) {
    r = constrainRec(fl, cl);
  } else {
    r = mkNode(level2var_[top], constrainRec(fh, ch), constrainRec(fl, cl));
  }
  cacheStore(kOpConstrain, f, c, 0, r);
  return r;
}

Bdd Manager::constrain(const Bdd& f, const Bdd& c) {
  ++stats_.top_ops;
  const Edge ce = requireSameManager(c);
  if (ce == kFalseEdge) {
    throw std::invalid_argument("constrain with unsatisfiable care set");
  }
  return withPressure(
      [&] { return make(constrainRec(requireSameManager(f), ce)); });
}

// ---------------------------------------------------------------------------
// restrict (sibling substitution)
// ---------------------------------------------------------------------------

Edge Manager::restrictRec(Edge f, Edge c) {
  if (c == kTrueEdge || isConstEdge(f)) return f;
  if (f == c) return kTrueEdge;
  if (f == negate(c)) return kFalseEdge;
  const std::uint32_t lf = level(f);
  // Quantify out of the care set any variable above f's support: restrict
  // must not introduce variables f does not depend on.
  while (!isConstEdge(c) && level(c) < lf) {
    const Edge ch = highOf(c);
    const Edge cl = lowOf(c);
    c = negate(andRec(negate(ch), negate(cl)));  // ch | cl
    if (c == kTrueEdge) return f;
  }
  if (isConstEdge(c)) return f;  // c == TRUE (FALSE cannot arise from |)
  Edge out;
  if (cacheLookup(kOpRestrict, f, c, 0, out)) return out;
  ++stats_.recursive_steps;
  const std::uint32_t lc = level(c);
  const Edge fh = highOf(f);
  const Edge fl = lowOf(f);
  Edge r;
  if (lc == lf) {
    const Edge ch = highOf(c);
    const Edge cl = lowOf(c);
    if (cl == kFalseEdge) {
      r = restrictRec(fh, ch);
    } else if (ch == kFalseEdge) {
      r = restrictRec(fl, cl);
    } else {
      r = mkNode(level2var_[lf], restrictRec(fh, ch), restrictRec(fl, cl));
    }
  } else {
    r = mkNode(level2var_[lf], restrictRec(fh, c), restrictRec(fl, c));
  }
  cacheStore(kOpRestrict, f, c, 0, r);
  return r;
}

Bdd Manager::restrict(const Bdd& f, const Bdd& c) {
  ++stats_.top_ops;
  const Edge ce = requireSameManager(c);
  if (ce == kFalseEdge) {
    throw std::invalid_argument("restrict with unsatisfiable care set");
  }
  return withPressure(
      [&] { return make(restrictRec(requireSameManager(f), ce)); });
}

// ---------------------------------------------------------------------------
// range (Coudert–Madre recursive range splitting)
// ---------------------------------------------------------------------------

Bdd Manager::range(std::span<const Bdd> fs, std::span<const unsigned> vars) {
  ++stats_.top_ops;
  if (fs.size() != vars.size()) {
    throw std::invalid_argument("range: one variable per component");
  }
  for (const Bdd& f : fs) requireSameManager(f);
  for (const unsigned v : vars) ensureVar(v);
  const std::size_t n = fs.size();
  // The retry boundary sits around the whole walk: the stack and the memo
  // are rebuilt with each attempt, and the nested kernels never retry.
  return withPressure([&] {
    // The suffixes still to split share one stack. A frame's suffix is
    // stack[base, base + n - i), addressed by index: deeper frames push
    // theirs behind it and may reallocate the stack.
    std::vector<Edge> stack;
    stack.reserve(n * n + 1);
    for (const Bdd& f : fs) stack.push_back(f.raw());
    // Per call: the computed cache cannot be keyed by a whole suffix.
    detail::SuffixMemo memo;
    // ITE(u, hi, lo). The halves range over the variables after u, so u
    // sits above both unless the order interleaves the range variables;
    // read per attempt: the ladder may reorder between two.
    const auto split = [&](unsigned u, Edge hi, Edge lo) {
      const std::uint32_t lu = var2level_[u];
      if (lu < level(hi) && lu < level(lo)) return mkNode(u, hi, lo);
      return iteRec(mkNode(u, kTrueEdge, kFalseEdge), hi, lo);
    };
    auto rec = [&](auto&& self, std::size_t base, std::size_t i) -> Edge {
      if (i == n) return kTrueEdge;
      const std::size_t len = n - i;
      const std::uint64_t h = memo.hash({stack.data() + base, len});
      if (const Edge* hit = memo.find({stack.data() + base, len}, h)) {
        return *hit;
      }
      const Edge d = stack[base];
      Edge r;
      if (isConstEdge(d)) {
        // The tail is the next suffix as it stands.
        const Edge rest = self(self, base + 1, i + 1);
        r = d == kTrueEdge ? split(vars[i], rest, kFalseEdge)
                           : split(vars[i], kFalseEdge, rest);
      } else {
        // Both constrained tails, then one range each.
        const std::size_t on = stack.size();
        const std::size_t off = on + len - 1;
        stack.resize(off + len - 1);
        for (std::size_t k = 1; k < len; ++k) {
          stack[on + k - 1] = constrainRec(stack[base + k], d);
          stack[off + k - 1] = constrainRec(stack[base + k], negate(d));
        }
        const Edge hi = self(self, on, i + 1);
        const Edge lo = self(self, off, i + 1);
        stack.resize(on);
        r = split(vars[i], hi, lo);
      }
      memo.insert({stack.data() + base, len}, h, r);
      return r;
    };
    return make(rec(rec, 0, 0));
  });
}

}  // namespace bfvr::bdd

// Composition (single and vector) and variable permutation. Vector
// composition is what the characteristic-function → BFV conversion of
// Coudert–Berthet–Madre needs; permutation renames the parameter bank after
// re-parameterization (u → v, see reach/bfv_reach.cpp) and the image's
// next-state bank in the chi engines. All three are raw-edge kernels.
#include <algorithm>

#include "bdd/bdd.hpp"
#include "bdd/memo.hpp"

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

Bdd Manager::vectorCompose(const Bdd& f, std::span<const Bdd> map) {
  ++stats_.top_ops;
  const Edge root = requireSameManager(f);
  bool substitutes = false;
  for (std::size_t v = 0; v < map.size(); ++v) {
    if (map[v].isNull()) continue;
    requireSameManager(map[v]);
    substitutes |= v < num_vars_;
  }
  if (!substitutes) return f;
  // The retry boundary sits around the whole walk: the memo is rebuilt
  // with each attempt, and the nested iteRec calls never retry.
  return withPressure([&] {
    // The walk stops below the deepest substituted level: nothing under it
    // changes. Read per attempt: the ladder may reorder between two.
    std::uint32_t deepest = 0;
    for (std::size_t v = 0; v < map.size() && v < num_vars_; ++v) {
      if (!map[v].isNull()) deepest = std::max(deepest, var2level_[v]);
    }
    // Per call: the computed cache cannot be keyed by a whole map.
    // Complemented and regular edges compose to complements of each other,
    // so the memo holds regular edges only.
    detail::EdgeMemo<Edge> memo(nodeCount(f));
    auto rec = [&](auto&& self, Edge e) -> Edge {
      if (isConstEdge(e) || level(e) > deepest) return e;
      const Edge reg = regular(e);
      if (const Edge* hit = memo.find(reg)) return *hit ^ (e & 1U);
      const std::uint32_t v = varOf(reg);
      const Edge hi = highOf(reg);
      const Edge lo = lowOf(reg);
      const Edge rh = self(self, hi);
      const Edge rl = self(self, lo);
      Edge r;
      if (v < map.size() && !map[v].isNull()) {
        r = iteRec(map[v].raw(), rh, rl);
      } else if (rh == hi && rl == lo) {
        r = reg;
      } else if (var2level_[v] < level(rh) && var2level_[v] < level(rl)) {
        r = mkNode(v, rh, rl);
      } else {
        // A substitute below lifted a variable to or above v's level.
        r = iteRec(mkNode(v, kTrueEdge, kFalseEdge), rh, rl);
      }
      memo.insert(reg, r);
      return r ^ (e & 1U);
    };
    return make(rec(rec, root));
  });
}

Edge Manager::permuteRec(Edge f, std::span<const unsigned> perm,
                         std::uint32_t pid) {
  if (isConstEdge(f)) return f;
  const Edge reg = regular(f);
  const std::uint32_t v = varOf(reg);
  const std::uint32_t to = v < perm.size() ? perm[v] : v;
  const Edge hi = highOf(reg);
  const Edge lo = lowOf(reg);
  // A projection renames to a projection: ite's terminal case, so neither
  // a cache probe nor a step.
  if (isConstEdge(hi) && isConstEdge(lo)) {
    return mkNode(to, hi, lo) ^ (f & 1U);
  }
  Edge r;
  if (cacheLookup(kOpPermute, reg, pid, 0, r)) return r ^ (f & 1U);
  ++stats_.recursive_steps;
  const Edge rh = permuteRec(hi, perm, pid);
  const Edge rl = permuteRec(lo, perm, pid);
  const std::uint32_t lt = var2level_[to];
  if (lt < level(rh) && lt < level(rl)) {
    r = mkNode(to, rh, rl);
  } else {
    r = iteRec(mkNode(to, kTrueEdge, kFalseEdge), rh, rl);
  }
  cacheStore(kOpPermute, reg, pid, 0, r);
  return r ^ (f & 1U);
}

std::uint32_t Manager::permId(std::span<const unsigned> perm) {
  // At most this many permutations keep their id; an engine uses one or
  // two, a caller renaming under ever new permutations recycles the table.
  constexpr std::size_t kMaxPerms = 16;
  std::size_t n = perm.size();
  while (n > 0 && perm[n - 1] == n - 1) --n;
  perm = perm.first(n);
  for (const PermEntry& e : perms_) {
    if (std::ranges::equal(e.perm, perm)) return e.id;
  }
  if (perms_.size() == kMaxPerms) perms_.erase(perms_.begin());
  perms_.push_back({std::vector<unsigned>(perm.begin(), perm.end()),
                    next_perm_id_++});
  return perms_.back().id;
}

Bdd Manager::permute(const Bdd& f, std::span<const unsigned> perm) {
  ++stats_.top_ops;
  const Edge root = requireSameManager(f);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    if (perm[i] != i) ensureVar(perm[i]);
  }
  const std::uint32_t pid = permId(perm);
  return withPressure([&] { return make(permuteRec(root, perm, pid)); });
}

}  // namespace bfvr::bdd

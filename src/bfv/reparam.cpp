// Re-parameterization (§2.6): canonicalize the raw vector produced by
// symbolic simulation.
//
// The simulated next-state functions depend on *parameter* variables (the
// previous iteration's choice variables and the primary inputs), not on the
// target choice variables. For every fixed assignment of the parameters the
// vector is constant — i.e. the canonical representation of a singleton —
// so existentially quantifying the parameters one at a time with the
// union-of-cofactors rule keeps every parameter slice canonical and ends
// with the canonical vector of the simulated range.
//
// The quantification order matters for intermediate sizes; following §3 we
// implement a dynamic schedule driven by per-component supports (quantify
// first the parameter that the fewest / smallest components depend on), and
// skip components that do not depend on the variable being quantified.
//
// Hot-path structure (this is the inner loop of the Fig. 2 flow):
//  * both cofactor slices of a component come from ONE fused traversal
//    (Manager::cofactor2) instead of two composeRec walks;
//  * per-component supports are bitsets maintained incrementally — after a
//    slice union, only components whose edge actually changed are re-walked
//    (identical raw edge => identical function => identical support);
//  * one walk (Manager::supportBits) refills a component's support bits and
//    its node count together, with no per-node list to sort and dedup;
//  * the node counts are memoized alongside the supports, so the
//    kSupportCost schedule reads them in O(1) instead of recounting inside
//    its O(pending × n) cost loop. After an automatic reorder they can be
//    stale until the component next changes; they only steer the heuristic;
//  * the BFV slice union is the region-split §2.3 core (union.cpp), which
//    walks no cofactors: per differing component one XOR and at most three
//    ITEs give h_i, and fx | (h_i ^ f_i), gx | (h_i ^ g_i) update the
//    exclusions (skipped at the last differing component, since nothing
//    reads them). That update is exact only because every parameter slice
//    stays canonical (f_i|v=0 <= f_i|v=1).
//
// The loop is shared with the conjunctive-decomposition backend
// (cdec::reparameterizeCdec), which plugs in its constrain-based union.
#include <algorithm>
#include <cstdint>
#include <tuple>

#include "bfv/internal.hpp"

namespace bfvr::bfv {

namespace internal {

namespace {

/// Cost of quantifying `var` now: (number of dependent components, total
/// node count of those components). Smaller is better — fewer components
/// touched means more of the union sweep stays on its fast path.
struct QuantCost {
  std::size_t dependents = 0;
  std::size_t nodes = 0;

  bool operator<(const QuantCost& o) const {
    if (dependents != o.dependents) return dependents < o.dependents;
    return nodes < o.nodes;
  }
};

/// Per-component support as a variable-indexed bitset (supports are sets of
/// variable *indices*, so they are stable across dynamic reordering).
class SupportBits {
 public:
  explicit SupportBits(std::size_t num_vars)
      : words_((num_vars + 63) / 64, 0) {}

  /// Refill from one walk of f's diagram; returns f's node count.
  std::size_t assign(Manager& m, const Bdd& f) {
    std::fill(words_.begin(), words_.end(), 0);
    return m.supportBits(f, words_);
  }
  bool test(unsigned v) const noexcept {
    return (words_[v >> 6] >> (v & 63)) & 1U;
  }

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace

std::vector<Bdd> quantifyParams(Manager& m, std::vector<Bdd> cur,
                                const std::vector<unsigned>& choice_vars,
                                std::span<const unsigned> param_vars,
                                const ReparamOptions& opts,
                                SliceUnion slice_union) {
  std::vector<unsigned> pending(param_vars.begin(), param_vars.end());
  const bool dynamic = opts.schedule == QuantSchedule::kSupportCost;

  // The bitsets must cover every variable a support walk can report: the
  // manager's current variables, every parameter we are about to quantify,
  // and the choice variables the slice unions introduce.
  std::size_t num_vars = m.numVars();
  for (const unsigned v : param_vars) {
    num_vars = std::max<std::size_t>(num_vars, v + 1);
  }
  for (const unsigned v : choice_vars) {
    num_vars = std::max<std::size_t>(num_vars, v + 1);
  }

  const std::size_t n = cur.size();
  std::vector<SupportBits> supports(n, SupportBits(num_vars));
  std::vector<std::size_t> node_counts(n, 0);
  auto rewalk = [&](std::size_t i) {
    node_counts[i] = supports[i].assign(m, cur[i]);
  };
  for (std::size_t i = 0; i < n; ++i) rewalk(i);

  // kStaticOrder consumes `pending` in place through an order-preserving
  // cursor; kSupportCost swap-pops (order is irrelevant there — the
  // schedule recomputes the cheapest variable every round).
  std::size_t cursor = 0;
  while (dynamic ? !pending.empty() : cursor < pending.size()) {
    // Pick the next parameter variable to quantify out.
    unsigned v;
    if (dynamic) {
      std::size_t pick = 0;
      QuantCost best;
      bool have = false;
      for (std::size_t c = 0; c < pending.size(); ++c) {
        QuantCost cost;
        for (std::size_t i = 0; i < n; ++i) {
          if (supports[i].test(pending[c])) {
            ++cost.dependents;
            cost.nodes += node_counts[i];
          }
        }
        if (!have || cost < best) {
          best = cost;
          pick = c;
          have = true;
        }
      }
      v = pending[pick];
      pending[pick] = pending.back();
      pending.pop_back();
    } else {
      v = pending[cursor++];
    }

    bool touched = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (supports[i].test(v)) {
        touched = true;
        break;
      }
    }
    if (!touched) continue;  // nothing depends on v: exists is the identity

    std::vector<Bdd> lo(n), hi(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (supports[i].test(v)) {
        std::tie(lo[i], hi[i]) = m.cofactor2(cur[i], v);
      } else {
        lo[i] = cur[i];
        hi[i] = cur[i];
      }
    }
    std::vector<Bdd> next = slice_union(m, choice_vars, lo, hi);
    // Incremental support maintenance: compare edges while BOTH vectors are
    // alive (so no index can have been recycled by a GC in between). An
    // unchanged edge is the same function — support and size carry over.
    for (std::size_t i = 0; i < n; ++i) {
      const bool changed = next[i].raw() != cur[i].raw();
      cur[i] = std::move(next[i]);
      if (changed) rewalk(i);
    }
    next.clear();
    lo.clear();
    hi.clear();
    m.maybeGc();
  }
  return cur;
}

}  // namespace internal

Bfv reparameterize(Manager& m, std::span<const Bdd> outputs,
                   std::vector<unsigned> choice_vars,
                   std::span<const unsigned> param_vars,
                   const ReparamOptions& opts) {
  if (outputs.size() != choice_vars.size()) {
    throw std::invalid_argument("reparameterize: arity mismatch");
  }
  std::vector<Bdd> cur(outputs.begin(), outputs.end());
  cur = internal::quantifyParams(m, std::move(cur), choice_vars, param_vars,
                                 opts, &internal::unionCore);
  return Bfv::fromComponents(m, std::move(choice_vars), std::move(cur),
                             /*trusted=*/true);
}

}  // namespace bfvr::bfv

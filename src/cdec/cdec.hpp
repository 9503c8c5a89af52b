// McMillan-style canonical conjunctive decomposition (§2.7 of the paper).
//
// Where a canonical BFV component f_i *evaluates* bit i from the earlier
// choices, the conjunctive decomposition stores a *constraint* per bit:
//     c_i(v_1..v_i) = f1_i & v_i  |  f0_i & ~v_i  |  fc_i
// and the characteristic function of the set is chi = AND_i c_i. The two
// representations are interconvertible with two cofactor operations per
// component:
//     c_i = v_i XNOR f_i          f_i = c_i|v=1 & (~c_i|v=0 | v_i)
//
// The canonical component is the generalized cofactor of the prefix
// projection: c_i = constrain(P_i, P_{i-1}) with P_i = exists v_{i+1..n}
// chi — well-defined with the BDD `constrain` operator exactly when the
// component order equals the BDD variable order, which is the paper's
// experimental setting and a precondition of this module.
//
// Set union keeps the projection invariant AND_{j<=i} c_j == P_i:
//     h_i = constrain(PF_i | PG_i, PH_{i-1})
// (projection distributes over disjunction), costing ~4 apply operations
// per component against ~12 for the BFV exclusion-condition sweep — the
// §2.7 "fewer BDD operations" claim that bench_cdec_ablation measures.
// The price is that the running prefix projections PH_i are materialized,
// the last of which is the full characteristic function; when chi is much
// larger than the shared BFV (Table 3 circuits), the BFV algorithms win on
// peak size even though they perform more operations. Both effects are
// reported by the ablation bench.
//
// Intersection does not distribute over projection; it is provided via the
// characteristic function (the Fig. 2 reachability flow never intersects,
// see §2.4).
#pragma once

#include "bfv/bfv.hpp"

namespace bfvr::cdec {

using bdd::Bdd;
using bdd::Manager;
using bfv::Bfv;

/// A state set as a canonical conjunctive decomposition.
class Cdec {
 public:
  Cdec() = default;

  static Cdec emptySet(Manager& m, std::vector<unsigned> vars);
  static Cdec universe(Manager& m, std::vector<unsigned> vars);
  /// Canonical decomposition of the set with characteristic function chi.
  static Cdec fromChar(Manager& m, const Bdd& chi, std::vector<unsigned> vars);
  /// Exact translation of a canonical BFV: c_i = v_i XNOR f_i.
  static Cdec fromBfv(const Bfv& f);
  /// Wrap constraints already in canonical form (trusted — e.g. an
  /// order-preserving renaming of a canonical decomposition).
  static Cdec fromConstraints(Manager& m, std::vector<unsigned> vars,
                              std::vector<Bdd> comps);

  bool isNull() const noexcept { return mgr_ == nullptr; }
  bool isEmpty() const noexcept { return empty_; }
  unsigned width() const noexcept {
    return static_cast<unsigned>(vars_.size());
  }
  const std::vector<unsigned>& vars() const noexcept { return vars_; }
  const std::vector<Bdd>& constraints() const noexcept { return comps_; }
  Manager* manager() const noexcept { return mgr_; }

  /// Canonical equality (componentwise, both orders matching).
  bool operator==(const Cdec& o) const;
  bool operator!=(const Cdec& o) const { return !(*this == o); }

  /// chi = AND_i c_i.
  Bdd toChar() const;
  /// The corresponding canonical BFV.
  Bfv toBfv() const;
  /// Number of states, counted on the constraints with the same chi-free
  /// prefix count as Bfv::countStates (c_i is the i-th constraint). Exact
  /// below 2^53; above, the exact count rounded to the nearest double.
  double countStates() const;
  std::size_t sharedSize() const;

  /// §2.7 union: constrain-based, keeping the projection invariant.
  friend Cdec setUnion(const Cdec& a, const Cdec& b);
  /// Intersection via the characteristic function (see header comment).
  friend Cdec setIntersect(const Cdec& a, const Cdec& b);

 private:
  friend Cdec reparameterizeCdec(Manager& m, std::span<const Bdd> outputs,
                                 std::vector<unsigned> choice_vars,
                                 std::span<const unsigned> param_vars,
                                 const bfv::ReparamOptions& opts);

  Cdec(Manager* m, std::vector<unsigned> vars, std::vector<Bdd> comps,
       bool empty)
      : mgr_(m),
        vars_(std::move(vars)),
        comps_(std::move(comps)),
        empty_(empty) {}

  Manager* mgr_ = nullptr;
  std::vector<unsigned> vars_;
  std::vector<Bdd> comps_;  // constraints c_i
  bool empty_ = false;
};

Cdec setUnion(const Cdec& a, const Cdec& b);
Cdec setIntersect(const Cdec& a, const Cdec& b);

/// Re-parameterization on the conjunctive decomposition: canonicalize the
/// raw simulated vector `outputs` by quantifying the parameter variables,
/// with the same union-of-cofactors rule as bfv::reparameterize but using
/// the constrain-based union. Returns the canonical decomposition over
/// `choice_vars`.
Cdec reparameterizeCdec(Manager& m, std::span<const Bdd> outputs,
                        std::vector<unsigned> choice_vars,
                        std::span<const unsigned> param_vars,
                        const bfv::ReparamOptions& opts = {});

}  // namespace bfvr::cdec

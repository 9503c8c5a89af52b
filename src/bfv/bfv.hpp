// Canonical Boolean functional vectors (BFVs) and the set-manipulation
// algorithms of Goel & Bryant (DATE 2003).
//
// A BFV F = (f_1 .. f_n) represents the SET given by its range: every
// assignment to the choice variables v_1..v_n selects a member F(v). The
// canonical form (§2.1 of the paper) requires
//   * exactly n choice variables, one per component, in *component order*
//     (highest-weighted bit first);
//   * members map to themselves, non-members to the nearest member under
//     the weighted distance d(X,Y) = sum_i 2^(n-i) |x_i - y_i|;
// which forces each component into the shape
//       f_i = f1_i  |  fc_i & v_i
// where f1_i ("forced to one") and fc_i ("free choice") depend only on
// v_1..v_{i-1}. The forced-to-zero condition is f0_i = ~(f1_i | fc_i).
//
// The empty set has no functional-vector representation (§2.1); it is an
// explicit special case here.
//
// Throughout this module the component order must equal the BDD variable
// order of the choice variables (choice_vars strictly increasing). The
// paper makes the same assumption in its experiments, and it is what makes
// the conjunctive-decomposition connection of §2.7 exact.
#pragma once

#include <span>
#include <vector>

#include "bdd/bdd.hpp"

namespace bfvr::bfv {

using bdd::Bdd;
using bdd::Manager;

/// The three mutually exclusive selection conditions of a component
/// (§2.2): forced-to-one, forced-to-zero, free choice.
struct ComponentConditions {
  Bdd forced1;
  Bdd forced0;
  Bdd choice;
};

/// A set of n-bit state vectors in canonical Boolean-functional-vector form.
///
/// Invariants (checked by checkCanonical, maintained by every operation):
///  * comps()[i] depends only on choiceVars()[0..i];
///  * comps()[i] is positive unate in choiceVars()[i];
///  * members map to themselves (idempotence F(F(v)) == F(v));
///  * choiceVars() is strictly increasing (component order == BDD order).
class Bfv {
 public:
  /// Null object (distinct from the empty set); most ops reject it.
  Bfv() = default;

  // ---- constructors for elementary sets (§2.1: "we start with canonical
  // vectors for elementary sets and build others by the set algorithms") ---
  static Bfv emptySet(Manager& m, std::vector<unsigned> choice_vars);
  /// All 2^n vectors: f_i = v_i.
  static Bfv universe(Manager& m, std::vector<unsigned> choice_vars);
  /// Singleton {bits}: the constant vector.
  static Bfv point(Manager& m, std::vector<unsigned> choice_vars,
                   const std::vector<bool>& bits);
  /// A cube: component i is the constant 0/1 for literals, v_i for don't
  /// cares (values: 0, 1, or -1 for don't care).
  static Bfv cubeSet(Manager& m, std::vector<unsigned> choice_vars,
                     std::span<const signed char> values);
  /// Union of singletons — convenience for tests/examples (members given as
  /// bit masks, bit 0 = component 0 = highest-weighted bit).
  static Bfv fromMembers(Manager& m, std::vector<unsigned> choice_vars,
                         std::span<const std::uint64_t> members);

  /// Wrap existing components; asserts canonicity in debug builds when
  /// `trusted` is false.
  static Bfv fromComponents(Manager& m, std::vector<unsigned> choice_vars,
                            std::vector<Bdd> comps, bool trusted = false);

  // ---- observers -----------------------------------------------------------
  bool isNull() const noexcept { return mgr_ == nullptr; }
  bool isEmpty() const noexcept { return empty_; }
  unsigned width() const noexcept {
    return static_cast<unsigned>(vars_.size());
  }
  const std::vector<unsigned>& choiceVars() const noexcept { return vars_; }
  const std::vector<Bdd>& comps() const noexcept { return comps_; }
  Manager* manager() const noexcept { return mgr_; }

  /// Canonical equality: same set iff identical components (or both empty).
  bool operator==(const Bfv& o) const;
  bool operator!=(const Bfv& o) const { return !(*this == o); }

  /// Membership: F(x) == x.
  bool contains(const std::vector<bool>& bits) const;
  /// Number of states in the set, counted on the components without
  /// building the characteristic function: bottom-up over the components,
  /// the number of completions of each prefix is kept as a vector of BDD
  /// bits (one ripple-carry addition per component). Exact below 2^53;
  /// above, the exact count rounded to the nearest double.
  double countStates() const;
  /// Shared BDD size of all components — the paper's "BFV size" metric
  /// (Table 3).
  std::size_t sharedSize() const;

  /// Characteristic function chi(v) = AND_i (v_i XNOR f_i). For canonical
  /// vectors this is the conjunctive decomposition identity of §2.7 and
  /// costs n apply operations.
  Bdd toChar() const;

  /// Selection conditions of component i (0-based).
  ComponentConditions conditions(unsigned i) const;

  /// The member selected by the given choice assignment (one bool per
  /// component). Requires non-empty.
  std::vector<bool> select(const std::vector<bool>& choices) const;

  /// Enumerate up to `limit` members (ascending in the weighted order).
  std::vector<std::vector<bool>> enumerate(std::size_t limit) const;

  /// Structural canonicity check (support + unateness + idempotence).
  /// Returns false with a reason for diagnostics.
  bool checkCanonical(std::string* why = nullptr) const;

  // ---- the paper's set algorithms -------------------------------------------
  /// §2.3: union via exclusion conditions. No characteristic function is
  /// ever built.
  friend Bfv setUnion(const Bfv& a, const Bfv& b);
  /// §2.4: intersection via elimination conditions + normalization pass.
  friend Bfv setIntersect(const Bfv& a, const Bfv& b);

  /// §2.5: Shannon cofactor with respect to choice variable of component i:
  /// the canonical vector of the sub-range selected with v_i fixed.
  Bfv cofactor(unsigned comp, bool value) const;
  /// §2.5: existential quantification of component i's choice variable —
  /// the union of the two cofactor ranges. On a canonical vector this is
  /// the identity on the represented set (every member is selected with
  /// v_i = 0 or v_i = 1); its real use is quantifying *parameter*
  /// variables during re-parameterization, where the cofactor ranges
  /// genuinely differ.
  Bfv existsChoice(unsigned comp) const;
  /// §2.5: universal quantification — the intersection of the cofactor
  /// ranges: the members selectable under both values of v_i, i.e. the
  /// members whose bit i is forced by the prefix choices.
  Bfv forallChoice(unsigned comp) const;

 private:
  Bfv(Manager* m, std::vector<unsigned> vars, std::vector<Bdd> comps,
      bool empty)
      : mgr_(m),
        vars_(std::move(vars)),
        comps_(std::move(comps)),
        empty_(empty) {}

  void requireCompatible(const Bfv& o) const;

  Manager* mgr_ = nullptr;
  std::vector<unsigned> vars_;
  std::vector<Bdd> comps_;
  bool empty_ = false;
};

Bfv setUnion(const Bfv& a, const Bfv& b);
Bfv setIntersect(const Bfv& a, const Bfv& b);

// ---------------------------------------------------------------------------
// Re-parameterization (§2.6) — the bridge from symbolic simulation back to
// canonical form: quantify the parameter variables out of a raw
// (non-canonical) vector.
// ---------------------------------------------------------------------------

/// How re-parameterization picks the next parameter variable to quantify.
enum class QuantSchedule {
  kStaticOrder,  ///< given order (ascending variable index)
  kSupportCost   ///< paper §3: dynamic, cheapest-support-first
};

struct ReparamOptions {
  QuantSchedule schedule = QuantSchedule::kSupportCost;
};

/// Canonicalize the raw vector `outputs` (functions of `param_vars` only —
/// they must NOT depend on `choice_vars`) into a canonical BFV over
/// `choice_vars`. Every parameter variable is existentially quantified by
/// the union-of-cofactors rule of §2.5; components that do not depend on
/// the variable being quantified are skipped per the support optimization
/// the paper describes.
Bfv reparameterize(Manager& m, std::span<const Bdd> outputs,
                   std::vector<unsigned> choice_vars,
                   std::span<const unsigned> param_vars,
                   const ReparamOptions& opts = {});

// ---------------------------------------------------------------------------
// Conversions between representations (the Fig. 1 flow needs both; we also
// use them to validate the direct algorithms).
// ---------------------------------------------------------------------------

/// Coudert–Berthet–Madre-style conversion: canonical BFV of the set whose
/// characteristic function is chi (over the same, increasing, choice vars).
/// chi == 0 yields the empty Bfv.
Bfv fromChar(Manager& m, const Bdd& chi, std::vector<unsigned> choice_vars);

/// Component reordering (the paper's §4 future work, provided here as a
/// reference implementation that routes through the characteristic
/// function — a direct algorithm remains the open problem). The result
/// represents the SAME set of states, but its j-th component carries the
/// state bit that was component perm[j] of `f`, weighted and parameterized
/// by the fresh strictly-increasing choice variables `new_vars`. Different
/// component orders can change the shared BDD size substantially, which is
/// why the paper wants a reordering heuristic.
Bfv reorderComponents(const Bfv& f, std::span<const unsigned> perm,
                      std::vector<unsigned> new_vars);

}  // namespace bfvr::bfv

// Reachability on logical zonotopes: the image/fixpoint loop of the BDD
// engines, re-run on generator matrices (src/lz/genset.hpp) with per-gate
// exactness tracking — and no BDD manager anywhere in the call graph.
//
// Images are computed by *affine-form* symbolic simulation: every signal of
// the cone carries a packed coefficient row over [constant | g_1 .. g_m]
// where the g_k are the parameters of the frontier member being expanded
// plus one fresh parameter per primary input. XOR/XNOR/NOT/BUF are exact
// wordwise operations on those rows. AND multiplies two affine forms; the
// cross term (A.beta)(B.beta) is quadratic, so it is over-approximated by a
// fresh free parameter delta — memoized per unordered (A, B) pair so the
// same product cancels with itself — and the evaluation is flagged lossy.
// OR/NOR/NAND reduce to AND and NOT. The latch-data rows then column-slice
// into the image zonotope.
//
// Consequences, which are the whole design:
//  * On XOR-affine circuits (free-running LFSRs, CRCs, shift/ring
//    structures) every gate is exact, the reached set is represented
//    exactly, and the engine reports RunStatus::kDone with a bit-exact
//    state count — typically orders of magnitude faster than any BDD
//    engine, because an image is O(gates * generators) word ops.
//  * Elsewhere the result is a sound over-approximation (reached set of
//    the circuit is a subset of the reported set). That still answers one
//    question conclusively: if a target output cannot be asserted anywhere
//    in the over-approximation, it is unreachable — the pre-filter the
//    portfolio racer wants. Every other lossy outcome is reported as
//    RunStatus::kInconclusive, a status the portfolio never crowns.
#pragma once

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "circuit/netlist.hpp"
#include "lz/genset.hpp"
#include "util/stats.hpp"

namespace bfvr::lz {

/// Union-of-members reached set: explicit points (rank-0 members) plus a
/// bounded list of zonotopes. Points of circuits with <= 64 latches pack
/// into the hash set; wider circuits keep whole rows.
struct StateSet {
  unsigned dims = 0;
  std::vector<GeneratorSet> zonos;
  std::unordered_set<std::uint64_t> points;  ///< packed rows, dims <= 64
  std::set<Bits> wide_points;                ///< rows, dims > 64

  explicit StateSet(unsigned d = 0) : dims(d) {}

  bool containsPoint(const Bits& p) const;
  /// Points + sum of member counts; >= |set| (members may overlap).
  double upperBound() const noexcept;
  std::size_t pointCount() const noexcept {
    return points.size() + wide_points.size();
  }
};

/// Per-iteration progress snapshot, streamed through LzOptions::on_iteration
/// (plain data — the job layer adapts it to obs::IterationRecord so src/lz
/// stays free of the obs -> bdd dependency chain).
struct IterationStats {
  unsigned iteration = 0;        ///< 1-based, matches LzResult::iterations
  double frontier_states = 0.0;  ///< upper bound on the set just expanded
  std::size_t frontier_members = 0;
  std::size_t zonotopes = 0;  ///< reached-set composition after the step
  std::size_t points = 0;
  unsigned generators = 0;      ///< widest generator pool of the step
  double reached_upper = 0.0;   ///< running upper bound on reached states
  double seconds = 0.0;
};

struct LzOptions {
  /// max_seconds is enforced per frontier member; max_live_nodes has no
  /// meaning here (there are no nodes) and is ignored.
  Budget budget;
  /// Cap on frontier iterations (0 = run to fixpoint). Like the BDD
  /// engines, a capped run still reports kDone when everything it did
  /// compute is exact: "states within k steps" is an exact answer, and at
  /// equal caps it is the same answer the BDD engines give.
  unsigned max_iterations = 0;
  /// Zonotope members tracked before folding them into their affine hull
  /// (rank-monotone, so folding guarantees termination on lossy circuits).
  std::size_t merge_threshold = 64;
  /// Cooperative cancellation, polled between frontier members. Returns
  /// true to stop the run with RunStatus::kCancelled.
  std::function<bool()> cancelled;
  /// Pre-filter target: position in Netlist::outputs() of the output to
  /// test for reachability of output==1, or -1 for a plain state count.
  int target_output = -1;
  std::function<void(const IterationStats&)> on_iteration;
};

struct LzResult {
  RunStatus status = RunStatus::kDone;
  /// Why the run is not exact/complete (lossy gates, member overflow,
  /// iteration cap, enumeration overflow, deadline). Empty for clean kDone.
  std::string message;
  /// Whether the reached set AND its count are exact (no lossy gate fired,
  /// no inexact hull fold, count fully enumerated).
  bool exact = false;
  /// Exact state count when `exact`; a sound upper bound otherwise.
  double states = 0.0;
  unsigned iterations = 0;
  double seconds = 0.0;
  std::size_t zonotopes = 0;     ///< final member counts
  std::size_t point_states = 0;
  unsigned peak_generators = 0;  ///< widest generator pool of any image
  std::uint64_t lossy_products = 0;  ///< fresh deltas minted for AND cross terms
  /// Pre-filter verdict when LzOptions::target_output was set; nullopt when
  /// the run could not conclude (lossy hit, or cut off before fixpoint).
  std::optional<bool> target_reachable;
  /// The final reached set (over-approximation unless `exact`).
  StateSet reached;
};

/// Run the zonotope fixpoint on `n` from its latch initial state. Never
/// allocates a BDD. Throws only std::bad_alloc / std::invalid_argument on a
/// malformed netlist; resource exits are folded into the status.
LzResult lzReach(const circuit::Netlist& n, const LzOptions& opts = {});

}  // namespace bfvr::lz

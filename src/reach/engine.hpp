// The reachability engines and the one table that names them:
//
//  * TR     — chi sets, images by (partitioned) transition relations with
//             IWLS95-style early quantification: Table 2's VIS baseline.
//             TR-mono uses one monolithic relation.
//  * CBM    — the Coudert/Berthet/Madre flow of Fig. 1: images by symbolic
//             simulation, set operations on chi, paying the conversions.
//  * BFV    — the paper's Fig. 2 flow: simulation, re-parameterization and
//             union directly on Boolean functional vectors.
//  * CDEC   — the Fig. 2 flow on the conjunctive decomposition (§2.7).
//  * Hybrid — "to split or to conjoin": chi sets, each image by the
//             relation or by range splitting, whichever looks smaller.
//  * LZ     — logical zonotopes (src/lz): no BDD manager, so src/run runs
//             it, not runEngine().
//
// The BDD engines run one fixpoint loop (internal.hpp) under a time/node
// budget and report the paper's metrics: wall-clock seconds and peak live
// BDD nodes, plus iteration counts, the state count and the reached set in
// the engine's own representation. reachedSizes() converts it to the other
// one, outside the run, for Table 3.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "bfv/bfv.hpp"
#include "cdec/cdec.hpp"
#include "obs/obs.hpp"
#include "sym/space.hpp"
#include "sym/transition.hpp"
#include "util/stats.hpp"

namespace bfvr::io {
struct Checkpoint;
}  // namespace bfvr::io

namespace bfvr::reach {

using bdd::Bdd;
using bdd::Manager;
using bfv::Bfv;

/// The seven engines, in kEngines order.
enum class Engine : std::uint8_t {
  kTr, kTrMono, kCbm, kBfv, kCdec, kHybrid, kLz
};

struct EngineInfo {
  Engine engine;
  /// Manifest `engine=`, the JOBS `engine` field, `bfv_run --list-engines`
  /// and the checkpoint tag (a tr-mono run writes TR's).
  const char* tag;
  /// The paper's name of the flow: the BENCH/TRACE `engine` field.
  const char* label;
};

/// The engine table, one row per Engine in enum order.
inline constexpr EngineInfo kEngines[] = {
    {Engine::kTr, "tr", "TR-IWLS95"},
    {Engine::kTrMono, "tr-mono", "TR-mono"},
    {Engine::kCbm, "cbm", "CBM-Fig1"},
    {Engine::kBfv, "bfv", "BFV-Fig2"},
    {Engine::kCdec, "cdec", "CDEC-Fig2"},
    {Engine::kHybrid, "hybrid", "Hybrid"},
    {Engine::kLz, "lz", "LZ"},
};

constexpr const char* tag(Engine e) {
  return kEngines[static_cast<std::size_t>(e)].tag;
}
constexpr const char* label(Engine e) {
  return kEngines[static_cast<std::size_t>(e)].label;
}
/// The engine whose tag is `tag`, if any.
std::optional<Engine> engineFromTag(std::string_view tag);

/// Which set each iteration simulates from: the Fig. 1/2 "Selection
/// Heuristic" box. Any set between the new states and the reached set gives
/// the same breadth-first levels, so the policy changes only the cost of a
/// run: states, iterations and every reached set are the same under all
/// three.
enum class FrontierPolicy : std::uint8_t {
  /// Always the whole reached set.
  kReached,
  /// The paper's heuristic: the smaller of the new states and the reached
  /// set. A BFV has no set difference, so the Fig. 2 flow weighs its whole
  /// image.
  kPaper,
  /// kPaper, plus a guarded chi frontier for the Fig. 2 flow's BFV backend.
  /// Once an image contains all of reached (so kPaper would simulate from
  /// reached) and reached's vector is larger than its width, the loop keeps
  /// chi(reached) and simulates from the BFV of restrict(chi(image),
  /// ~chi(previous reached)), a set between the new states and reached. It
  /// leaves that mode for good once a chi would exceed 4 x (reached's
  /// shared size + width). The chi engines already simulate from their
  /// exact new states and the CDEC backend keeps the paper's heuristic, so
  /// for them kGuarded is kPaper.
  kGuarded,
};

struct ReachOptions {
  Budget budget;
  /// Selection heuristic; see FrontierPolicy.
  FrontierPolicy frontier = FrontierPolicy::kGuarded;
  /// Re-parameterization quantification schedule (BFV/CDEC engines).
  bfv::ReparamOptions reparam;
  /// Transition-relation clustering (TR engine).
  sym::TransitionOptions transition;
  /// Cap on iterations (0 = until fixpoint); a safety net for tests.
  unsigned max_iterations = 0;
  /// Sift after every k-th frontier iteration (0 = never), on top of the
  /// manager's own Config::auto_reorder trigger. A CDEC run holds the
  /// order and skips both.
  unsigned reorder_every = 0;
  /// Record a per-iteration obs::RunTrace (frontier size, phase split, node
  /// census, op deltas, manager events) into ReachResult::trace. Off by
  /// default: tracing adds a live-node census and a state count per
  /// iteration, which untraced runs must not pay.
  bool trace = false;
  /// Per-iteration streaming hook: invoked right after every completed
  /// frontier iteration with that iteration's record — the serving layer
  /// forwards these to clients as the run progresses. Independent of
  /// `trace`, but enables the same per-iteration census cost (live-node
  /// count + state count) that tracing pays. The callback runs on the
  /// engine's thread; it must not throw and must not call back into the
  /// manager (exceptions are swallowed defensively).
  std::function<void(const obs::IterationRecord&)> on_iteration;
  /// Snapshot the reached set + frontier to `checkpoint_path` (atomic:
  /// tmp + rename, see io/checkpoint.hpp) after every `checkpoint_every`-th
  /// frontier iteration. 0 or an empty path = never.
  unsigned checkpoint_every = 0;
  std::string checkpoint_path;
  /// Continue from a decoded checkpoint (io::load / io::decode) instead of
  /// the initial state: the loop starts after the checkpoint's `iteration`
  /// completed iterations, from its reached set and frontier. The engine
  /// throws io::Error, before any work, when another engine wrote it or its
  /// roots do not fit the state space. Not owned; must outlive the run.
  const io::Checkpoint* resume = nullptr;
};

struct ReachResult {
  RunStatus status = RunStatus::kDone;
  /// Why the run did not complete — budget/live nodes for kMemOut, the
  /// time budget or deadline for kTimeOut, the interrupt reason for
  /// kCancelled. Empty for kDone.
  std::string message;
  unsigned iterations = 0;
  double states = 0.0;  ///< number of reachable states (when completed)
  double seconds = 0.0;
  /// Peak live BDD nodes, sampled after every image/union step (the
  /// paper's Peak(K) metric).
  std::size_t peak_live_nodes = 0;
  /// BDD operation counters accumulated over the run.
  bdd::OpStats ops;

  /// Per-iteration trace, present iff ReachOptions::trace was set. On a
  /// T.O./M.O. run the iteration that tripped the budget has no record;
  /// `iterations` still counts it.
  std::optional<obs::RunTrace> trace;

  /// Reached set in the engine's own representation, set when the loop
  /// ends without a budget or interrupt: the Fig. 2 engines (BFV, CDEC) set
  /// reached_bfv, the chi engines (TR, CBM, hybrid) set reached_chi.
  /// No engine converts it; reachedSizes() does.
  std::optional<Bfv> reached_bfv;
  Bdd reached_chi;
};

/// Table 3's pair for one reached set: the node count of its characteristic
/// function and the shared node count of its canonical BFV.
struct ReachedSizes {
  std::size_t chi_nodes = 0;
  std::size_t bfv_nodes = 0;
};

/// Both sizes of `r`'s reached set. Builds the representation the engine did
/// not return (the chi of a BFV, the BFV of a chi), so it is never part of a
/// run's measured time or peak; call it while `s`'s manager is alive. Zero
/// sizes when the run left no reached set.
ReachedSizes reachedSizes(const sym::StateSpace& s, const ReachResult& r);

/// Characteristic-function engine (VIS-like baseline).
ReachResult reachTr(sym::StateSpace& s, const ReachOptions& opts = {});

/// Coudert/Berthet/Madre Fig. 1 engine.
ReachResult reachCbm(sym::StateSpace& s, const ReachOptions& opts = {});

/// The paper's Fig. 2 engine, on Boolean functional vectors (reachBfv) or on
/// the conjunctive decomposition (reachCdec, §2.7). CDEC's constrain-based
/// union needs component order == BDD order, so its run holds the manager's
/// order (Manager::OrderHold): step, automatic and emergency reorders are
/// all skipped.
ReachResult reachBfv(sym::StateSpace& s, const ReachOptions& opts = {});
ReachResult reachCdec(sym::StateSpace& s, const ReachOptions& opts = {});

/// "To split or to conjoin" (Moon/Kukula/Ravi/Somenzi, cited as the hybrid
/// approach in §1): a characteristic-function engine that picks, per
/// iteration, between the transition-relation image (conjoin) and the
/// recursive-splitting transition-function image (split), based on the
/// size of the from-set relative to the relation.
ReachResult reachHybrid(sym::StateSpace& s, const ReachOptions& opts = {});

/// Run BDD engine `e` (anything but Engine::kLz, which throws
/// std::logic_error): the one dispatch from the engine table to the
/// entry points above.
ReachResult runEngine(sym::StateSpace& s, Engine e, ReachOptions opts = {});

/// Restart a checkpointed run: load `checkpoint_path` into the state
/// space's manager (restoring the recorded variable order) and continue the
/// fixpoint with the engine the file's tag names, seeded with its reached
/// set and frontier. The state space must be built over the same circuit
/// and initial order as the original run (same variable count; the
/// checkpoint carries the order itself). The continued run's states/
/// iterations/status are bit-identical to the uninterrupted run's: the
/// reached-set sequence depends only on the (reached, frontier) pair the
/// file captures exactly. Throws io::Error on a missing/corrupt/mismatched
/// file, and on a tag that names no engine that writes checkpoints.
ReachResult resumeReach(sym::StateSpace& s, const std::string& checkpoint_path,
                        const ReachOptions& opts = {});

/// Same restart from an in-memory checkpoint image (the bytes io::encode
/// produces / io::save writes) — the job-migration path of the serving
/// layer, where an evicted job's snapshot travels between workers without
/// touching the filesystem. Throws io::Error on a corrupt/mismatched image.
ReachResult resumeReach(sym::StateSpace& s, std::span<const std::uint8_t> image,
                        const ReachOptions& opts = {});

}  // namespace bfvr::reach

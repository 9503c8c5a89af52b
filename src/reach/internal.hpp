// Shared engine plumbing: budget enforcement, peak-live-node sampling, the
// per-iteration trace recorder behind ReachOptions::trace, and the one
// fixpoint loop every engine runs over its set representation.
#pragma once

#include <algorithm>
#include <optional>
#include <tuple>
#include <utility>

#include "io/checkpoint.hpp"
#include "obs/obs.hpp"
#include "reach/engine.hpp"
#include "sym/simulate.hpp"

namespace bfvr::reach::internal {

/// Thrown inside the iteration loop when the wall-clock budget expires.
struct TimeBudgetExceeded {};

/// Samples the paper's Peak(K) metric after every major step and enforces
/// the run budget.
class RunGuard {
 public:
  RunGuard(Manager& m, const Budget& budget) : m_(m), budget_(budget) {}

  /// Record the current live node count; throw on exhausted budgets.
  void sample() {
    const std::size_t live = m_.liveNodeCount();
    if (live > peak_) peak_ = live;
    if (budget_.max_live_nodes != 0 && live > budget_.max_live_nodes) {
      throw bdd::NodeBudgetExceeded(budget_.max_live_nodes, live);
    }
    if (budget_.max_seconds > 0.0 && timer_.seconds() > budget_.max_seconds) {
      throw TimeBudgetExceeded{};
    }
  }

  std::size_t peak() const noexcept { return peak_; }
  double seconds() const noexcept { return timer_.seconds(); }

 private:
  Manager& m_;
  Budget budget_;
  Timer timer_;
  std::size_t peak_ = 0;
};

/// Per-iteration trace recorder. Disabled (every member a near-no-op)
/// unless ReachOptions::trace is set; engines therefore call it
/// unconditionally. While enabled it also installs itself as the manager's
/// EventSink (forwarding to any previously installed sink) so GC/reorder/
/// budget events land in the trace.
class Tracer {
 public:
  Tracer(Manager& m, const ReachOptions& opts, RunGuard& guard)
      : m_(m),
        guard_(guard),
        record_(opts.trace),
        stream_(opts.on_iteration ? &opts.on_iteration : nullptr) {
    if (record_) recorder_.emplace(m, trace_.events);
  }

  /// True when iteration records are being built at all — for the result's
  /// trace (ReachOptions::trace), for live streaming (on_iteration), or
  /// both. The per-iteration census cost applies in every enabled case.
  bool enabled() const noexcept { return record_ || stream_ != nullptr; }

  /// Scoped phase attribution; a no-op scope when disabled.
  obs::PhaseTimer::Scope phase(obs::Phase p) {
    return enabled() ? timer_.scope(p) : obs::PhaseTimer::Scope(nullptr);
  }

  /// Run `f` under the given phase scope and return its result.
  template <typename F>
  decltype(auto) timed(obs::Phase p, F&& f) {
    const auto scope = phase(p);
    return std::forward<F>(f)();
  }

  /// Open iteration `iteration`'s record. `frontier` is invoked only when
  /// tracing is on; it returns {states, (shared) nodes} of the set this
  /// iteration simulates from, so untraced runs skip the counting cost.
  /// `from` names that set.
  template <typename F>
  void beginIteration(unsigned iteration, obs::FromSet from, F&& frontier) {
    if (!enabled()) return;
    cur_ = obs::IterationRecord{};
    cur_.iteration = iteration;
    cur_.from = from;
    const auto [states, nodes] = frontier();
    cur_.frontier_states = states;
    cur_.frontier_nodes = nodes;
    iter_ops_ = m_.stats();
    iter_phases_ = timer_.totals();
  }

  /// Close the current record: phase split, counter deltas and node census.
  /// Streams the record (ReachOptions::on_iteration) before appending it to
  /// the trace, so a client sees the iteration as soon as it completes.
  void endIteration() {
    if (!enabled()) return;
    cur_.phase_seconds = timer_.totals().since(iter_phases_);
    cur_.ops_delta = m_.stats().since(iter_ops_);
    const std::size_t live = m_.liveNodeCount();
    cur_.live_nodes = live;
    cur_.peak_nodes = std::max(guard_.peak(), live);
    if (stream_ != nullptr) {
      try {
        (*stream_)(cur_);
      } catch (...) {
        // A streaming failure (dead client, full pipe) must not abort the
        // run; the consumer notices through its own channel.
      }
    }
    if (record_) trace_.iterations.push_back(cur_);
  }

  /// Attach the collected trace to the result (uninstalling the event
  /// recorder first). Called once, after the iteration loop ends — normally
  /// or by budget exception.
  void finish(ReachResult& r) {
    if (!record_) return;
    trace_.phase_totals = timer_.totals();
    recorder_.reset();
    r.trace.emplace(std::move(trace_));
    trace_ = obs::RunTrace{};
  }

 private:
  Manager& m_;
  RunGuard& guard_;
  bool record_;
  const std::function<void(const obs::IterationRecord&)>* stream_;
  obs::PhaseTimer timer_;
  obs::RunTrace trace_;
  std::optional<obs::ScopedEventRecorder> recorder_;
  obs::IterationRecord cur_;
  bdd::OpStats iter_ops_;
  obs::PhaseSeconds iter_phases_;
};

/// Bind each latch's (v, u) pair into a reorder group, so any reordering
/// keeps the banks interleaved and the u -> v renaming order-preserving.
/// Pairs not at adjacent levels (the manager was reordered before this run)
/// stay unbound.
inline void bindStatePairs(sym::StateSpace& s) {
  Manager& m = s.manager();
  for (unsigned i = 0; i < s.numLatches(); ++i) {
    const unsigned pair[2] = {s.currentVar(i), s.paramVar(i)};
    if (m.levelOfVar(pair[1]) == m.levelOfVar(pair[0]) + 1) {
      m.bindVarGroup(pair);
    }
  }
}

/// Per-iteration reorder hook (called from the loop's safe point, next to
/// maybeGc()): sift every ReachOptions::reorder_every iterations.
inline void maybeStepReorder(Manager& m, const ReachOptions& opts,
                             unsigned iteration) {
  if (opts.reorder_every != 0 && iteration % opts.reorder_every == 0) {
    m.reorder(bdd::ReorderMethod::kSift);
  }
}

/// Whether this iteration ends with a snapshot (ReachOptions::checkpoint_*).
inline bool checkpointDue(const ReachOptions& opts, unsigned iteration) {
  return opts.checkpoint_every != 0 && !opts.checkpoint_path.empty() &&
         iteration % opts.checkpoint_every == 0;
}

/// Runs `body` (the iteration loop) and folds budget violations into the
/// result's status; records time/peak/op metrics and, when tracing is on,
/// attaches the per-iteration trace.
template <typename Body>
ReachResult runGuarded(Manager& m, const ReachOptions& opts, Body&& body) {
  ReachResult r;
  RunGuard guard(m, opts.budget);
  Tracer tracer(m, opts, guard);
  const bdd::OpStats before = m.stats();
  try {
    body(r, guard, tracer);
    r.status = RunStatus::kDone;
  } catch (const bdd::NodeBudgetExceeded& e) {
    r.status = RunStatus::kMemOut;
    r.message = e.what();
  } catch (const TimeBudgetExceeded&) {
    r.status = RunStatus::kTimeOut;
    r.message = "time budget " + std::to_string(opts.budget.max_seconds) +
                "s exceeded";
  } catch (const bdd::Interrupted& e) {
    // Cooperative interrupt (Manager::setInterruptCheck): a job-runner
    // deadline maps to the paper's T.O. outcome, a portfolio cancellation
    // to its own status. Either way the manager stays usable for the next
    // job on this worker.
    r.status = e.reason() == bdd::Interrupted::Reason::kDeadline
                   ? RunStatus::kTimeOut
                   : RunStatus::kCancelled;
    r.message = e.what();
  }
  r.seconds = guard.seconds();
  r.peak_live_nodes = guard.peak();
  r.ops = m.stats().since(before);
  tracer.finish(r);
  return r;
}

/// What an ops type's newStates() hands the selection heuristic: the set it
/// weighs against reached, and which set that is (for the trace).
template <typename Set>
struct News {
  const Set& set;
  obs::FromSet kind;
};

/// The one fixpoint loop behind every engine. Figs. 1 and 2 are the same
/// iteration over two set algebras: simulate from a frontier, union into
/// the reached set, stop when the union stops growing. The loop owns what
/// does not depend on the representation (iteration count, tracing, the
/// selection heuristic, step reorder, GC, checkpoint cadence, the iteration
/// cap); `Ops` supplies the rest:
///
///   Set                          the state-set type
///   Ops(s, opts, guard)          setup, after bindStatePairs()
///   Ops::decode(s, checkpoint)   {reached, from} to resume from; io::Error
///                                if another engine wrote the checkpoint or
///                                it does not fit `s`
///   initial()                    the initial-state set
///   states(set)                  a set's state count, for the trace
///   image(from, guard, tracer)   one image step; the value it returns owns
///                                every intermediate and `.img` is the image
///   unite(reached, img)          the union
///   newStates(img, reached, next, out, tracer)
///                                the News the selection heuristic weighs:
///                                `img` itself, or a new set stored in `out`;
///                                `next` is the union of `reached` and `img`
///   size(set)                    a set's BDD size
///   kSampleUnion                 whether the peak is sampled after the union
///   encode(reached, from)        the checkpoint's tag, kind and roots
///   finish(reached, r)           after the loop: the result's state count
///                                and its reached set, in this
///                                representation only (no conversion)
///
/// Handle lifetimes and peak samples are part of every engine's measured
/// behaviour: the live set at each guard.sample() is the paper's Peak(K),
/// and the live set at maybeGc() decides what the collector frees, hence
/// the node layout and every later cache hit and counter. The loop pins
/// both. The image step's value, which owns all of the step's
/// intermediates, and the new-state set's storage are locals of the loop
/// body, so they live to the end of the iteration, across maybeGc(). State
/// an ops type keeps across iterations (BfvOps' chi of reached) is live at
/// every sample. The peak is sampled at fixed points only: after setup (by
/// ops whose setup builds BDDs), inside the image step, after the union
/// when Ops::kSampleUnion, and after maybeGc(). The loop also copies no set
/// it does not need: even a short-lived vector moves the heap layout, and
/// with it the process's peak RSS.
template <typename Ops>
ReachResult fixpoint(sym::StateSpace& s, const ReachOptions& opts) {
  using Set = typename Ops::Set;
  // Validate the resume point before any work: a checkpoint this engine
  // cannot continue costs its caller nothing beyond the decode.
  std::optional<std::pair<Set, Set>> seed;
  if (opts.resume != nullptr) seed = Ops::decode(s, *opts.resume);
  Manager& m = s.manager();
  return runGuarded(m, opts, [&](ReachResult& r, RunGuard& guard,
                                 Tracer& tracer) {
    bindStatePairs(s);
    Ops ops(s, opts, guard);
    Set reached, from;
    obs::FromSet from_kind = obs::FromSet::kReached;
    if (seed) {
      r.iterations = opts.resume->iteration;
      std::tie(reached, from) = std::move(*seed);
      from_kind = obs::FromSet::kCheckpoint;
    } else {
      reached = ops.initial();
      from = reached;
    }
    for (;;) {
      ++r.iterations;
      tracer.beginIteration(r.iterations, from_kind, [&] {
        return std::pair{ops.states(from), ops.size(from)};
      });
      const auto step = ops.image(from, guard, tracer);
      const Set next = tracer.timed(
          obs::Phase::kUnion, [&] { return ops.unite(reached, step.img); });
      if constexpr (Ops::kSampleUnion) guard.sample();
      const bool converged = next == reached;
      Set fresh;
      if (!converged) {
        const auto check = tracer.phase(obs::Phase::kCheck);
        const News<Set> news =
            ops.newStates(step.img, reached, next, fresh, tracer);
        reached = next;
        // Selection heuristic (the Fig. 1/2 box): simulate from the smaller
        // of the new states and the reached set.
        const bool pick = opts.frontier != FrontierPolicy::kReached &&
                          ops.size(news.set) < ops.size(reached);
        from = pick ? news.set : reached;
        from_kind = pick ? news.kind : obs::FromSet::kReached;
      }
      tracer.endIteration();
      if (converged) break;
      maybeStepReorder(m, opts, r.iterations);
      m.maybeGc();
      guard.sample();
      if (checkpointDue(opts, r.iterations)) {
        io::Checkpoint c = ops.encode(reached, from);
        c.iteration = r.iterations;
        // Recorded after step reorder and GC: the order the next iteration
        // runs with.
        c.level2var = m.currentOrder();
        io::save(opts.checkpoint_path, c);
      }
      if (opts.max_iterations != 0 && r.iterations >= opts.max_iterations) {
        break;
      }
    }
    ops.finish(reached, r);
  });
}

/// The Fig. 2 flow's representation: canonical Boolean functional vectors
/// (bfv_reach.cpp). checkInvariant() runs the same image step.
class BfvOps {
 public:
  using Set = Bfv;
  static constexpr bool kSampleUnion = true;
  /// The simulated vector, its re-parameterization over the u bank, and
  /// the image renamed to the v bank.
  struct Step {
    sym::SimResult sim;
    Bfv img_u, img;
  };

  BfvOps(sym::StateSpace& s, const ReachOptions& opts, RunGuard& guard);
  static std::pair<Bfv, Bfv> decode(sym::StateSpace& s,
                                    const io::Checkpoint& c);
  Bfv initial() const;
  static double states(const Bfv& f) { return f.countStates(); }
  Step image(const Bfv& from, RunGuard& guard, Tracer& tracer) const;
  static Bfv unite(const Bfv& a, const Bfv& b) { return setUnion(a, b); }
  /// BFVs have no set difference (§2 has no negation), so the whole image
  /// plays the frontier role, except in FrontierPolicy::kGuarded's chi
  /// mode: there the new states come from chi(reached), which this ops
  /// object keeps (bfv_reach.cpp).
  News<Bfv> newStates(const Bfv& img, const Bfv& reached, const Bfv& next,
                      Bfv& out, Tracer& tracer);
  static std::size_t size(const Bfv& f) { return f.sharedSize(); }
  io::Checkpoint encode(const Bfv& reached, const Bfv& from) const;
  static void finish(const Bfv& reached, ReachResult& r) {
    r.states = reached.countStates();
    r.reached_bfv = reached;
  }

 private:
  sym::StateSpace& s_;
  bfv::ReparamOptions reparam_;
  std::vector<unsigned> params_;  ///< simulation parameters: v bank + inputs
  /// Where FrontierPolicy::kGuarded's chi frontier stands.
  enum class ChiMode : std::uint8_t {
    kOff,      ///< another policy, or the guard has tripped (for good)
    kWaiting,  ///< waiting for an image that covers reached
    kOn,       ///< simulating from chi frontiers
  };
  ChiMode mode_;
  /// chi of the reached set in ChiMode::kOn, from the mode's first
  /// non-final iteration on; null otherwise.
  Bdd chi_reached_;
};

}  // namespace bfvr::reach::internal

// Structured instrumentation for the reachability stack: scoped phase
// timers, per-iteration trace records and a collector for BDD-manager
// lifecycle events (see bdd::EventSink).
//
// The paper's claims are resource-trajectory claims — Table 2/3 compare
// wall-clock and Peak(K) live nodes, and §2.5/§2.7 argue about *where* the
// BDD operations go (reparam vs union vs image). This module is the
// substrate that makes those trajectories visible per iteration instead of
// only as end-of-run aggregates: every engine fills a RunTrace when
// ReachOptions::trace is on. obs/report.hpp holds the JSON formats of
// these types; the run's TRACE report around them (JSON for tooling, an
// aligned text table for humans) is written by src/reach
// (reach/report.hpp) from the ReachResult that carries the trace.
//
// Everything here is opt-in: a disabled PhaseTimer::Scope is a null
// pointer, and no trace structure is allocated unless requested.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "bdd/bdd.hpp"

namespace bfvr::obs {

/// The engine phases a reachability iteration is split into. Not every
/// engine exercises every phase (the TR engine never re-parameterizes; only
/// the CBM/CDEC flows pay explicit representation conversions).
enum class Phase : std::uint8_t {
  kImage,    ///< image computation (symbolic simulation / AND-EXISTS chain)
  kReparam,  ///< BFV/CDEC re-parameterization + rename back to current bank
  kUnion,    ///< set union with the reached set
  kCheck,    ///< fixpoint test + frontier selection heuristic
  kConvert,  ///< chi <-> BFV conversions (the Fig. 1 per-iteration cost)
  kOther,    ///< anything an engine wants timed but not split further
};
inline constexpr std::size_t kNumPhases = 6;
const char* to_string(Phase p) noexcept;

/// Seconds accumulated per phase; a plain value type so snapshots and
/// deltas are cheap.
struct PhaseSeconds {
  std::array<double, kNumPhases> seconds{};

  double& operator[](Phase p) noexcept {
    return seconds[static_cast<std::size_t>(p)];
  }
  double operator[](Phase p) const noexcept {
    return seconds[static_cast<std::size_t>(p)];
  }
  double total() const noexcept;
  /// Field-wise difference `this - before` (both from the same timer).
  PhaseSeconds since(const PhaseSeconds& before) const noexcept;
};

/// Nesting-aware scoped phase timer. Time is attributed *exclusively*: when
/// a scope opens inside another, the parent's clock pauses, so the sum of
/// all phase totals never exceeds the wall-clock covered by the scopes.
///
/// Nesting is enforced, not assumed: begin/end pairs must close in strict
/// LIFO order. The manual push()/pop() API throws std::logic_error on an
/// overlap (pop of a phase that is not the innermost open one) or an
/// underflow, instead of silently mis-attributing the interval; the RAII
/// Scope asserts the same invariant in debug builds and recovers (closes
/// whatever is actually innermost) in release, since destructors cannot
/// throw.
class PhaseTimer {
 public:
  /// RAII guard returned by scope(); a Scope holding nullptr is a no-op
  /// (how disabled tracing stays near-zero cost).
  class Scope {
   public:
    explicit Scope(PhaseTimer* t, Phase p = Phase::kOther) noexcept
        : t_(t), p_(p) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (t_ != nullptr) t_->popScope(p_);
    }

   private:
    PhaseTimer* t_;
    Phase p_;
  };

  Scope scope(Phase p) {
    push(p);
    return Scope(this, p);
  }
  void push(Phase p);
  /// Close the innermost scope; throws std::logic_error if none is open.
  void pop();
  /// Close the innermost scope, checking it is `expected`; throws
  /// std::logic_error on an empty stack or an overlapping (non-LIFO) end.
  void pop(Phase expected);

  std::size_t depth() const noexcept { return stack_.size(); }
  /// Accumulated self-time per phase. Within an open scope this excludes
  /// the time since the scope's last mark (closed scopes are fully counted).
  const PhaseSeconds& totals() const noexcept { return totals_; }

 private:
  static double now() noexcept {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Scope-destructor path: noexcept. Asserts the LIFO invariant in debug;
  /// in release closes the actual innermost scope so totals stay bounded.
  void popScope(Phase expected) noexcept;
  void popTopLocked(double t);

  std::vector<Phase> stack_;
  double mark_ = 0.0;  // clock value of the last attribution boundary
  PhaseSeconds totals_;
};

/// Which set an iteration simulated from: the selection heuristic's pick
/// (reach::FrontierPolicy), recorded so a trace shows when a policy
/// switched.
enum class FromSet : std::uint8_t {
  kReached,     ///< the whole reached set
  kImage,       ///< the set weighed against it: the last image (BFV/CDEC)
                ///< or its new states, image & ~reached (chi engines)
  kChi,         ///< the guarded chi frontier of the BFV flow
  kCheckpoint,  ///< the frontier a resumed run read from its checkpoint
};
const char* to_string(FromSet f) noexcept;

/// One frontier iteration of a reachability engine — the trace record the
/// acceptance tooling keys on. `ops_delta` are the manager counters spent
/// by this iteration; `phase_seconds` its scoped phase split.
struct IterationRecord {
  unsigned iteration = 0;        ///< 1-based, matches ReachResult.iterations
  FromSet from = FromSet::kReached;  ///< the set simulated from
  double frontier_states = 0.0;  ///< states in the set simulated from
  std::size_t frontier_nodes = 0;  ///< (shared) node count of that set
  PhaseSeconds phase_seconds;
  std::size_t live_nodes = 0;  ///< live BDD nodes after the iteration
  std::size_t peak_nodes = 0;  ///< running peak of live samples so far
  bdd::OpStats ops_delta;
};

/// Everything recorded over one engine run. On a T.O./M.O. run the
/// iteration that tripped the budget has no record (it never completed);
/// ReachResult.iterations still counts it.
struct RunTrace {
  std::vector<IterationRecord> iterations;
  std::vector<bdd::ManagerEvent> events;
  PhaseSeconds phase_totals;  ///< timer totals at end of run
};

/// Installs itself as the manager's EventSink for its lifetime, appending
/// every event to `out` and forwarding to the previously installed sink
/// (so nested recorders compose); restores that sink on destruction.
class ScopedEventRecorder final : public bdd::EventSink {
 public:
  ScopedEventRecorder(bdd::Manager& m, std::vector<bdd::ManagerEvent>& out)
      : m_(m), out_(out), prev_(m.eventSink()) {
    m_.setEventSink(this);
  }
  ~ScopedEventRecorder() override { m_.setEventSink(prev_); }
  ScopedEventRecorder(const ScopedEventRecorder&) = delete;
  ScopedEventRecorder& operator=(const ScopedEventRecorder&) = delete;

  void onManagerEvent(const bdd::ManagerEvent& e) override {
    out_.push_back(e);
    if (prev_ != nullptr) prev_->onManagerEvent(e);
  }

 private:
  bdd::Manager& m_;
  std::vector<bdd::ManagerEvent>& out_;
  bdd::EventSink* prev_;
};

}  // namespace bfvr::obs

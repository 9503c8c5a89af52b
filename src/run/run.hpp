// Concurrent job-runner & portfolio subsystem.
//
// The engines of reach's engine table win on different circuits (the same
// engine-selection sensitivity Goel & Bryant report across the ISCAS
// circuits), and a bdd::Manager is documented single-threaded — so the
// natural scaling unit is the *job*: one circuit + one engine + one fresh
// BDD universe, executed to completion (or to a deadline) on one worker
// thread. This module provides:
//
//  * JobSpec -> JobResult: one engine invocation with a wall-clock deadline
//    and cooperative cancellation, every failure mode folded into a
//    RunStatus instead of an escaping exception.
//  * WorkerPool: a fixed-size pool; each worker thread owns the single live
//    Manager it runs jobs on (created fresh per job so node budgets, caches
//    and variable orders never leak between jobs, and never shared across
//    threads).
//  * Portfolio mode: launch the same circuit under N engines sharing one
//    CancelToken; the first conclusive winner cancels the rest.
//
// Cancellation is cooperative end to end: the worker installs a
// Manager::setInterruptCheck callback that watches the job's CancelToken
// and deadline; the manager polls it at node-allocation / GC / reordering
// boundaries and throws bdd::Interrupted, which the engines surface as
// RunStatus::kTimeOut / kCancelled with the manager still usable for the
// worker's next job.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/orders.hpp"
#include "reach/engine.hpp"

namespace bfvr::run {

/// Cancellation flag shared between a controller and the workers running
/// the jobs it may want to stop. Sticky: once cancelled, stays cancelled.
class CancelToken {
 public:
  void cancel() noexcept { flag_.store(true, std::memory_order_relaxed); }
  bool cancelled() const noexcept {
    return flag_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> flag_{false};
};

/// Retry escalation for jobs that run out of nodes. Attempt 1 runs the
/// spec as given; when it ends kMemOut (and only then — a timeout or an
/// error would fail the same way again) the job is re-run on a fresh
/// manager with the next escalation applied cumulatively:
///
///   attempt 2: enable auto-reorder and the manager's pressure ladder
///   attempt 3: shrink the computed cache (cache_bits - 2, floor 12)
///   attempt 4+: raise the node budgets by `node_budget_growth` (compounds)
///
/// When the spec checkpoints (ReachOptions::checkpoint_*), every retry
/// resumes from the latest snapshot instead of restarting the fixpoint —
/// the escalation path the paper's long-running circuits want.
struct RetryPolicy {
  /// Total attempts including the first; 1 = never retry.
  unsigned max_attempts = 1;
  /// Sleep before attempt k: backoff_seconds * 2^(k-2) (exponential).
  /// Cancellation is honoured during the wait.
  double backoff_seconds = 0.0;
  /// Budget multiplier of the raise-budget escalation step.
  double node_budget_growth = 2.0;
};

/// Per-worker cache of one live bdd::Manager reused across jobs
/// (reset-not-destroy): release() resets the finished job's manager back
/// to the pristine zero-variable state — keeping the node store and
/// computed-cache allocations warm — and acquire() reconfigures it for the
/// next job's config. A job on a reused manager is bit-identical to one on
/// a fresh manager (Manager::resetForReuse clears every counter, threshold
/// and the variable order), so warm reuse is purely a cold-start saving.
/// A manager whose job leaked live handles fails the reset and is
/// destroyed instead, with the leak counted — the serving layer's
/// node-accounting line items. Not thread-safe: each worker owns its own
/// cache; the stats counters alone are safe to read cross-thread.
class ManagerCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;    ///< jobs served a reused warm manager
    std::uint64_t misses = 0;  ///< jobs that had to build a fresh manager
    std::uint64_t resets_failed = 0;  ///< managers destroyed: reset failed
    std::uint64_t leaked_nodes = 0;   ///< live nodes found at failed resets

    Stats& operator+=(const Stats& o) noexcept {
      hits += o.hits;
      misses += o.misses;
      resets_failed += o.resets_failed;
      leaked_nodes += o.leaked_nodes;
      return *this;
    }
  };

  /// A warm manager reconfigured for `cfg` when one is cached, else a
  /// fresh Manager(0, cfg).
  std::unique_ptr<bdd::Manager> acquire(const bdd::Manager::Config& cfg);
  /// Try to reset `m` for reuse; destroy it (counting the leak) otherwise.
  void release(std::unique_ptr<bdd::Manager> m);

  Stats stats() const noexcept;

 private:
  std::unique_ptr<bdd::Manager> cached_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> resets_failed_{0};
  std::atomic<std::uint64_t> leaked_nodes_{0};
};

/// Everything needed to run one reachability job on a fresh manager.
struct JobSpec {
  /// Report key; defaults to "<circuit>/<engine>" when empty.
  std::string name;
  /// Circuit source: a `.bench` file path, or a generator spec
  /// `gen:<kind>:<args>` (see resolveCircuit for the accepted kinds).
  std::string circuit;
  reach::Engine engine = reach::Engine::kBfv;
  circuit::OrderSpec order{circuit::OrderKind::kTopo, 0};
  /// Engine options; budget/trace/reorder policy all apply per job.
  reach::ReachOptions opts;
  /// Configuration of the job's fresh BDD universe (hard node budget,
  /// cache size, auto-reorder trigger).
  bdd::Manager::Config mgr;
  /// Wall-clock deadline covering the whole job — circuit setup included,
  /// unlike ReachOptions::budget.max_seconds which the engine only starts
  /// counting once it runs. 0 = none. Enforced through the interrupt hook,
  /// and also folded into the engine budget so tiny jobs that never hit a
  /// poll point still observe it.
  double deadline_seconds = 0.0;
  /// Out-of-memory retry escalation (default: no retries).
  RetryPolicy retry;
  /// Deterministic fault plan installed on each attempt's fresh manager
  /// (empty = none). Attempt clocks restart per attempt, so a plan that
  /// fires on attempt 1 fires identically on attempt 2 unless the
  /// escalation changed the allocation sequence.
  bdd::FaultPlan faults;
  /// In-memory checkpoint image (io::encode bytes) to resume from on the
  /// FIRST attempt — the serving layer's eviction/migration unit, letting a
  /// job suspended on one worker continue on another without touching the
  /// filesystem. Shared so requeued copies don't duplicate the snapshot.
  /// A corrupt or mismatched image falls back to a fresh run: the fixpoint
  /// is the same either way, only the recomputation differs.
  std::shared_ptr<const std::vector<std::uint8_t>> resume_image;
  /// Observability pass-through: the serving layer's span trace id, so a
  /// requeued/migrated copy of the job stays attached to the same span.
  /// 0 = untraced (batch runner, tests). Never affects execution.
  std::uint64_t trace_id = 0;
  /// Logical-zonotope engine (kLz) extras, ignored by the BDD engines:
  /// the pre-filter target — name of a primary output whose reachability
  /// (output == 1) the run decides, "" for a plain state count — and the
  /// member cap before the reached set folds into its affine hull.
  std::string lz_target;
  std::size_t lz_merge = 64;

  std::string displayName() const;
};

/// One executed attempt of a job (JobResult::attempts).
struct AttemptRecord {
  RunStatus status = RunStatus::kError;
  /// Failure reason (ReachResult::message / exception text); empty if done.
  std::string message;
  double seconds = 0.0;
  /// Escalation applied to this attempt: "" for the first, then
  /// "auto-reorder+ladder", "cache-shrink", "raise-budget".
  std::string escalation;
  /// Whether this attempt resumed from a checkpoint file.
  bool resumed = false;
  /// Faults the manager injected during this attempt.
  std::uint64_t faults_injected = 0;
};

/// Outcome of one job. The reached set itself does not survive the job
/// (it lives in the worker's manager, which is torn down with the job);
/// consumers get the stats, status and optional trace.
struct JobResult {
  RunStatus status = RunStatus::kError;
  /// Why the job did not complete: exception text for kError, budget and
  /// live-node count for kMemOut, time budget/deadline for kTimeOut, the
  /// interrupt reason for kCancelled. Empty for kDone.
  std::string message;
  /// Engine metrics; default-constructed when setup failed before the
  /// engine ran (iterations == 0, states == 0). From the final attempt.
  reach::ReachResult reach;
  /// One record per executed attempt (size >= 1; > 1 only under a
  /// RetryPolicy after kMemOut attempts).
  std::vector<AttemptRecord> attempts;
  double seconds = 0.0;        ///< execution wall-clock, all attempts
  double queue_seconds = 0.0;  ///< time the job waited for a free worker
  unsigned worker = 0;         ///< index of the worker that ran it

  /// Retries consumed (attempts beyond the first).
  unsigned retriesUsed() const noexcept {
    return attempts.empty() ? 0
                            : static_cast<unsigned>(attempts.size()) - 1;
  }
};

/// One job of a batch report: the spec that ran, how it ended, and its
/// portfolio bookkeeping — the race's group name (empty for a plain job)
/// and whether this variant was the race's first conclusive finisher.
struct JobRow {
  JobSpec spec;
  JobResult result;
  std::string group;
  bool winner = false;
};

/// The JOBS_<batch>.json report: batch meta (name, worker count,
/// wall-clock), the outcome tally and the retries used over `rows`, and a
/// `jobs` array with one object per row — its attempts when it was
/// retried, its trace report (reach::traceReport) when it was traced.
std::string jobsReport(const std::string& batch, unsigned workers,
                       double total_seconds, std::span<const JobRow> rows);

/// Materialize a JobSpec's circuit: parse the `.bench` file, or build the
/// generator. Accepted generator specs: gen:counter:<bits>:<mod>,
/// gen:johnson:<bits>, gen:lfsr:<bits>, gen:twinshift:<bits>,
/// gen:arbiter:<clients>, gen:fifo:<ptr_bits>, gen:gray:<bits>,
/// gen:crc:<bits>, gen:random:<latches>:<inputs>:<gates>:<seed>.
/// Throws std::invalid_argument / std::runtime_error on a bad spec.
circuit::Netlist resolveCircuit(const std::string& spec);

/// Run one job to completion on the calling thread: per-attempt manager
/// (fresh, or reused from `warm` when given), deadline + cancellation wired
/// to the interrupt hook, engine dispatched by kind, NodeBudgetExceeded /
/// Interrupted / any setup exception folded into the result status. Never
/// throws.
JobResult executeJob(const JobSpec& spec, const CancelToken* cancel = nullptr,
                     ManagerCache* warm = nullptr) noexcept;

/// Fixed-size worker pool executing JobSpecs FIFO. Each worker thread runs
/// executeJob — one manager alive per worker at a time, never shared. With
/// `warm_managers`, each worker keeps its manager alive between jobs
/// through a ManagerCache (reset-not-destroy), the serving layer's
/// cold-start saving.
class WorkerPool {
 public:
  /// Submit `avoid_worker` wildcard: any worker may run the job.
  static constexpr unsigned kAnyWorker = ~0u;

  /// `workers` is clamped to at least 1.
  explicit WorkerPool(unsigned workers, bool warm_managers = false);
  /// Drains the queue (pending jobs still run; cancel them through their
  /// tokens for a fast exit) and joins the workers.
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  unsigned workers() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }

  /// Enqueue a job. `cancel` (optional) is polled by the job's manager;
  /// `on_done` (optional) fires on the worker thread right before the
  /// future is fulfilled — the portfolio uses it to cancel the siblings of
  /// the first winner with no controller round-trip. `avoid_worker` steers
  /// the job away from one worker index — the migration half of
  /// eviction-via-checkpoint: a resumed job lands on a different worker
  /// than the one it was suspended on. Ignored on a 1-worker pool, and
  /// during shutdown-drain any worker may take the job (liveness over
  /// placement).
  std::future<JobResult> submit(
      JobSpec spec, std::shared_ptr<CancelToken> cancel = nullptr,
      std::function<void(const JobResult&)> on_done = {},
      unsigned avoid_worker = kAnyWorker);

  /// Aggregated warm-manager stats across the workers (all zero when the
  /// pool was built without warm_managers). Counter reads are safe at any
  /// time; they are exact once the pool is idle.
  ManagerCache::Stats warmStats() const noexcept;

 private:
  struct Queued;
  void workerMain(unsigned index);

  std::vector<std::thread> threads_;
  std::vector<std::unique_ptr<ManagerCache>> caches_;  // empty unless warm
  std::deque<std::unique_ptr<Queued>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_ = false;
};

/// Result of racing one circuit under several engines.
struct PortfolioResult {
  /// One result per variant, in `engines` order (not finish order).
  std::vector<JobResult> jobs;
  /// Index (into `jobs`) of the first variant to *finish* with kDone;
  /// -1 when no variant concluded (all timed out / ran out of nodes).
  int winner = -1;
  double seconds = 0.0;  ///< wall-clock of the whole race
};

/// Launch `base` once per engine on the pool, all variants sharing one
/// CancelToken; the first variant to finish with kDone cancels the rest.
/// Blocks until every variant has returned (winners, losers and all).
PortfolioResult runPortfolio(WorkerPool& pool, const JobSpec& base,
                             std::span<const reach::Engine> engines);

}  // namespace bfvr::run

// Multi-tenant admission control and fair scheduling.
//
// Admission: each tenant carries a config (weight, concurrency cap, queue
// cap, node/time budget ceilings). A submission is first clamped — its
// requested budgets are reduced to the tenant's ceilings, never raised —
// then counted against the queue cap; over-cap submissions are rejected
// with a reason naming the limit.
//
// Fairness: smooth weighted round-robin over tenants with runnable jobs.
// Every pick, each contending tenant's credit grows by its weight, the
// highest-credit tenant wins and pays the total weight back. Over any
// window the dispatch shares converge to the weight ratio, and the
// interleaving is smooth (a weight-3 tenant gets 3 of every 6 picks spread
// out, not 3 in a burst). Per-tenant order stays FIFO — except a job
// requeued after eviction, which goes to the *front* so migration resumes
// before new work starts.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "run/run.hpp"

namespace bfvr::svc {

/// Per-tenant policy knobs. A default-constructed config is "unlimited
/// within the server's own limits" with weight 1.
struct TenantConfig {
  std::string name;
  std::uint32_t weight = 1;       ///< WRR share (>= 1)
  std::uint32_t max_running = 0;  ///< concurrent running jobs; 0 = workers
  std::uint32_t max_queued = 0;   ///< waiting jobs; 0 = unlimited
  std::uint64_t max_nodes = 0;    ///< live-node budget ceiling; 0 = none
  double max_seconds = 0.0;       ///< deadline ceiling; 0 = none
};

/// Parse "name:weight[:max_running[:max_queued[:max_nodes[:max_seconds]]]]"
/// (one tenant per line; '#' comments). Throws svc::Error with the line
/// number on malformed input.
std::vector<TenantConfig> parseTenantsFile(const std::string& path);
std::vector<TenantConfig> parseTenantsString(const std::string& text);

/// One queued (or requeued) job, as the scheduler sees it.
struct QueuedJob {
  std::uint64_t id = 0;
  std::uint64_t session = 0;  ///< owning session, for routing frames back
  std::string tenant;
  run::JobSpec spec;
  /// Worker to steer away from (run::WorkerPool::kAnyWorker when free):
  /// set on requeue-after-eviction so the resume migrates.
  unsigned avoid_worker = run::WorkerPool::kAnyWorker;
  /// Evictions this job has survived so far.
  std::uint32_t evictions = 0;
};

/// The fair submission queue. Not thread-safe: the server serializes all
/// access under its own mutex.
class FairQueue {
 public:
  /// Register tenants up front. Unknown tenants submitting later are
  /// auto-registered with a default config (weight 1).
  explicit FairQueue(std::vector<TenantConfig> tenants = {});

  /// Admission check + clamp. On success the spec's budgets have been
  /// clamped to the tenant ceilings and the job is queued; on failure
  /// returns the rejection reason and queues nothing.
  std::optional<std::string> admit(QueuedJob job);

  /// Requeue an evicted job at the front of its tenant's line, bypassing
  /// the queue cap (the job was already admitted once).
  void requeueFront(QueuedJob job);

  /// Pick the next job to dispatch under smooth WRR, honouring per-tenant
  /// max_running (tenants at their cap do not contend). Returns nullopt
  /// when nothing is runnable. The caller must pair every successful pick
  /// with a later release() for the same tenant.
  std::optional<QueuedJob> pick();

  /// A picked job finished (or was dropped): release its running slot.
  void release(const std::string& tenant);

  /// Drop every queued job belonging to `session` (client disconnected).
  /// Returns the dropped jobs so the server can account for them.
  std::vector<QueuedJob> dropSession(std::uint64_t session);

  /// Drop everything still queued (immediate shutdown). Running slots and
  /// the dispatch log are untouched.
  std::vector<QueuedJob> dropAll();

  /// Remove one specific queued job (client cancel before dispatch).
  std::optional<QueuedJob> dropJob(std::uint64_t id);

  /// Re-point a queued job at a new owning session (a client reconnected
  /// and resubmitted with the job's idempotency key). Returns false when
  /// no such job is queued (it may be running or already finished).
  bool reattachSession(std::uint64_t job_id, std::uint64_t session);

  std::size_t queuedCount() const noexcept;
  const TenantConfig* tenantConfig(const std::string& name) const;

  /// Dispatch log: tenant name per pick(), in order — the soak test's
  /// fairness evidence.
  const std::vector<std::string>& dispatchLog() const noexcept {
    return dispatch_log_;
  }

 private:
  struct Tenant {
    TenantConfig cfg;
    std::int64_t credit = 0;
    std::uint32_t running = 0;
    std::deque<QueuedJob> waiting;
  };

  Tenant& tenantFor(const std::string& name);

  std::vector<std::unique_ptr<Tenant>> tenants_;  // stable registration order
  std::vector<std::string> dispatch_log_;
};

}  // namespace bfvr::svc

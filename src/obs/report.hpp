// Report formats of the observability types — phase splits, per-iteration
// records, manager events, the computed-cache counters and the serving
// layer's span timelines — plus the two writers every run report shares:
// the counter block and the outcome tally.
//
// Each report is written by the module that owns the result it reports,
// straight from that result: src/reach writes the BENCH_* row and the
// TRACE_* report from a ReachResult (reach/report.hpp), src/run writes
// JOBS_* from JobSpec + JobResult (run::jobsReport), and svc::Server writes
// SVC_* and the stats reply from its own state. obs sits below all three
// and includes none of them.
#pragma once

#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace bfvr::obs {

/// Computed-cache hit rate of a counter snapshot (0 when no lookups).
double cacheHitRate(const bdd::OpStats& ops) noexcept;

/// Per-operation computed-cache counters as one JSON object: a key per op
/// tag with lookups (`{"and": {"hits": H, "misses": M}, ...}`), omitting
/// tags the snapshot never exercised.
std::string opCacheJson(const bdd::OpStats& ops);

/// The counter block: `top_ops` ... `reorder_nodes_saved` and `op_cache`,
/// appended to `o`. Written flat into the BENCH rows (bench_setops rows
/// too), and nested by opStatsJson as the JOBS `ops` and TRACE
/// `ops_delta` objects.
util::JsonObject& addOpStats(util::JsonObject& o, const bdd::OpStats& ops);
std::string opStatsJson(const bdd::OpStats& ops);

/// The outcome tally: `<prefix><countKey(status)>` for every RunStatus, in
/// enum order — the JOBS and SVC totals ("jobs_") and the SVC tenant rows.
util::JsonObject& addStatusCounts(util::JsonObject& o, const StatusCounts& c,
                                  const std::string& prefix);

/// A traced run's `phase_totals`, `trace` (one object per iteration record:
/// phase_seconds, ops_delta, cache_hit_rate) and `events`, appended to `o`.
util::JsonObject& addRunTrace(util::JsonObject& o, const RunTrace& trace);

/// One stamped moment on a job's span timeline. `t` is seconds since the
/// span opened (the submit frame arriving); `what` is the lifecycle step
/// ("received", "admitted", "queued", "dispatched", "running", "evicted",
/// "resumed", "done"); `detail` carries the step's payload ("worker=2",
/// "iter=17", the terminal status).
struct SpanEvent {
  std::string what;
  double t = 0.0;
  std::string detail;
};

/// The span timeline of one served job: everything that happened to it
/// between the submit frame and its terminal event, under a server-assigned
/// trace ID. Plain data, so obs stays below svc.
struct JobSpan {
  std::uint64_t trace_id = 0;
  std::uint64_t job = 0;  ///< server job id (0 until admitted)
  std::string tenant;
  /// Client idempotency key, when the submission carried one — the handle
  /// a retrying client uses to find its job again in SVC_*.json.
  std::string idem;
  std::string status;  ///< terminal status tag; empty while in flight
  double start = 0.0;  ///< seconds since server start when the span opened
  unsigned evictions = 0;
  std::vector<unsigned> workers;  ///< each worker that ran it, in order
  std::vector<SpanEvent> events;
};

/// One span as a JSON object (trace id, tenant, status, workers, events).
std::string spanJson(const JobSpan& s);

}  // namespace bfvr::obs

#include "obs/report.hpp"

#include <cstdio>

#include "util/json.hpp"

namespace bfvr::obs {

namespace {

using util::JsonObject;

std::string phaseJson(const PhaseSeconds& p) {
  JsonObject o;
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    o.add(to_string(static_cast<Phase>(i)), p.seconds[i]);
  }
  return o.str();
}

std::string opStatsJson(const bdd::OpStats& s) {
  JsonObject o;
  o.add("top_ops", s.top_ops)
      .add("recursive_steps", s.recursive_steps)
      .add("cache_lookups", s.cache_lookups)
      .add("cache_hits", s.cache_hits)
      .add("cache_inserts", s.cache_inserts)
      .add("cache_collisions", s.cache_collisions)
      .add("nodes_created", s.nodes_created)
      .add("gc_runs", s.gc_runs)
      .add("reorder_runs", s.reorder_runs)
      .add("reorder_swaps", s.reorder_swaps)
      .add("reorder_nodes_saved", s.reorder_nodes_saved)
      .addRaw("op_cache", opCacheJson(s));
  return o.str();
}

std::string iterationJson(const IterationRecord& r) {
  JsonObject o;
  o.add("iteration", r.iteration)
      .add("from", to_string(r.from))
      .add("frontier_states", r.frontier_states)
      .add("frontier_nodes", static_cast<std::uint64_t>(r.frontier_nodes))
      .addRaw("phase_seconds", phaseJson(r.phase_seconds))
      .add("live_nodes", static_cast<std::uint64_t>(r.live_nodes))
      .add("peak_nodes", static_cast<std::uint64_t>(r.peak_nodes))
      .addRaw("ops_delta", opStatsJson(r.ops_delta))
      .add("cache_hit_rate", cacheHitRate(r.ops_delta));
  return o.str();
}

std::string eventJson(const bdd::ManagerEvent& e) {
  JsonObject o;
  o.add("kind", to_string(e.kind))
      .add("size_before", static_cast<std::uint64_t>(e.size_before))
      .add("size_after", static_cast<std::uint64_t>(e.size_after))
      .add("seconds", e.seconds)
      .add("automatic", e.automatic);
  if (e.kind == bdd::ManagerEvent::Kind::kPressure) {
    o.add("rung", to_string(e.rung));
  }
  return o.str();
}

std::string attemptJson(const JobAttempt& a) {
  JsonObject o;
  o.add("status", a.status).add("seconds", a.seconds);
  if (!a.message.empty()) o.add("message", a.message);
  if (!a.escalation.empty()) o.add("escalation", a.escalation);
  if (a.resumed) o.add("resumed", true);
  if (a.faults_injected != 0) o.add("faults_injected", a.faults_injected);
  return o.str();
}

}  // namespace

double cacheHitRate(const bdd::OpStats& ops) noexcept {
  if (ops.cache_lookups == 0) return 0.0;
  return static_cast<double>(ops.cache_hits) /
         static_cast<double>(ops.cache_lookups);
}

std::string opCacheJson(const bdd::OpStats& ops) {
  JsonObject o;
  for (std::size_t i = 0; i < bdd::kNumOpTags; ++i) {
    const auto tag = static_cast<bdd::OpTag>(i);
    const std::uint64_t hits = ops.opHits(tag);
    const std::uint64_t misses = ops.opMisses(tag);
    if (hits == 0 && misses == 0) continue;
    JsonObject entry;
    entry.add("hits", hits).add("misses", misses);
    o.addRaw(to_string(tag), entry.str());
  }
  return o.str();
}

std::string reportJson(const RunMeta& meta, const RunTrace& trace) {
  std::vector<std::string> iters;
  iters.reserve(trace.iterations.size());
  for (const IterationRecord& r : trace.iterations) {
    iters.push_back(iterationJson(r));
  }
  std::vector<std::string> events;
  events.reserve(trace.events.size());
  for (const bdd::ManagerEvent& e : trace.events) {
    events.push_back(eventJson(e));
  }
  JsonObject o;
  o.add("circuit", meta.circuit)
      .add("order", meta.order)
      .add("engine", meta.engine)
      .add("status", meta.status)
      .add("seconds", meta.seconds)
      .add("iterations", meta.iterations)
      .add("states", meta.states)
      .add("peak_live_nodes", static_cast<std::uint64_t>(meta.peak_live_nodes))
      .add("cache_hit_rate", cacheHitRate(meta.ops))
      .addRaw("phase_totals", phaseJson(trace.phase_totals))
      .addRaw("trace", util::jsonArray(iters))
      .addRaw("events", util::jsonArray(events));
  return o.str();
}

std::string jobsReportJson(const std::string& batch, unsigned workers,
                           double total_seconds,
                           std::span<const JobRecord> jobs) {
  std::vector<std::string> rows;
  rows.reserve(jobs.size());
  std::size_t done = 0, timeout = 0, memout = 0, cancelled = 0, error = 0,
              inconclusive = 0;
  std::uint64_t retries = 0;
  for (const JobRecord& j : jobs) {
    JsonObject o;
    o.add("name", j.name)
        .add("circuit", j.circuit)
        .add("order", j.order)
        .add("engine", j.engine)
        .add("status", j.status)
        .add("worker", j.worker)
        .add("queue_seconds", j.queue_seconds)
        .add("seconds", j.seconds)
        .add("iterations", j.iterations)
        .add("states", j.states)
        .add("peak_live_nodes", static_cast<std::uint64_t>(j.peak_live_nodes))
        .addRaw("ops", opStatsJson(j.ops))
        .add("cache_hit_rate", cacheHitRate(j.ops));
    if (!j.group.empty()) o.add("group", j.group).add("winner", j.winner);
    if (!j.message.empty()) o.add("message", j.message);
    if (j.attempts.size() > 1) {
      retries += j.attempts.size() - 1;
      o.add("retries", static_cast<std::uint64_t>(j.attempts.size() - 1));
      std::vector<std::string> atts;
      atts.reserve(j.attempts.size());
      for (const JobAttempt& a : j.attempts) atts.push_back(attemptJson(a));
      o.addRaw("attempts", util::jsonArray(atts));
    }
    if (!j.trace_json.empty()) o.addRaw("trace_report", j.trace_json);
    rows.push_back(o.str());
    if (j.status == "done") ++done;
    else if (j.status == "T.O.") ++timeout;
    else if (j.status == "M.O.") ++memout;
    else if (j.status == "cancelled") ++cancelled;
    else if (j.status == "inconclusive") ++inconclusive;
    else ++error;
  }
  JsonObject o;
  o.add("batch", batch)
      .add("workers", workers)
      .add("total_seconds", total_seconds)
      .add("jobs_total", static_cast<std::uint64_t>(jobs.size()))
      .add("jobs_done", static_cast<std::uint64_t>(done))
      .add("jobs_timeout", static_cast<std::uint64_t>(timeout))
      .add("jobs_memout", static_cast<std::uint64_t>(memout))
      .add("jobs_cancelled", static_cast<std::uint64_t>(cancelled))
      .add("jobs_error", static_cast<std::uint64_t>(error))
      .add("jobs_inconclusive", static_cast<std::uint64_t>(inconclusive))
      .add("retries_used", retries)
      .addRaw("jobs", util::jsonArray(rows));
  return o.str();
}

std::string reportTable(const RunMeta& meta, const RunTrace& trace) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line,
                "%s / %s / %s: %s in %.3fs, %.0f states, %u iterations, "
                "peak %zu live nodes, cache hit-rate %.1f%%\n",
                meta.circuit.c_str(), meta.order.c_str(), meta.engine.c_str(),
                meta.status.c_str(), meta.seconds, meta.states,
                meta.iterations, meta.peak_live_nodes,
                100.0 * cacheHitRate(meta.ops));
  out += line;
  // Whole-run per-op cache hit rates, skipping ops the run never used.
  std::string ops_line;
  for (std::size_t i = 0; i < bdd::kNumOpTags; ++i) {
    const auto tag = static_cast<bdd::OpTag>(i);
    const std::uint64_t hits = meta.ops.opHits(tag);
    const std::uint64_t total = hits + meta.ops.opMisses(tag);
    if (total == 0) continue;
    std::snprintf(line, sizeof line, "%s%s %.1f%% of %llu",
                  ops_line.empty() ? "" : ", ", to_string(tag),
                  100.0 * static_cast<double>(hits) /
                      static_cast<double>(total),
                  static_cast<unsigned long long>(total));
    ops_line += line;
  }
  if (!ops_line.empty()) out += "op cache: " + ops_line + "\n";
  std::snprintf(line, sizeof line,
                "%5s %12s %9s | %8s %8s %8s %8s %8s | %9s %9s %10s %5s\n",
                "iter", "frontier", "nodes", "image", "reparam", "union",
                "check", "convert", "live", "peak", "steps", "hit%");
  out += line;
  for (const IterationRecord& r : trace.iterations) {
    std::snprintf(line, sizeof line,
                  "%5u %12.0f %9zu | %8.4f %8.4f %8.4f %8.4f %8.4f | %9zu "
                  "%9zu %10llu %5.1f\n",
                  r.iteration, r.frontier_states, r.frontier_nodes,
                  r.phase_seconds[Phase::kImage],
                  r.phase_seconds[Phase::kReparam],
                  r.phase_seconds[Phase::kUnion],
                  r.phase_seconds[Phase::kCheck],
                  r.phase_seconds[Phase::kConvert], r.live_nodes,
                  r.peak_nodes,
                  static_cast<unsigned long long>(
                      r.ops_delta.recursive_steps),
                  100.0 * cacheHitRate(r.ops_delta));
    out += line;
  }
  if (!trace.events.empty()) {
    out += "events:\n";
    for (const bdd::ManagerEvent& e : trace.events) {
      std::snprintf(line, sizeof line,
                    "  [%s]%s %zu -> %zu in %.4fs\n", to_string(e.kind),
                    e.automatic ? " auto" : "", e.size_before, e.size_after,
                    e.seconds);
      out += line;
    }
  }
  return out;
}

std::string spanJson(const JobSpan& s) {
  std::vector<std::string> evs;
  evs.reserve(s.events.size());
  for (const SpanEvent& e : s.events) {
    util::JsonObject o;
    o.add("what", e.what).add("t", e.t);
    if (!e.detail.empty()) o.add("detail", e.detail);
    evs.push_back(o.str());
  }
  std::vector<std::string> workers;
  workers.reserve(s.workers.size());
  for (unsigned w : s.workers) workers.push_back(std::to_string(w));
  util::JsonObject o;
  o.add("trace_id", s.trace_id)
      .add("job", s.job)
      .add("tenant", s.tenant);
  if (!s.idem.empty()) o.add("idem", s.idem);
  o.add("status", s.status.empty() ? "in-flight" : s.status)
      .add("start", s.start)
      .add("evictions", s.evictions)
      .addRaw("workers", util::jsonArray(workers))
      .addRaw("events", util::jsonArray(evs));
  return o.str();
}

std::string svcReportJson(const SvcServerStats& server,
                          std::span<const SvcTenantStats> tenants) {
  return svcReportJson(server, tenants, SvcReportExtras{});
}

std::string svcReportJson(const SvcServerStats& server,
                          std::span<const SvcTenantStats> tenants,
                          const SvcReportExtras& extras) {
  // Totals across tenants; "jobs_done" and "leaked_nodes" are grepped by
  // the soak harness — keep the keys stable.
  std::uint64_t submitted = 0, rejected = 0, done = 0, timeout = 0,
                memout = 0, cancelled = 0, error = 0, inconclusive = 0,
                evictions = 0, resumes = 0;
  for (const SvcTenantStats& t : tenants) {
    submitted += t.submitted;
    rejected += t.rejected;
    done += t.done;
    timeout += t.timeout;
    memout += t.memout;
    cancelled += t.cancelled;
    error += t.error;
    inconclusive += t.inconclusive;
    evictions += t.evictions;
    resumes += t.resumes;
  }
  std::vector<std::string> rows;
  rows.reserve(tenants.size());
  for (const SvcTenantStats& t : tenants) {
    util::JsonObject o;
    o.add("tenant", t.name)
        .add("weight", t.weight)
        .add("submitted", t.submitted)
        .add("rejected", t.rejected)
        .add("done", t.done)
        .add("timeout", t.timeout)
        .add("memout", t.memout)
        .add("cancelled", t.cancelled)
        .add("error", t.error)
        .add("inconclusive", t.inconclusive)
        .add("evictions", t.evictions)
        .add("resumes", t.resumes)
        .add("queue_seconds", t.queue_seconds)
        .add("exec_seconds", t.exec_seconds);
    rows.push_back(o.str());
  }
  util::JsonObject root;
  root.add("server", server.name)
      .add("endpoint", server.endpoint)
      .add("workers", server.workers)
      .add("seconds", server.seconds)
      .add("sessions", server.sessions)
      .add("dispatches", server.dispatches)
      .add("jobs_submitted", submitted)
      .add("jobs_rejected", rejected)
      .add("jobs_done", done)
      .add("jobs_timeout", timeout)
      .add("jobs_memout", memout)
      .add("jobs_cancelled", cancelled)
      .add("jobs_error", error)
      .add("jobs_inconclusive", inconclusive)
      .add("evictions", evictions)
      .add("resumes", resumes)
      .add("warm_hits", server.warm_hits)
      .add("warm_misses", server.warm_misses)
      .add("resets_failed", server.resets_failed)
      .add("leaked_nodes", server.leaked_nodes)
      .add("queue_depth", extras.queue_depth)
      .add("running", extras.running)
      .addRaw("tenants", util::jsonArray(rows));
  if (!extras.spans.empty()) {
    std::vector<std::string> spans;
    spans.reserve(extras.spans.size());
    for (const JobSpan& s : extras.spans) spans.push_back(spanJson(s));
    root.addRaw("spans", util::jsonArray(spans));
  }
  if (!extras.metrics_json.empty()) {
    root.addRaw("metrics", extras.metrics_json);
  }
  if (!extras.flight_json.empty()) {
    root.addRaw("flight", extras.flight_json);
  }
  return root.str();
}

}  // namespace bfvr::obs

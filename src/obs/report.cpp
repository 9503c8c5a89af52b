#include "obs/report.hpp"

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

JsonObject& addOpStats(JsonObject& o, const bdd::OpStats& s) {
  return o.add("top_ops", s.top_ops)
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
}

std::string opStatsJson(const bdd::OpStats& ops) {
  JsonObject o;
  return addOpStats(o, ops).str();
}

JsonObject& addStatusCounts(JsonObject& o, const StatusCounts& c,
                            const std::string& prefix) {
  for (std::size_t i = 0; i < kNumRunStatuses; ++i) {
    o.add(prefix + countKey(static_cast<RunStatus>(i)), c.n[i]);
  }
  return o;
}

JsonObject& addRunTrace(JsonObject& o, const RunTrace& trace) {
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
  return o.addRaw("phase_totals", phaseJson(trace.phase_totals))
      .addRaw("trace", util::jsonArray(iters))
      .addRaw("events", util::jsonArray(events));
}

std::string spanJson(const JobSpan& s) {
  std::vector<std::string> evs;
  evs.reserve(s.events.size());
  for (const SpanEvent& e : s.events) {
    JsonObject o;
    o.add("what", e.what).add("t", e.t);
    if (!e.detail.empty()) o.add("detail", e.detail);
    evs.push_back(o.str());
  }
  std::vector<std::string> workers;
  workers.reserve(s.workers.size());
  for (unsigned w : s.workers) workers.push_back(std::to_string(w));
  JsonObject o;
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

}  // namespace bfvr::obs

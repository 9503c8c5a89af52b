#include "reach/report.hpp"

#include <cstdio>

#include "obs/report.hpp"

namespace bfvr::reach {

namespace {

/// The summary fields the row and the trace report share.
util::JsonObject runFields(const std::string& circuit,
                           const std::string& order,
                           const std::string& engine, const ReachResult& r) {
  util::JsonObject o;
  o.add("circuit", circuit)
      .add("order", order)
      .add("engine", engine)
      .add("status", to_string(r.status))
      .add("seconds", r.seconds)
      .add("iterations", r.iterations)
      .add("states", r.states)
      .add("peak_live_nodes", static_cast<std::uint64_t>(r.peak_live_nodes));
  return o;
}

}  // namespace

util::JsonObject runRow(const std::string& circuit, const std::string& order,
                        const std::string& engine, const ReachResult& r) {
  util::JsonObject o = runFields(circuit, order, engine, r);
  obs::addOpStats(o, r.ops);
  return o;
}

std::string traceReport(const std::string& circuit, const std::string& order,
                        const std::string& engine, const ReachResult& r) {
  util::JsonObject o = runFields(circuit, order, engine, r);
  o.add("cache_hit_rate", obs::cacheHitRate(r.ops));
  return obs::addRunTrace(o, *r.trace).str();
}

std::string traceTable(const std::string& circuit, const std::string& order,
                       const std::string& engine, const ReachResult& r) {
  using obs::Phase;
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line,
                "%s / %s / %s: %s in %.3fs, %.0f states, %u iterations, "
                "peak %zu live nodes, cache hit-rate %.1f%%\n",
                circuit.c_str(), order.c_str(), engine.c_str(),
                to_string(r.status).c_str(), r.seconds, r.states,
                r.iterations, r.peak_live_nodes,
                100.0 * obs::cacheHitRate(r.ops));
  out += line;
  // Whole-run per-op cache hit rates, skipping ops the run never used.
  std::string ops_line;
  for (std::size_t i = 0; i < bdd::kNumOpTags; ++i) {
    const auto tag = static_cast<bdd::OpTag>(i);
    const std::uint64_t hits = r.ops.opHits(tag);
    const std::uint64_t total = hits + r.ops.opMisses(tag);
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
  for (const obs::IterationRecord& it : r.trace->iterations) {
    std::snprintf(line, sizeof line,
                  "%5u %12.0f %9zu | %8.4f %8.4f %8.4f %8.4f %8.4f | %9zu "
                  "%9zu %10llu %5.1f\n",
                  it.iteration, it.frontier_states, it.frontier_nodes,
                  it.phase_seconds[Phase::kImage],
                  it.phase_seconds[Phase::kReparam],
                  it.phase_seconds[Phase::kUnion],
                  it.phase_seconds[Phase::kCheck],
                  it.phase_seconds[Phase::kConvert], it.live_nodes,
                  it.peak_nodes,
                  static_cast<unsigned long long>(
                      it.ops_delta.recursive_steps),
                  100.0 * obs::cacheHitRate(it.ops_delta));
    out += line;
  }
  if (!r.trace->events.empty()) {
    out += "events:\n";
    for (const bdd::ManagerEvent& e : r.trace->events) {
      std::snprintf(line, sizeof line,
                    "  [%s]%s %zu -> %zu in %.4fs\n", to_string(e.kind),
                    e.automatic ? " auto" : "", e.size_before, e.size_after,
                    e.seconds);
      out += line;
    }
  }
  return out;
}

}  // namespace bfvr::reach

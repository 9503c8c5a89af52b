// The reports of one reachability run, written from its ReachResult: the
// BENCH_* summary row every bench pushes, and the TRACE_* per-iteration
// report of a traced run (JSON for tooling, an aligned text table for
// humans). The JOBS_* report embeds the same trace report per traced job.
#pragma once

#include <string>

#include "reach/engine.hpp"
#include "util/json.hpp"

namespace bfvr::reach {

/// The BENCH_* row: circuit, order, engine, status, seconds, iterations,
/// states, peak_live_nodes, then the counter block (obs::addOpStats).
/// Benches append their own columns (bench_table3's reached-set sizes).
util::JsonObject runRow(const std::string& circuit, const std::string& order,
                        const std::string& engine, const ReachResult& r);

/// The TRACE_* report of a traced run (`r.trace` set): the row's summary
/// fields, the whole-run cache hit rate, phase totals, one record per
/// iteration and the manager events.
std::string traceReport(const std::string& circuit, const std::string& order,
                        const std::string& engine, const ReachResult& r);

/// The same report as an aligned-column text table.
std::string traceTable(const std::string& circuit, const std::string& order,
                       const std::string& engine, const ReachResult& r);

}  // namespace bfvr::reach

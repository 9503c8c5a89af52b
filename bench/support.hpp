// Shared harness plumbing for the experiment binaries: circuit/order
// suites, engine runners, fixed-width table printing in the style of the
// paper's tables, and the `--json` / `--trace` flag parsing. The rows and
// trace reports themselves are written by src/reach (reach/report.hpp)
// from each run's ReachResult; only the lz row, which has no BDD
// counters, is written here.
//
// Every bench accepts `--json[=path]` (one summary object per run, default
// BENCH_<name>.json) and `--trace[=path]` (one full per-iteration report
// per run, default TRACE_<name>.json) so the perf trajectory — peak nodes,
// recursive steps, phase splits, reorder counters — can be tracked across
// commits as CI artifacts.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "circuit/generators.hpp"
#include "circuit/orders.hpp"
#include "lz/lz_reach.hpp"
#include "reach/engine.hpp"
#include "reach/report.hpp"
#include "sym/space.hpp"
#include "util/json.hpp"

namespace bfvr::bench {

using util::JsonLog;
using util::JsonObject;

/// Options of a run that reproduces the paper: the Fig. 1/2 selection
/// heuristic as published (reach::FrontierPolicy::kPaper), not the guarded
/// chi frontier the library defaults to. bench_table2's guarded column sets
/// that policy on its own runs.
inline reach::ReachOptions paperOptions() {
  reach::ReachOptions o;
  o.frontier = reach::FrontierPolicy::kPaper;
  return o;
}

/// One engine invocation on a fresh manager (each run gets its own BDD
/// universe so peaks and caches do not leak across rows — the paper runs
/// each configuration as a separate process).
struct RunSpec {
  /// A BDD engine; rows are labelled reach::label(engine).
  reach::Engine engine = reach::Engine::kBfv;
  reach::ReachOptions opts = paperOptions();
  /// Manager configuration of the run's fresh BDD universe — how the
  /// ordering benches turn on Config::auto_reorder per run.
  bdd::Manager::Config mgr;
};

inline reach::ReachResult runOnce(const circuit::Netlist& n,
                                  const circuit::OrderSpec& order,
                                  const RunSpec& spec) {
  // The engine-boundary catch: building the StateSpace (netlist -> BDDs)
  // happens before the engine's own guarded loop, so a hard manager node
  // budget tripped there used to escape and abort the whole bench. Fold it
  // into the same RunStatus the engines report (M.O., and the interrupt
  // statuses for symmetry) instead.
  try {
    bdd::Manager m(0, spec.mgr);
    sym::StateSpace s(m, n, circuit::makeOrder(n, order));
    return reach::runEngine(s, spec.engine, spec.opts);
  } catch (const bdd::NodeBudgetExceeded&) {
    reach::ReachResult r;
    r.status = RunStatus::kMemOut;
    return r;
  } catch (const bdd::Interrupted& e) {
    reach::ReachResult r;
    r.status = e.reason() == bdd::Interrupted::Reason::kDeadline
                   ? RunStatus::kTimeOut
                   : RunStatus::kCancelled;
    return r;
  }
}

/// One logical-zonotope engine run (src/lz) — no manager, no order; the
/// representation is order-free, which is why the lz rows carry a fixed
/// "n/a" order label in the tables and JSON.
inline lz::LzResult runLzOnce(const circuit::Netlist& n, double max_seconds,
                              unsigned max_iterations = 0) {
  lz::LzOptions o;
  o.budget.max_seconds = max_seconds;
  o.max_iterations = max_iterations;
  return lz::lzReach(n, o);
}

/// Summary row of an lz run. Deliberately NOT the BDD reach::runRow schema:
/// there are no nodes and no recursive steps, and emitting them as zeros
/// would make tools/perf_smoke.py gate future runs against a zero baseline
/// (an infinite regression ratio). The lz-specific counters ride instead.
inline JsonObject lzRunObject(const std::string& circuit,
                              const lz::LzResult& r) {
  JsonObject o;
  o.add("circuit", circuit)
      .add("order", "n/a")
      .add("engine", reach::label(reach::Engine::kLz))
      .add("status", to_string(r.status))
      .add("seconds", r.seconds)
      .add("iterations", r.iterations)
      .add("states", r.states)
      .add("exact", r.exact)
      .add("zonotopes", std::uint64_t{r.zonotopes})
      .add("point_states", std::uint64_t{r.point_states})
      .add("peak_generators", r.peak_generators)
      .add("lossy_products", r.lossy_products)
      .add("message", r.message);
  return o;
}

/// "time(s)" cell of an lz run (kInconclusive runs did finish — show their
/// time, tagged by the separate status/notes columns).
inline std::string lzTimeCell(const lz::LzResult& r) {
  if (r.status != RunStatus::kDone &&
      r.status != RunStatus::kInconclusive) {
    return to_string(r.status);
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", r.seconds);
  return buf;
}

/// "states" cell: the exact count, "<= N" for a sound upper bound, "-"
/// when the run did not finish.
inline std::string lzStatesCell(const lz::LzResult& r) {
  char buf[48];
  if (r.status == RunStatus::kDone) {
    std::snprintf(buf, sizeof buf, "%.0f", r.states);
  } else if (r.status == RunStatus::kInconclusive) {
    std::snprintf(buf, sizeof buf, "<=%.0f", r.states);
  } else {
    std::snprintf(buf, sizeof buf, "-");
  }
  return buf;
}

/// Parse `--json` / `--json=path` out of argv; `bench_name` picks the
/// default file name `BENCH_<name>.json`. Returns a disabled log when the
/// flag is absent.
inline JsonLog jsonLogFromArgs(int argc, char** argv,
                               const std::string& bench_name) {
  return util::jsonLogFromFlag(argc, argv, "--json",
                               "BENCH_" + bench_name + ".json");
}

/// Parse `--trace` / `--trace=path`; default file `TRACE_<name>.json`.
/// When enabled, the bench sets ReachOptions::trace on its runs and pushes
/// each run's full report via pushTrace().
inline JsonLog traceLogFromArgs(int argc, char** argv,
                                const std::string& bench_name) {
  return util::jsonLogFromFlag(argc, argv, "--trace",
                               "TRACE_" + bench_name + ".json");
}

/// Push the run's full per-iteration report into the trace log. No-op when
/// the log is disabled or the run was not traced.
inline void pushTrace(JsonLog& log, const std::string& circuit,
                      const std::string& order, const std::string& engine,
                      const reach::ReachResult& r) {
  if (!log.enabled() || !r.trace.has_value()) return;
  log.push(reach::traceReport(circuit, order, engine, r));
}

/// "time(s)" cell: the run time, or T.O. / M.O. like the paper's Table 2.
inline std::string timeCell(const reach::ReachResult& r) {
  if (r.status != RunStatus::kDone) return to_string(r.status);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", r.seconds);
  return buf;
}

/// "Peak(K)" cell: peak live nodes in thousands (one decimal).
inline std::string peakCell(const reach::ReachResult& r) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f",
                static_cast<double>(r.peak_live_nodes) / 1000.0);
  return buf;
}

inline void hr(int width) {
  for (int i = 0; i < width; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

}  // namespace bfvr::bench

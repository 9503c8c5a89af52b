// Golden bytes of the run reports: one BENCH row, one TRACE report (as
// JSON and as a text table), one JOBS report holding every job shape the
// batch runner reports, and the stats reply of a one-tenant server with
// its wall-clock values masked. Each report is written by the module that
// owns the result it reports (reach, run, svc) from hand-built inputs with
// fixed seconds, so any change to a writer shows up here as a diff.
#include <gtest/gtest.h>

#include <unistd.h>

#include <regex>
#include <string>
#include <vector>

#include "reach/report.hpp"
#include "run/run.hpp"
#include "support/process_dir.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"

namespace bfvr {
namespace {

/// Counters with every field distinct (`base` + 1 ... + 11, hits below
/// lookups) and two op-cache tags exercised: and, ite.
bdd::OpStats goldenOps(std::uint64_t base) {
  bdd::OpStats s;
  s.top_ops = base + 1;
  s.recursive_steps = base + 2;
  s.cache_lookups = base + 4;
  s.cache_hits = base + 3;
  s.cache_inserts = base + 5;
  s.cache_collisions = base + 6;
  s.nodes_created = base + 7;
  s.gc_runs = base + 8;
  s.reorder_runs = base + 9;
  s.reorder_swaps = base + 10;
  s.reorder_nodes_saved = base + 11;
  s.op_cache_hits[static_cast<std::size_t>(bdd::OpTag::kAnd)] = base + 12;
  s.op_cache_misses[static_cast<std::size_t>(bdd::OpTag::kAnd)] = base + 13;
  s.op_cache_hits[static_cast<std::size_t>(bdd::OpTag::kIte)] = base + 14;
  s.op_cache_misses[static_cast<std::size_t>(bdd::OpTag::kIte)] = 0;
  return s;
}

/// A finished run with fixed seconds and no trace.
reach::ReachResult goldenRun() {
  reach::ReachResult r;
  r.status = RunStatus::kDone;
  r.iterations = 7;
  r.states = 96;
  r.seconds = 0.125;
  r.peak_live_nodes = 4321;
  r.ops = goldenOps(100);
  return r;
}

/// goldenRun() with a two-iteration trace, a GC and a pressure event.
reach::ReachResult goldenTracedRun() {
  reach::ReachResult r = goldenRun();
  r.iterations = 2;
  obs::RunTrace t;
  for (unsigned i = 1; i <= 2; ++i) {
    obs::IterationRecord rec;
    rec.iteration = i;
    rec.from = i == 1 ? obs::FromSet::kReached : obs::FromSet::kChi;
    rec.frontier_states = 8.0 * i;
    rec.frontier_nodes = 3 * i;
    rec.phase_seconds[obs::Phase::kImage] = 0.25 * i;
    rec.phase_seconds[obs::Phase::kReparam] = 0.125;
    rec.phase_seconds[obs::Phase::kConvert] = 0.5;
    rec.live_nodes = 40 * i;
    rec.peak_nodes = 50 * i;
    rec.ops_delta = goldenOps(10 * i);
    t.iterations.push_back(rec);
  }
  bdd::ManagerEvent gc;
  gc.kind = bdd::ManagerEvent::Kind::kGc;
  gc.size_before = 100;
  gc.size_after = 40;
  gc.seconds = 0.0625;
  gc.automatic = true;
  t.events.push_back(gc);
  bdd::ManagerEvent pressure;
  pressure.kind = bdd::ManagerEvent::Kind::kPressure;
  pressure.size_before = 900;
  pressure.size_after = 300;
  pressure.seconds = 0.03125;
  pressure.rung = bdd::PressureRung::kCacheShrink;
  t.events.push_back(pressure);
  t.phase_totals[obs::Phase::kImage] = 0.75;
  t.phase_totals[obs::Phase::kReparam] = 0.25;
  t.phase_totals[obs::Phase::kUnion] = 0.125;
  t.phase_totals[obs::Phase::kConvert] = 1.0;
  r.trace = std::move(t);
  return r;
}

run::AttemptRecord goldenAttempt(RunStatus s, double seconds) {
  run::AttemptRecord a;
  a.status = s;
  a.seconds = seconds;
  return a;
}

/// Six jobs: done; M.O. then done on retry; a portfolio pair; an error; a
/// traced job; an lz job that ended inconclusive.
std::vector<run::JobRow> goldenJobs() {
  std::vector<run::JobRow> jobs;
  jobs.reserve(7);  // job() hands out references into it
  const auto job = [&](const std::string& circuit, reach::Engine e,
                       RunStatus s, unsigned worker) -> run::JobRow& {
    run::JobRow j;
    j.spec.circuit = circuit;
    j.spec.engine = e;
    j.result.status = s;
    j.result.reach = goldenRun();
    j.result.reach.status = s;
    j.result.attempts.push_back(goldenAttempt(s, 0.5));
    j.result.seconds = 0.5;
    j.result.queue_seconds = 0.25;
    j.result.worker = worker;
    jobs.push_back(std::move(j));
    return jobs.back();
  };
  job("data/fifo3.bench", reach::Engine::kBfv, RunStatus::kDone, 0);

  run::JobRow& retried =
      job("gen:counter:8:200", reach::Engine::kBfv, RunStatus::kDone, 1);
  retried.spec.name = "cnt8-retry";
  retried.spec.order = {circuit::OrderKind::kNatural, 0};
  retried.result.attempts.clear();
  run::AttemptRecord first = goldenAttempt(RunStatus::kMemOut, 0.25);
  first.message = "node budget 1000 exceeded (1200 live)";
  first.faults_injected = 2;
  run::AttemptRecord second = goldenAttempt(RunStatus::kDone, 0.75);
  second.escalation = "auto-reorder+ladder";
  second.resumed = true;
  second.faults_injected = 1;
  retried.result.attempts = {first, second};
  retried.result.seconds = 1.0;

  run::JobRow& win =
      job("data/arb4.bench", reach::Engine::kTr, RunStatus::kDone, 0);
  win.spec.name = "data/arb4.bench/tr";
  win.group = "data/arb4.bench";
  win.winner = true;
  run::JobRow& lose =
      job("data/arb4.bench", reach::Engine::kCbm, RunStatus::kCancelled, 1);
  lose.spec.name = "data/arb4.bench/cbm";
  lose.group = "data/arb4.bench";
  lose.result.message = "cancelled";
  lose.result.attempts.back().message = "cancelled";

  run::JobRow& bad =
      job("nope.bench", reach::Engine::kBfv, RunStatus::kError, 0);
  bad.result.message = "cannot open nope.bench";
  bad.result.attempts.back().message = "cannot open nope.bench";
  bad.result.reach = reach::ReachResult{};
  bad.result.reach.status = RunStatus::kError;

  run::JobRow& traced =
      job("data/fifo3.bench", reach::Engine::kCdec, RunStatus::kDone, 1);
  traced.spec.order = {circuit::OrderKind::kRandom, 3};
  traced.result.reach = goldenTracedRun();

  run::JobRow& lz = job("data/arb4.bench", reach::Engine::kLz,
                      RunStatus::kInconclusive, 0);
  lz.result.message = "over-approximate: 3 lossy products";
  lz.result.attempts.back().message = lz.result.message;
  lz.result.reach.peak_live_nodes = 0;
  lz.result.reach.ops = bdd::OpStats{};
  return jobs;
}

TEST(GoldenReport, BenchRowWithTwoOpCacheTags) {
  EXPECT_EQ(reach::runRow("c17x", "topo", "BFV-Fig2", goldenRun()).str(),
      "{\"circuit\": \"c17x\", \"order\": \"topo\", \"engine\": \"BFV-Fig2\", "
      "\"status\": \"done\", \"seconds\": 0.125, \"iterations\": 7, "
      "\"states\": 96, \"peak_live_nodes\": 4321, \"top_ops\": 101, "
      "\"recursive_steps\": 102, \"cache_lookups\": 104, \"cache_hits\": 103, "
      "\"cache_inserts\": 105, \"cache_collisions\": 106, "
      "\"nodes_created\": 107, \"gc_runs\": 108, \"reorder_runs\": 109, "
      "\"reorder_swaps\": 110, \"reorder_nodes_saved\": 111, "
      "\"op_cache\": {\"and\": {\"hits\": 112, \"misses\": 113}, "
      "\"ite\": {\"hits\": 114, \"misses\": 0}}}");
}

TEST(GoldenReport, TraceReportWithIterationsEventsAndPhaseTotals) {
  EXPECT_EQ(
      reach::traceReport("c17x", "topo", "BFV-Fig2", goldenTracedRun()),
      "{\"circuit\": \"c17x\", \"order\": \"topo\", \"engine\": \"BFV-Fig2\", "
      "\"status\": \"done\", \"seconds\": 0.125, \"iterations\": 2, "
      "\"states\": 96, \"peak_live_nodes\": 4321, "
      "\"cache_hit_rate\": 0.990385, \"phase_totals\": {\"image\": 0.75, "
      "\"reparam\": 0.25, \"union\": 0.125, \"check\": 0, \"convert\": 1, "
      "\"other\": 0}, \"trace\": [{\"iteration\": 1, \"from\": \"reached\", "
      "\"frontier_states\": 8, \"frontier_nodes\": 3, "
      "\"phase_seconds\": {\"image\": 0.25, \"reparam\": 0.125, \"union\": 0, "
      "\"check\": 0, \"convert\": 0.5, \"other\": 0}, \"live_nodes\": 40, "
      "\"peak_nodes\": 50, \"ops_delta\": {\"top_ops\": 11, "
      "\"recursive_steps\": 12, \"cache_lookups\": 14, \"cache_hits\": 13, "
      "\"cache_inserts\": 15, \"cache_collisions\": 16, \"nodes_created\": 17, "
      "\"gc_runs\": 18, \"reorder_runs\": 19, \"reorder_swaps\": 20, "
      "\"reorder_nodes_saved\": 21, \"op_cache\": {\"and\": {\"hits\": 22, "
      "\"misses\": 23}, \"ite\": {\"hits\": 24, \"misses\": 0}}}, "
      "\"cache_hit_rate\": 0.928571}, {\"iteration\": 2, \"from\": \"chi\", "
      "\"frontier_states\": 16, \"frontier_nodes\": 6, "
      "\"phase_seconds\": {\"image\": 0.5, \"reparam\": 0.125, \"union\": 0, "
      "\"check\": 0, \"convert\": 0.5, \"other\": 0}, \"live_nodes\": 80, "
      "\"peak_nodes\": 100, \"ops_delta\": {\"top_ops\": 21, "
      "\"recursive_steps\": 22, \"cache_lookups\": 24, \"cache_hits\": 23, "
      "\"cache_inserts\": 25, \"cache_collisions\": 26, \"nodes_created\": 27, "
      "\"gc_runs\": 28, \"reorder_runs\": 29, \"reorder_swaps\": 30, "
      "\"reorder_nodes_saved\": 31, \"op_cache\": {\"and\": {\"hits\": 32, "
      "\"misses\": 33}, \"ite\": {\"hits\": 34, \"misses\": 0}}}, "
      "\"cache_hit_rate\": 0.958333}], \"events\": [{\"kind\": \"gc\", "
      "\"size_before\": 100, \"size_after\": 40, \"seconds\": 0.0625, "
      "\"automatic\": true}, {\"kind\": \"pressure\", \"size_before\": 900, "
      "\"size_after\": 300, \"seconds\": 0.03125, \"automatic\": false, "
      "\"rung\": \"cache-shrink\"}]}");
}

TEST(GoldenReport, TraceTable) {
  EXPECT_EQ(reach::traceTable("c17x", "topo", "BFV-Fig2", goldenTracedRun()),
      "c17x / topo / BFV-Fig2: done in 0.125s, 96 states, 2 iterations, "
      "peak 4321 live nodes, cache hit-rate 99.0%\n"
      "op cache: and 49.8% of 225, ite 100.0% of 114\n"
      " iter     frontier     nodes | "
      "   image  reparam    union    check  convert | "
      "     live      peak      steps  hit%\n"
      "    1            8         3 | "
      "  0.2500   0.1250   0.0000   0.0000   0.5000 | "
      "       40        50         12  92.9\n"
      "    2           16         6 | "
      "  0.5000   0.1250   0.0000   0.0000   0.5000 | "
      "       80       100         22  95.8\n"
      "events:\n"
      "  [gc] auto 100 -> 40 in 0.0625s\n"
      "  [pressure] 900 -> 300 in 0.0312s\n");
}

TEST(GoldenReport, JobsReportCoversEveryJobShape) {
  EXPECT_EQ(run::jobsReport("golden", 2, 1.5, goldenJobs()),
      "{\"batch\": \"golden\", \"workers\": 2, \"total_seconds\": 1.5, "
      "\"jobs_total\": 7, \"jobs_done\": 4, \"jobs_timeout\": 0, "
      "\"jobs_memout\": 0, \"jobs_cancelled\": 1, \"jobs_error\": 1, "
      "\"jobs_inconclusive\": 1, \"retries_used\": 1, "
      "\"jobs\": [{\"name\": \"data/fifo3.bench/bfv\", "
      "\"circuit\": \"data/fifo3.bench\", \"order\": \"topo\", "
      "\"engine\": \"bfv\", \"status\": \"done\", \"worker\": 0, "
      "\"queue_seconds\": 0.25, \"seconds\": 0.5, \"iterations\": 7, "
      "\"states\": 96, \"peak_live_nodes\": 4321, \"ops\": {\"top_ops\": 101, "
      "\"recursive_steps\": 102, \"cache_lookups\": 104, \"cache_hits\": 103, "
      "\"cache_inserts\": 105, \"cache_collisions\": 106, "
      "\"nodes_created\": 107, \"gc_runs\": 108, \"reorder_runs\": 109, "
      "\"reorder_swaps\": 110, \"reorder_nodes_saved\": 111, "
      "\"op_cache\": {\"and\": {\"hits\": 112, \"misses\": 113}, "
      "\"ite\": {\"hits\": 114, \"misses\": 0}}}, "
      "\"cache_hit_rate\": 0.990385}, {\"name\": \"cnt8-retry\", "
      "\"circuit\": \"gen:counter:8:200\", \"order\": \"natural\", "
      "\"engine\": \"bfv\", \"status\": \"done\", \"worker\": 1, "
      "\"queue_seconds\": 0.25, \"seconds\": 1, \"iterations\": 7, "
      "\"states\": 96, \"peak_live_nodes\": 4321, \"ops\": {\"top_ops\": 101, "
      "\"recursive_steps\": 102, \"cache_lookups\": 104, \"cache_hits\": 103, "
      "\"cache_inserts\": 105, \"cache_collisions\": 106, "
      "\"nodes_created\": 107, \"gc_runs\": 108, \"reorder_runs\": 109, "
      "\"reorder_swaps\": 110, \"reorder_nodes_saved\": 111, "
      "\"op_cache\": {\"and\": {\"hits\": 112, \"misses\": 113}, "
      "\"ite\": {\"hits\": 114, \"misses\": 0}}}, "
      "\"cache_hit_rate\": 0.990385, \"retries\": 1, "
      "\"attempts\": [{\"status\": \"M.O.\", \"seconds\": 0.25, "
      "\"message\": \"node budget 1000 exceeded (1200 live)\", "
      "\"faults_injected\": 2}, {\"status\": \"done\", \"seconds\": 0.75, "
      "\"escalation\": \"auto-reorder+ladder\", \"resumed\": true, "
      "\"faults_injected\": 1}]}, {\"name\": \"data/arb4.bench/tr\", "
      "\"circuit\": \"data/arb4.bench\", \"order\": \"topo\", "
      "\"engine\": \"tr\", \"status\": \"done\", \"worker\": 0, "
      "\"queue_seconds\": 0.25, \"seconds\": 0.5, \"iterations\": 7, "
      "\"states\": 96, \"peak_live_nodes\": 4321, \"ops\": {\"top_ops\": 101, "
      "\"recursive_steps\": 102, \"cache_lookups\": 104, \"cache_hits\": 103, "
      "\"cache_inserts\": 105, \"cache_collisions\": 106, "
      "\"nodes_created\": 107, \"gc_runs\": 108, \"reorder_runs\": 109, "
      "\"reorder_swaps\": 110, \"reorder_nodes_saved\": 111, "
      "\"op_cache\": {\"and\": {\"hits\": 112, \"misses\": 113}, "
      "\"ite\": {\"hits\": 114, \"misses\": 0}}}, "
      "\"cache_hit_rate\": 0.990385, \"group\": \"data/arb4.bench\", "
      "\"winner\": true}, {\"name\": \"data/arb4.bench/cbm\", "
      "\"circuit\": \"data/arb4.bench\", \"order\": \"topo\", "
      "\"engine\": \"cbm\", \"status\": \"cancelled\", \"worker\": 1, "
      "\"queue_seconds\": 0.25, \"seconds\": 0.5, \"iterations\": 7, "
      "\"states\": 96, \"peak_live_nodes\": 4321, \"ops\": {\"top_ops\": 101, "
      "\"recursive_steps\": 102, \"cache_lookups\": 104, \"cache_hits\": 103, "
      "\"cache_inserts\": 105, \"cache_collisions\": 106, "
      "\"nodes_created\": 107, \"gc_runs\": 108, \"reorder_runs\": 109, "
      "\"reorder_swaps\": 110, \"reorder_nodes_saved\": 111, "
      "\"op_cache\": {\"and\": {\"hits\": 112, \"misses\": 113}, "
      "\"ite\": {\"hits\": 114, \"misses\": 0}}}, "
      "\"cache_hit_rate\": 0.990385, \"group\": \"data/arb4.bench\", "
      "\"winner\": false, \"message\": \"cancelled\"}, "
      "{\"name\": \"nope.bench/bfv\", \"circuit\": \"nope.bench\", "
      "\"order\": \"topo\", \"engine\": \"bfv\", \"status\": \"error\", "
      "\"worker\": 0, \"queue_seconds\": 0.25, \"seconds\": 0.5, "
      "\"iterations\": 0, \"states\": 0, \"peak_live_nodes\": 0, "
      "\"ops\": {\"top_ops\": 0, \"recursive_steps\": 0, \"cache_lookups\": 0, "
      "\"cache_hits\": 0, \"cache_inserts\": 0, \"cache_collisions\": 0, "
      "\"nodes_created\": 0, \"gc_runs\": 0, \"reorder_runs\": 0, "
      "\"reorder_swaps\": 0, \"reorder_nodes_saved\": 0, \"op_cache\": {}}, "
      "\"cache_hit_rate\": 0, \"message\": \"cannot open nope.bench\"}, "
      "{\"name\": \"data/fifo3.bench/cdec\", "
      "\"circuit\": \"data/fifo3.bench\", \"order\": \"rand3\", "
      "\"engine\": \"cdec\", \"status\": \"done\", \"worker\": 1, "
      "\"queue_seconds\": 0.25, \"seconds\": 0.5, \"iterations\": 2, "
      "\"states\": 96, \"peak_live_nodes\": 4321, \"ops\": {\"top_ops\": 101, "
      "\"recursive_steps\": 102, \"cache_lookups\": 104, \"cache_hits\": 103, "
      "\"cache_inserts\": 105, \"cache_collisions\": 106, "
      "\"nodes_created\": 107, \"gc_runs\": 108, \"reorder_runs\": 109, "
      "\"reorder_swaps\": 110, \"reorder_nodes_saved\": 111, "
      "\"op_cache\": {\"and\": {\"hits\": 112, \"misses\": 113}, "
      "\"ite\": {\"hits\": 114, \"misses\": 0}}}, "
      "\"cache_hit_rate\": 0.990385, "
      "\"trace_report\": {\"circuit\": \"data/fifo3.bench\", "
      "\"order\": \"rand3\", \"engine\": \"cdec\", \"status\": \"done\", "
      "\"seconds\": 0.125, \"iterations\": 2, \"states\": 96, "
      "\"peak_live_nodes\": 4321, \"cache_hit_rate\": 0.990385, "
      "\"phase_totals\": {\"image\": 0.75, \"reparam\": 0.25, "
      "\"union\": 0.125, \"check\": 0, \"convert\": 1, \"other\": 0}, "
      "\"trace\": [{\"iteration\": 1, \"from\": \"reached\", "
      "\"frontier_states\": 8, \"frontier_nodes\": 3, "
      "\"phase_seconds\": {\"image\": 0.25, \"reparam\": 0.125, \"union\": 0, "
      "\"check\": 0, \"convert\": 0.5, \"other\": 0}, \"live_nodes\": 40, "
      "\"peak_nodes\": 50, \"ops_delta\": {\"top_ops\": 11, "
      "\"recursive_steps\": 12, \"cache_lookups\": 14, \"cache_hits\": 13, "
      "\"cache_inserts\": 15, \"cache_collisions\": 16, \"nodes_created\": 17, "
      "\"gc_runs\": 18, \"reorder_runs\": 19, \"reorder_swaps\": 20, "
      "\"reorder_nodes_saved\": 21, \"op_cache\": {\"and\": {\"hits\": 22, "
      "\"misses\": 23}, \"ite\": {\"hits\": 24, \"misses\": 0}}}, "
      "\"cache_hit_rate\": 0.928571}, {\"iteration\": 2, \"from\": \"chi\", "
      "\"frontier_states\": 16, \"frontier_nodes\": 6, "
      "\"phase_seconds\": {\"image\": 0.5, \"reparam\": 0.125, \"union\": 0, "
      "\"check\": 0, \"convert\": 0.5, \"other\": 0}, \"live_nodes\": 80, "
      "\"peak_nodes\": 100, \"ops_delta\": {\"top_ops\": 21, "
      "\"recursive_steps\": 22, \"cache_lookups\": 24, \"cache_hits\": 23, "
      "\"cache_inserts\": 25, \"cache_collisions\": 26, \"nodes_created\": 27, "
      "\"gc_runs\": 28, \"reorder_runs\": 29, \"reorder_swaps\": 30, "
      "\"reorder_nodes_saved\": 31, \"op_cache\": {\"and\": {\"hits\": 32, "
      "\"misses\": 33}, \"ite\": {\"hits\": 34, \"misses\": 0}}}, "
      "\"cache_hit_rate\": 0.958333}], \"events\": [{\"kind\": \"gc\", "
      "\"size_before\": 100, \"size_after\": 40, \"seconds\": 0.0625, "
      "\"automatic\": true}, {\"kind\": \"pressure\", \"size_before\": 900, "
      "\"size_after\": 300, \"seconds\": 0.03125, \"automatic\": false, "
      "\"rung\": \"cache-shrink\"}]}}, {\"name\": \"data/arb4.bench/lz\", "
      "\"circuit\": \"data/arb4.bench\", \"order\": \"topo\", "
      "\"engine\": \"lz\", \"status\": \"inconclusive\", \"worker\": 0, "
      "\"queue_seconds\": 0.25, \"seconds\": 0.5, \"iterations\": 7, "
      "\"states\": 96, \"peak_live_nodes\": 0, \"ops\": {\"top_ops\": 0, "
      "\"recursive_steps\": 0, \"cache_lookups\": 0, \"cache_hits\": 0, "
      "\"cache_inserts\": 0, \"cache_collisions\": 0, \"nodes_created\": 0, "
      "\"gc_runs\": 0, \"reorder_runs\": 0, \"reorder_swaps\": 0, "
      "\"reorder_nodes_saved\": 0, \"op_cache\": {}}, \"cache_hit_rate\": 0, "
      "\"message\": \"over-approximate: 3 lossy products\"}]}");
}

TEST(GoldenReport, StatsReplyOfAOneTenantServer) {
  // One done job through a one-tenant server, then the stats reply with no
  // optional section: its keys in order and its counters. Uptime, the
  // endpoint and the per-tenant seconds are masked.
  const std::string sock =
      "/tmp/bfvr_golden_" + std::to_string(::getpid()) + ".sock";
  svc::Server::Options o;
  o.endpoint = "unix:" + sock;
  o.workers = 1;
  o.tenants = svc::parseTenantsString("alpha:1\n");
  o.spool_dir = test::processDir();
  o.name = "golden";
  svc::Server server(o);
  server.start();
  {
    svc::Client client("unix:" + sock, "alpha");
    const std::optional<std::uint64_t> job =
        client.awaitAdmission(client.submit("circuit=gen:counter:5:20"));
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(client.awaitDone(*job).status, "done");
    client.bye();
  }
  const std::regex wall(
      "\"(seconds|endpoint|queue_seconds|exec_seconds)\": "
      "(\"[^\"]*\"|[-0-9.e+]+)");
  EXPECT_EQ(std::regex_replace(server.statsJson(0), wall, "\"$1\": _"),
      "{\"server\": \"golden\", \"endpoint\": _, \"workers\": 1, "
      "\"seconds\": _, \"sessions\": 1, \"dispatches\": 1, "
      "\"jobs_submitted\": 1, \"jobs_rejected\": 0, \"jobs_done\": 1, "
      "\"jobs_timeout\": 0, \"jobs_memout\": 0, \"jobs_cancelled\": 0, "
      "\"jobs_error\": 0, \"jobs_inconclusive\": 0, \"evictions\": 0, "
      "\"resumes\": 0, \"warm_hits\": 0, \"warm_misses\": 1, "
      "\"resets_failed\": 0, \"leaked_nodes\": 0, \"queue_depth\": 0, "
      "\"running\": 0, \"tenants\": [{\"tenant\": \"alpha\", \"weight\": 1, "
      "\"submitted\": 1, \"rejected\": 0, \"done\": 1, \"timeout\": 0, "
      "\"memout\": 0, \"cancelled\": 0, \"error\": 0, \"inconclusive\": 0, "
      "\"evictions\": 0, \"resumes\": 0, \"queue_seconds\": _, "
      "\"exec_seconds\": _}]}");
  server.requestShutdown(true);
  server.waitStopped();
}

}  // namespace
}  // namespace bfvr

// The job runner (src/run): cooperative interruption at the manager's poll
// points (apply, GC, sifting) leaving the manager usable, job execution
// with deadlines / cancellation / budgets folded into RunStatus, the
// worker pool, portfolio races, and the manifest grammar.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bfv/bfv.hpp"
#include "io/checkpoint.hpp"
#include "run/manifest.hpp"
#include "run/run.hpp"
#include "support/brute.hpp"
#include "support/fault_points.hpp"
#include "support/forge_count.hpp"
#include "support/process_dir.hpp"
#include "sym/simulate.hpp"
#include "sym/space.hpp"

namespace bfvr::run {
namespace {

using bdd::Bdd;
using bdd::Interrupted;
using bdd::Manager;
using reach::Engine;
using test::bddFromTruth;
using test::randomTruth;
using test::truthOf;

/// Builds random functions until the manager's allocation-stride poll
/// fires (or the build budget runs out, which fails the test).
void buildUntilInterrupt(Manager& m) {
  Rng rng(17);
  const std::vector<unsigned> vars{0, 1, 2, 3, 4, 5};
  std::vector<Bdd> keep;
  EXPECT_THROW(
      {
        for (int i = 0; i < 500; ++i) {
          keep.push_back(bddFromTruth(m, vars, randomTruth(rng, 6)));
        }
      },
      Interrupted);
}

TEST(RunInterrupt, DuringApplyLeavesManagerUsable) {
  Manager m(8);
  bool armed = true;
  m.setInterruptCheck([&armed] {
    if (armed) throw Interrupted(Interrupted::Reason::kCancelled);
  });
  buildUntilInterrupt(m);
  // Disarmed, the same manager keeps working: builds, evaluation, GC.
  armed = false;
  Rng rng(4);
  const std::vector<unsigned> vars{0, 1, 2, 3, 4, 5};
  const std::uint64_t tt = randomTruth(rng, 6);
  Bdd f = bddFromTruth(m, vars, tt);
  EXPECT_EQ(truthOf(m, f, vars), tt);
  m.gc();
  EXPECT_EQ(truthOf(m, f, vars), tt);
}

TEST(RunInterrupt, DuringGcLeavesManagerUsable) {
  Manager m(8);
  Bdd keep = (m.var(0) & m.var(1)) | m.var(2);
  bool armed = true;
  m.setInterruptCheck([&armed] {
    if (armed) throw Interrupted(Interrupted::Reason::kDeadline);
  });
  // gc() polls on entry, before touching any node.
  EXPECT_THROW(m.gc(), Interrupted);
  EXPECT_THROW(m.maybeGc(), Interrupted);
  armed = false;
  m.gc();
  EXPECT_EQ(keep, (m.var(0) & m.var(1)) | m.var(2));
}

TEST(RunInterrupt, DuringSiftLeavesManagerUsable) {
  Manager m(12);
  // Badly ordered and-or: sifting has many block swaps to do, so an
  // interrupt lands mid-pass.
  Bdd f = m.zero();
  for (unsigned i = 0; i < 6; ++i) f |= m.var(i) & m.var(i + 6);
  int polls_left = 3;
  m.setInterruptCheck([&polls_left] {
    if (--polls_left < 0) throw Interrupted(Interrupted::Reason::kCancelled);
  });
  EXPECT_THROW(m.reorder(bdd::ReorderMethod::kSift), Interrupted);
  // The pass stopped between two complete adjacent-level swaps: the order
  // is consistent and every handle still denotes its function.
  m.setInterruptCheck({});
  for (std::uint32_t a = 0; a < (1U << 12); ++a) {
    std::vector<bool> values(12);
    bool expect = false;
    for (unsigned i = 0; i < 12; ++i) values[i] = ((a >> i) & 1U) != 0;
    for (unsigned i = 0; i < 6; ++i) expect |= values[i] && values[i + 6];
    ASSERT_EQ(m.eval(f, values), expect) << "assignment " << a;
  }
  // And a fresh full pass still converges to the small form.
  m.reorder(bdd::ReorderMethod::kSift);
  EXPECT_LT(f.nodeCount(), 50U);
}

TEST(RunInterrupt, PollsSkippedWhileReordering) {
  // The allocation-stride poll is suppressed during a swap (nodes are
  // mid-rewrite); only the between-swaps poll point may fire. A check
  // that only counts must therefore see far fewer calls than allocations.
  Manager m(12);
  Bdd f = m.zero();
  for (unsigned i = 0; i < 6; ++i) f |= m.var(i) & m.var(i + 6);
  const std::vector<unsigned> vars{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  int calls = 0;
  m.setInterruptCheck([&calls] { ++calls; });
  m.reorder(bdd::ReorderMethod::kSift);
  EXPECT_GT(calls, 0);  // the between-swaps point did poll
  EXPECT_LT(f.nodeCount(), 50U);  // and a non-throwing check is harmless
}

TEST(RunJob, CompletesSmallCircuit) {
  JobSpec spec;
  spec.circuit = "gen:johnson:8";
  spec.engine = Engine::kBfv;
  const JobResult r = executeJob(spec);
  EXPECT_EQ(r.status, RunStatus::kDone);
  EXPECT_EQ(r.reach.states, 16.0);
  EXPECT_EQ(r.reach.iterations, 16U);
  // The reached-set handles were dropped with the job's manager (a BFV job
  // returns the vector, which is the handle to check).
  EXPECT_FALSE(r.reach.reached_bfv.has_value());
  EXPECT_TRUE(r.reach.reached_chi.isNull());
}

TEST(RunJob, DeadlineTimesOut) {
  JobSpec spec;
  spec.circuit = "gen:counter:26:67108864";  // ~67M iterations: unreachable
  spec.engine = Engine::kTr;
  spec.deadline_seconds = 0.2;
  const JobResult r = executeJob(spec);
  EXPECT_EQ(r.status, RunStatus::kTimeOut);
  EXPECT_LT(r.seconds, 30.0);  // fired near the deadline, not at the end
}

TEST(RunJob, PreCancelledTokenCancels) {
  CancelToken token;
  token.cancel();
  JobSpec spec;
  spec.circuit = "gen:counter:20:1048576";
  spec.engine = Engine::kTr;
  const JobResult r = executeJob(spec, &token);
  EXPECT_EQ(r.status, RunStatus::kCancelled);
}

TEST(RunJob, BadSpecsFoldToErrorStatus) {
  JobSpec spec;
  spec.circuit = "gen:nosuchkind:3";
  JobResult r = executeJob(spec);
  EXPECT_EQ(r.status, RunStatus::kError);
  EXPECT_FALSE(r.message.empty());

  spec.circuit = "/nonexistent/path.bench";
  r = executeJob(spec);
  EXPECT_EQ(r.status, RunStatus::kError);
  EXPECT_FALSE(r.message.empty());

  // Generator arguments are whole numbers: "4x" is not a 4.
  spec.circuit = "gen:counter:4x:10";
  r = executeJob(spec);
  EXPECT_EQ(r.status, RunStatus::kError);
  EXPECT_NE(r.message.find("'4x'"), std::string::npos) << r.message;
}

TEST(RunJob, TinyManagerBudgetIsMemOut) {
  JobSpec spec;
  spec.circuit = "gen:crc:8";
  spec.engine = Engine::kCbm;
  spec.mgr.max_nodes = 64;  // setup itself blows this
  const JobResult r = executeJob(spec);
  EXPECT_EQ(r.status, RunStatus::kMemOut);
  // The failure reason is reported, not swallowed: budget and node count.
  EXPECT_FALSE(r.message.empty());
  EXPECT_NE(r.message.find("nodes"), std::string::npos) << r.message;
  ASSERT_EQ(r.attempts.size(), 1U);
  EXPECT_EQ(r.attempts[0].status, RunStatus::kMemOut);
  EXPECT_EQ(r.retriesUsed(), 0U);
}

TEST(RunJob, TimeOutCarriesAMessage) {
  JobSpec spec;
  spec.circuit = "gen:counter:26:67108864";
  spec.engine = Engine::kTr;
  spec.deadline_seconds = 0.2;
  const JobResult r = executeJob(spec);
  ASSERT_EQ(r.status, RunStatus::kTimeOut);
  EXPECT_FALSE(r.message.empty());
}

TEST(RunJob, OpCountsMatchDirectRun) {
  JobSpec spec;
  spec.circuit = "gen:johnson:8";
  spec.engine = Engine::kBfv;
  const JobResult viaJob = executeJob(spec);
  ASSERT_EQ(viaJob.status, RunStatus::kDone);

  const circuit::Netlist n = resolveCircuit(spec.circuit);
  Manager m(0);
  sym::StateSpace s(m, n, circuit::makeOrder(n, spec.order));
  const reach::ReachResult direct = reach::reachBfv(s, spec.opts);

  // The runner adds scheduling and interrupt plumbing but must not perturb
  // the computation: identical op counters, iteration and state counts.
  EXPECT_EQ(viaJob.reach.iterations, direct.iterations);
  EXPECT_EQ(viaJob.reach.states, direct.states);
  EXPECT_EQ(viaJob.reach.peak_live_nodes, direct.peak_live_nodes);
  EXPECT_EQ(viaJob.reach.ops.top_ops, direct.ops.top_ops);
  EXPECT_EQ(viaJob.reach.ops.recursive_steps, direct.ops.recursive_steps);
  EXPECT_EQ(viaJob.reach.ops.cache_lookups, direct.ops.cache_lookups);
  EXPECT_EQ(viaJob.reach.ops.cache_hits, direct.ops.cache_hits);
  EXPECT_EQ(viaJob.reach.ops.nodes_created, direct.ops.nodes_created);
}

TEST(RunPool, RunsJobsAcrossWorkers) {
  WorkerPool pool(2);
  EXPECT_EQ(pool.workers(), 2U);
  const char* circuits[] = {"gen:johnson:8", "gen:gray:6", "gen:lfsr:8",
                            "gen:twinshift:6"};
  std::vector<std::future<JobResult>> futs;
  for (const char* c : circuits) {
    JobSpec spec;
    spec.circuit = c;
    spec.engine = Engine::kBfv;
    futs.push_back(pool.submit(std::move(spec)));
  }
  for (auto& f : futs) {
    const JobResult r = f.get();
    EXPECT_EQ(r.status, RunStatus::kDone) << r.message;
    EXPECT_LT(r.worker, 2U);
    EXPECT_GE(r.queue_seconds, 0.0);
  }
}

TEST(RunPool, CancelStopsRunningJobQuickly) {
  WorkerPool pool(1);
  JobSpec spec;
  spec.circuit = "gen:counter:26:67108864";  // would run ~forever
  spec.engine = Engine::kTr;
  auto token = std::make_shared<CancelToken>();
  std::future<JobResult> fut = pool.submit(spec, token);
  // Let the job get well into its fixpoint loop, then pull the plug. The
  // engines poll at least once per iteration (the maybeGc safe point), so
  // the latency bound is one iteration, far below the seconds granted.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  token->cancel();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(20)),
            std::future_status::ready);
  const JobResult r = fut.get();
  EXPECT_EQ(r.status, RunStatus::kCancelled);
}

TEST(RunPortfolio, WinnerCancelsLosers) {
  WorkerPool pool(3);
  JobSpec base;
  base.name = "cnt13";
  base.circuit = "gen:counter:13:8192";  // 8192 iterations: ~a second, not ms
  const Engine engines[] = {Engine::kTr, Engine::kBfv,
                                Engine::kCbm};
  const PortfolioResult race = runPortfolio(pool, base, engines);
  ASSERT_EQ(race.jobs.size(), 3U);
  ASSERT_NE(race.winner, -1);
  EXPECT_EQ(race.jobs[race.winner].status, RunStatus::kDone);
  EXPECT_EQ(race.jobs[race.winner].reach.states, 8192.0);
  // Cancellation is prompt: a cancelled loser stopped well short of the
  // 32768 iterations it would have needed to finish on its own.
  for (int i = 0; i < 3; ++i) {
    if (i == race.winner) continue;
    EXPECT_TRUE(race.jobs[i].status == RunStatus::kCancelled ||
                race.jobs[i].status == RunStatus::kDone);
    if (race.jobs[i].status == RunStatus::kCancelled) {
      EXPECT_LT(race.jobs[i].reach.iterations, 8192U);
    }
  }
}

TEST(RunPortfolio, NoWinnerWhenAllTimeOut) {
  WorkerPool pool(2);
  JobSpec base;
  base.circuit = "gen:counter:26:67108864";
  base.deadline_seconds = 0.2;
  const Engine engines[] = {Engine::kTr, Engine::kBfv};
  const PortfolioResult race = runPortfolio(pool, base, engines);
  ASSERT_EQ(race.jobs.size(), 2U);
  EXPECT_EQ(race.winner, -1);
  for (const JobResult& r : race.jobs) {
    EXPECT_EQ(r.status, RunStatus::kTimeOut);
  }
}

TEST(RunManifest, ParsesKeysAndPortfolio) {
  const std::string text =
      "# a comment line\n"
      "circuit=data/a.bench name=a engine=cbm order=random:7 deadline=1.5\n"
      "\n"
      "circuit=gen:johnson:8 portfolio=tr,bfv trace=1 nodes=5000 "
      "max-nodes=100000  # trailing comment\n";
  const std::vector<ManifestEntry> entries = parseManifestString(text);
  ASSERT_EQ(entries.size(), 2U);
  EXPECT_EQ(entries[0].spec.name, "a");
  EXPECT_EQ(entries[0].spec.circuit, "data/a.bench");
  EXPECT_EQ(entries[0].spec.engine, Engine::kCbm);
  EXPECT_EQ(entries[0].spec.order.kind, circuit::OrderKind::kRandom);
  EXPECT_EQ(entries[0].spec.order.seed, 7U);
  EXPECT_EQ(entries[0].spec.deadline_seconds, 1.5);
  EXPECT_TRUE(entries[0].portfolio.empty());
  EXPECT_EQ(entries[1].portfolio,
            (std::vector<Engine>{Engine::kTr, Engine::kBfv}));
  EXPECT_TRUE(entries[1].spec.opts.trace);
  EXPECT_EQ(entries[1].spec.opts.budget.max_live_nodes, 5000U);
  EXPECT_EQ(entries[1].spec.mgr.max_nodes, 100000U);
}

TEST(RunManifest, ErrorsCarryLineNumbers) {
  EXPECT_THROW(parseManifestString("circuit=a.bench\nbogus\n"),
               std::runtime_error);
  EXPECT_THROW(parseManifestString("name=x engine=bfv\n"),  // no circuit=
               std::runtime_error);
  EXPECT_THROW(parseManifestString("circuit=a.bench engine=warp\n"),
               std::runtime_error);
  try {
    parseManifestString("circuit=ok.bench\n\ncircuit=b.bench order=bad\n");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(RunManifest, ErrorsNameTheOffendingKey) {
  // A bad value must point at the key AND the line, so a 500-line manifest
  // (or a service Rejected frame) is debuggable from the message alone.
  try {
    parseManifestString("circuit=a.bench\ncircuit=b.bench nodes=abc\n");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("key 'nodes'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'abc'"), std::string::npos) << msg;
  }
  try {
    parseManifestString("circuit=a.bench deadline=fast\n");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("key 'deadline'"), std::string::npos) << msg;
  }
  // Unknown keys, threads= among them (the BDD kernel has no thread
  // setting), and durations that are not finite and >= 0, which would
  // otherwise silently mean "none".
  const std::pair<const char*, const char*> bad[] = {
      {"frobnicate=1", "unknown key 'frobnicate'"},
      {"threads=4", "unknown key 'threads'"},
      {"deadline=-1", "key 'deadline'"},
      {"seconds=nan", "key 'seconds'"},
      {"backoff=inf", "key 'backoff'"},
  };
  for (const auto& [token, want] : bad) {
    try {
      parseManifestString(std::string("circuit=a.bench ") + token + "\n");
      FAIL() << "expected a parse error for " << token;
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(want), std::string::npos) << msg;
    }
  }
}

TEST(RunManifest, DuplicateKeysAreRejectedNamingBothOccurrences) {
  // Silent last-wins turns `deadline=30 ... deadline=5` into a hidden bug
  // in a long sweep row; the parser must name the line and both values.
  try {
    parseManifestString(
        "circuit=a.bench\n"
        "circuit=b.bench deadline=30 engine=bfv deadline=5\n");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("duplicate key 'deadline'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("deadline=30"), std::string::npos) << msg;
    EXPECT_NE(msg.find("deadline=5"), std::string::npos) << msg;
  }
  // Even an identical repeated value is a duplicate (likely a copy-paste
  // slip worth surfacing).
  EXPECT_THROW(parseManifestString("circuit=a.bench name=x name=x\n"),
               std::runtime_error);
  // The duplicate check is per line: the same key on different lines is
  // of course fine, and distinct keys on one line still parse.
  const std::vector<ManifestEntry> entries = parseManifestString(
      "circuit=a.bench deadline=1\ncircuit=b.bench deadline=2\n");
  ASSERT_EQ(entries.size(), 2U);
  EXPECT_EQ(entries[0].spec.deadline_seconds, 1.0);
  EXPECT_EQ(entries[1].spec.deadline_seconds, 2.0);
}

TEST(RunManifest, ParsesShippedSmokeManifest) {
  const std::vector<ManifestEntry> entries =
      parseManifestFile(BFVR_DATA_DIR "/ci_smoke.manifest");
  ASSERT_EQ(entries.size(), 3U);
  EXPECT_EQ(entries[0].spec.name, "smoke-johnson8");
  EXPECT_EQ(entries[1].spec.engine, Engine::kTr);
  EXPECT_EQ(entries[1].spec.deadline_seconds, 0.5);
}

// ---------------------------------------------------------------------------
// Retry escalation, fault plans and checkpoint-resuming retries.
// ---------------------------------------------------------------------------

/// A budget that a plain run (no GC pressure relief, garbage accumulating
/// in the table) blows, but a governed/escalated run fits: 1.5x the
/// reference run's live-node peak.
std::size_t tightBudgetFor(const char* circuit) {
  JobSpec probe;
  probe.circuit = circuit;
  probe.engine = Engine::kBfv;
  const JobResult ref = executeJob(probe);
  EXPECT_EQ(ref.status, RunStatus::kDone);
  return ref.reach.peak_live_nodes * 3 / 2;
}

TEST(RunRetry, EscalationClimbsTheLadderToSuccess) {
  const char* circuit = "gen:counter:8:200";
  JobSpec spec;
  spec.circuit = circuit;
  spec.engine = Engine::kBfv;
  spec.mgr.max_nodes = tightBudgetFor(circuit);

  // Sanity: without retries, the tight budget is fatal.
  const JobResult plain = executeJob(spec);
  ASSERT_EQ(plain.status, RunStatus::kMemOut) << plain.message;

  spec.retry.max_attempts = 6;
  const JobResult r = executeJob(spec);
  ASSERT_EQ(r.status, RunStatus::kDone) << r.message;
  EXPECT_EQ(r.reach.states, 200.0);
  EXPECT_TRUE(r.message.empty());
  ASSERT_GE(r.attempts.size(), 2U);
  EXPECT_GE(r.retriesUsed(), 1U);
  // Escalation steps are applied cumulatively, in the documented order,
  // and every attempt but the last ended out-of-nodes.
  const char* expected[] = {"", "auto-reorder+ladder", "cache-shrink",
                            "raise-budget", "raise-budget", "raise-budget"};
  for (std::size_t i = 0; i < r.attempts.size(); ++i) {
    EXPECT_EQ(r.attempts[i].escalation, expected[i]) << "attempt " << i;
    EXPECT_EQ(r.attempts[i].status, i + 1 == r.attempts.size()
                                        ? RunStatus::kDone
                                        : RunStatus::kMemOut)
        << "attempt " << i;
  }
}

TEST(RunRetry, ResumesFromTheLatestCheckpoint) {
  const char* circuit = "gen:counter:8:200";
  const std::string path = test::processDir() + "/bfvr_retry_resume.bin";
  std::remove(path.c_str());
  JobSpec spec;
  spec.circuit = circuit;
  spec.engine = Engine::kBfv;
  spec.mgr.max_nodes = tightBudgetFor(circuit);
  spec.retry.max_attempts = 6;
  spec.opts.checkpoint_every = 1;
  spec.opts.checkpoint_path = path;

  const JobResult r = executeJob(spec);
  ASSERT_EQ(r.status, RunStatus::kDone) << r.message;
  EXPECT_EQ(r.reach.states, 200.0);
  ASSERT_GE(r.attempts.size(), 2U);
  // The first attempt got far enough to snapshot, so at least one retry
  // restarted from the file rather than from the initial state.
  bool any_resumed = false;
  for (const AttemptRecord& a : r.attempts) any_resumed |= a.resumed;
  EXPECT_TRUE(any_resumed);
  std::remove(path.c_str());
}

TEST(RunRetry, NoRetryOnTimeouts) {
  JobSpec spec;
  spec.circuit = "gen:counter:26:67108864";
  spec.engine = Engine::kTr;
  spec.deadline_seconds = 0.2;
  spec.retry.max_attempts = 4;  // must be ignored: a timeout repeats
  const JobResult r = executeJob(spec);
  EXPECT_EQ(r.status, RunStatus::kTimeOut);
  EXPECT_EQ(r.attempts.size(), 1U);
}

TEST(RunFaults, InjectedAllocationFailureFoldsToMemOut) {
  JobSpec spec;
  spec.circuit = "gen:counter:8:200";
  spec.engine = Engine::kBfv;
  spec.faults.alloc_failures = {test::kCounter8m200MidRunAlloc};
  const JobResult r = executeJob(spec);
  ASSERT_EQ(r.status, RunStatus::kMemOut);
  EXPECT_NE(r.message.find("injected"), std::string::npos) << r.message;
  ASSERT_EQ(r.attempts.size(), 1U);
  EXPECT_EQ(r.attempts[0].faults_injected, 1U);
}

TEST(RunFaults, WorkerSurvivesInjectedFaultsAndRunsTheNextJob) {
  // Regression: a failed or interrupted attempt must release its manager
  // and leave the worker able to complete subsequent jobs.
  WorkerPool pool(1);

  JobSpec crash;
  crash.circuit = "gen:counter:8:200";
  crash.engine = Engine::kBfv;
  crash.faults.alloc_failures = {test::kCounter8m200MidRunAlloc};
  std::future<JobResult> f1 = pool.submit(crash);

  JobSpec interrupt;  // spurious interrupt at a GC/poll boundary
  interrupt.circuit = "gen:counter:8:200";
  interrupt.engine = Engine::kBfv;
  interrupt.faults.spurious_interrupts = {2};
  std::future<JobResult> f2 = pool.submit(interrupt);

  JobSpec clean;
  clean.circuit = "gen:johnson:8";
  clean.engine = Engine::kBfv;
  std::future<JobResult> f3 = pool.submit(clean);

  const JobResult r1 = f1.get();
  EXPECT_EQ(r1.status, RunStatus::kMemOut);
  EXPECT_EQ(r1.attempts[0].faults_injected, 1U);
  const JobResult r2 = f2.get();
  EXPECT_EQ(r2.status, RunStatus::kCancelled);
  EXPECT_EQ(r2.attempts[0].faults_injected, 1U);
  // The same (sole) worker completes the clean job afterwards.
  const JobResult r3 = f3.get();
  EXPECT_EQ(r3.status, RunStatus::kDone) << r3.message;
  EXPECT_EQ(r3.reach.states, 16.0);
  EXPECT_EQ(r1.worker, 0U);
  EXPECT_EQ(r3.worker, 0U);
}

TEST(RunManifest, ParsesRobustnessKeys) {
  const std::vector<ManifestEntry> entries = parseManifestString(
      "circuit=gen:johnson:8 ladder=1 cache-bits=16 retries=4 backoff=0.5 "
      "budget-growth=3 checkpoint-every=5 checkpoint-path=ck.bin "
      "fault-allocs=10,20 fault-polls=7\n");
  ASSERT_EQ(entries.size(), 1U);
  const JobSpec& j = entries[0].spec;
  EXPECT_TRUE(j.mgr.pressure_ladder.enabled);
  EXPECT_EQ(j.mgr.cache_bits, 16U);
  EXPECT_EQ(j.retry.max_attempts, 4U);
  EXPECT_EQ(j.retry.backoff_seconds, 0.5);
  EXPECT_EQ(j.retry.node_budget_growth, 3.0);
  EXPECT_EQ(j.opts.checkpoint_every, 5U);
  EXPECT_EQ(j.opts.checkpoint_path, "ck.bin");
  EXPECT_EQ(j.faults.alloc_failures,
            (std::vector<std::uint64_t>{10, 20}));
  EXPECT_EQ(j.faults.spurious_interrupts, (std::vector<std::uint64_t>{7}));
  EXPECT_THROW(parseManifestString("circuit=a.bench fault-allocs=\n"),
               std::runtime_error);
  EXPECT_THROW(parseManifestString("circuit=a.bench ladder=2\n"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Warm manager reuse, in-memory resume images and worker steering — the
// serving layer's building blocks.
// ---------------------------------------------------------------------------

TEST(RunWarm, CacheReusesAManagerAndStaysBitIdentical) {
  JobSpec spec;
  spec.circuit = "gen:counter:6:40";
  spec.engine = Engine::kBfv;
  const JobResult cold = executeJob(spec);
  ASSERT_EQ(cold.status, RunStatus::kDone);

  ManagerCache cache;
  const JobResult first = executeJob(spec, nullptr, &cache);
  const JobResult second = executeJob(spec, nullptr, &cache);
  EXPECT_EQ(cache.stats().misses, 1U);  // only the first build was cold
  EXPECT_EQ(cache.stats().hits, 1U);
  EXPECT_EQ(cache.stats().resets_failed, 0U);
  EXPECT_EQ(cache.stats().leaked_nodes, 0U);
  // Warm reuse is purely a cold-start saving: results are bit-identical.
  for (const JobResult* r : {&first, &second}) {
    EXPECT_EQ(r->status, RunStatus::kDone);
    EXPECT_EQ(r->reach.states, cold.reach.states);
    EXPECT_EQ(r->reach.iterations, cold.reach.iterations);
    EXPECT_EQ(r->reach.peak_live_nodes, cold.reach.peak_live_nodes);
  }
}

TEST(RunWarm, CacheReconfiguresBetweenDifferentJobs) {
  ManagerCache cache;
  JobSpec a;
  a.circuit = "gen:counter:5:20";
  JobSpec b;
  b.circuit = "gen:johnson:8";  // different variable count entirely
  const JobResult ra = executeJob(a, nullptr, &cache);
  const JobResult rb = executeJob(b, nullptr, &cache);
  EXPECT_EQ(ra.status, RunStatus::kDone);
  EXPECT_EQ(rb.status, RunStatus::kDone);
  EXPECT_EQ(cache.stats().hits, 1U);
  const JobResult fresh = executeJob(b);
  EXPECT_EQ(rb.reach.states, fresh.reach.states);
  EXPECT_EQ(rb.reach.iterations, fresh.reach.iterations);
}

TEST(RunResume, InMemoryImageContinuesBitIdentically) {
  // Run to completion once for the reference, then snapshot an interrupted
  // run into an in-memory image (no filesystem) and resume from it.
  JobSpec ref;
  ref.circuit = "gen:counter:8:200";
  const JobResult full = executeJob(ref);
  ASSERT_EQ(full.status, RunStatus::kDone);

  const std::string ckpt = test::processDir() + "/bfvr_run_image_test.ckpt";
  JobSpec half = ref;
  half.opts.checkpoint_path = ckpt;
  half.opts.checkpoint_every = 1;
  half.opts.max_iterations = 50;  // stop mid-fixpoint (still kDone)
  const JobResult cut = executeJob(half);
  ASSERT_EQ(cut.status, RunStatus::kDone);
  ASSERT_LT(cut.reach.states, full.reach.states);

  // Lift the snapshot into memory, delete the file, resume purely from the
  // image — the migration path a checkpoint file never travels.
  std::ifstream in(ckpt, std::ios::binary);
  ASSERT_TRUE(in.good());
  auto image = std::make_shared<std::vector<std::uint8_t>>(
      std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  in.close();
  std::remove(ckpt.c_str());
  ASSERT_FALSE(image->empty());

  JobSpec resumed = ref;
  resumed.resume_image = image;
  const JobResult r = executeJob(resumed);
  EXPECT_EQ(r.status, RunStatus::kDone);
  EXPECT_EQ(r.reach.states, full.reach.states);
  EXPECT_EQ(r.reach.iterations, full.reach.iterations);
  ASSERT_FALSE(r.attempts.empty());
  EXPECT_TRUE(r.attempts.front().resumed);
}

/// An iteration-0 "tr" checkpoint of `s`: reached = frontier = the initial
/// state in chi form, exactly where a fresh TR run starts.
io::Checkpoint initialChiCheckpoint(const sym::StateSpace& s) {
  io::Checkpoint c;
  c.engine = "tr";
  c.level2var = s.manager().currentOrder();
  c.reached = c.frontier = {sym::initialChar(s)};
  return c;
}

TEST(RunResume, CorruptImageFallsBackToAFreshRun) {
  JobSpec spec;  // a bfv job
  spec.circuit = "gen:counter:5:20";
  // Junk bytes, then images that pass the CRC but that no bfv job can
  // continue: another engine's checkpoint, a root count that is not the
  // choice-variable count, and choice variables that are not the
  // current-state bank.
  std::vector<std::vector<std::uint8_t>> images{
      std::vector<std::uint8_t>(64, 0x5A)};
  {
    Manager m(0);
    const circuit::Netlist n = resolveCircuit(spec.circuit);
    sym::StateSpace s(m, n, circuit::makeOrder(n, spec.order));
    io::Checkpoint c = initialChiCheckpoint(s);
    images.push_back(io::encode(c));
    const std::vector<Bdd> init =
        bfv::Bfv::point(m, s.currentVars(), s.initialBits()).comps();
    c.engine = "bfv";
    c.kind = io::RootKind::kBfv;
    c.choice_vars = s.currentVars();
    c.reached = c.frontier = std::vector<Bdd>(init.begin(), init.end() - 1);
    images.push_back(io::encode(c));
    c.choice_vars = s.paramVars();
    c.reached = c.frontier = init;
    images.push_back(io::encode(c));
  }
  for (std::size_t i = 0; i < images.size(); ++i) {
    spec.resume_image =
        std::make_shared<std::vector<std::uint8_t>>(std::move(images[i]));
    const JobResult r = executeJob(spec);
    // The fixpoint is the same either way; only the recomputation differs.
    EXPECT_EQ(r.status, RunStatus::kDone) << "image " << i << ": " << r.message;
    EXPECT_EQ(r.reach.states, 20.0) << "image " << i;
    ASSERT_FALSE(r.attempts.empty());
    EXPECT_FALSE(r.attempts.front().resumed) << "image " << i;
  }
}

TEST(RunResume, TagThatNamesNoBddEngineMeansAFreshRun) {
  // The images Resume.TagThatNamesNoBddEngineThrowsIoError rejects, as a
  // bfv job's resume image: each one means a fresh run.
  JobSpec spec;
  spec.circuit = "gen:counter:5:20";
  for (const char* tag : {"lz", "tr-mono", "warp", ""}) {
    {
      Manager m(0);
      const circuit::Netlist n = resolveCircuit(spec.circuit);
      sym::StateSpace s(m, n, circuit::makeOrder(n, spec.order));
      io::Checkpoint c = initialChiCheckpoint(s);
      c.engine = tag;
      spec.resume_image =
          std::make_shared<std::vector<std::uint8_t>>(io::encode(c));
    }
    const JobResult r = executeJob(spec);
    EXPECT_EQ(r.status, RunStatus::kDone) << "'" << tag << "': " << r.message;
    EXPECT_EQ(r.reach.states, 20.0) << "'" << tag << "'";
    ASSERT_FALSE(r.attempts.empty());
    EXPECT_FALSE(r.attempts.front().resumed) << "'" << tag << "'";
  }
}

TEST(RunResume, ForgedCountImageFallsBackToAFreshRun) {
  // An iteration-0 image this bfv job could continue, with one count field
  // forged to 2^30 items and the CRC recomputed. Decoding it is an io::Error
  // (each count is checked against the bytes left), so the job runs fresh
  // and ends done with the clean run's states, not kError.
  JobSpec spec;
  spec.circuit = "gen:counter:5:20";
  const JobResult clean = executeJob(spec);
  ASSERT_EQ(clean.status, RunStatus::kDone);
  std::vector<std::uint8_t> image;
  {
    Manager m(0);
    const circuit::Netlist n = resolveCircuit(spec.circuit);
    sym::StateSpace s(m, n, circuit::makeOrder(n, spec.order));
    io::Checkpoint c;
    c.engine = "bfv";
    c.kind = io::RootKind::kBfv;
    c.level2var = m.currentOrder();
    c.choice_vars = s.currentVars();
    c.reached = c.frontier =
        bfv::Bfv::point(m, s.currentVars(), s.initialBits()).comps();
    image = io::encode(c);
  }
  spec.resume_image = std::make_shared<std::vector<std::uint8_t>>(image);
  const JobResult resumed = executeJob(spec);
  ASSERT_FALSE(resumed.attempts.empty());
  EXPECT_TRUE(resumed.attempts.front().resumed);  // the unforged image resumes
  for (const test::CheckpointCount which :
       {test::CheckpointCount::kLevel2Var, test::CheckpointCount::kChoiceVars,
        test::CheckpointCount::kNodes, test::CheckpointCount::kReached,
        test::CheckpointCount::kFrontier}) {
    auto forged = std::make_shared<std::vector<std::uint8_t>>(image);
    test::forgeCount(*forged, which, 0x40000000);
    spec.resume_image = forged;
    const JobResult r = executeJob(spec);
    const int count = static_cast<int>(which);
    EXPECT_EQ(r.status, RunStatus::kDone)
        << "count " << count << ": " << r.message;
    EXPECT_EQ(r.reach.states, clean.reach.states) << "count " << count;
    EXPECT_EQ(r.reach.iterations, clean.reach.iterations) << "count " << count;
    ASSERT_FALSE(r.attempts.empty());
    EXPECT_FALSE(r.attempts.front().resumed) << "count " << count;
  }
}

TEST(RunResume, ImageWhoseOrderRepeatsAVariableFallsBackToAFreshRun) {
  // An iteration-0 image this bfv job could continue, except that its
  // variable order names variable level2var[0] twice (CRC recomputed). The
  // decoder rejects the order with an io::Error, so the job runs fresh
  // and ends done with the clean run's counters, not kError.
  JobSpec spec;
  spec.circuit = "gen:counter:5:20";
  const JobResult clean = executeJob(spec);
  ASSERT_EQ(clean.status, RunStatus::kDone);
  std::vector<std::uint8_t> image;
  {
    Manager m(0);
    const circuit::Netlist n = resolveCircuit(spec.circuit);
    sym::StateSpace s(m, n, circuit::makeOrder(n, spec.order));
    io::Checkpoint c;
    c.engine = "bfv";
    c.kind = io::RootKind::kBfv;
    c.level2var = m.currentOrder();
    c.choice_vars = s.currentVars();
    c.reached = c.frontier =
        bfv::Bfv::point(m, s.currentVars(), s.initialBits()).comps();
    image = io::encode(c);
    test::forgeOrderEntry(image, 1, c.level2var[0]);
  }
  spec.resume_image = std::make_shared<std::vector<std::uint8_t>>(image);
  const JobResult r = executeJob(spec);
  ASSERT_EQ(r.status, RunStatus::kDone) << r.message;
  EXPECT_EQ(r.reach.states, 20.0);
  ASSERT_FALSE(r.attempts.empty());
  EXPECT_FALSE(r.attempts.front().resumed);
  EXPECT_EQ(r.reach.iterations, clean.reach.iterations);
  EXPECT_EQ(r.reach.peak_live_nodes, clean.reach.peak_live_nodes);
  EXPECT_EQ(r.reach.ops.recursive_steps, clean.reach.ops.recursive_steps);
}

TEST(RunResume, RejectedImageFallsBackUnderTheJobsOwnOrder) {
  // Decoding installs an image's variable order before it reads the node
  // table. An image rejected after that point, by the decoder or by the
  // job's engine, must not leave its order behind: the fresh run that
  // follows is the job's own, counter for counter. Both images here carry
  // the job's order reversed; one has a forged reached-root count, the
  // other is another engine's.
  JobSpec spec;
  spec.circuit = "gen:counter:8:200";
  const JobResult clean = executeJob(spec);
  ASSERT_EQ(clean.status, RunStatus::kDone);
  std::vector<std::vector<std::uint8_t>> images;
  {
    Manager m(0);
    const circuit::Netlist n = resolveCircuit(spec.circuit);
    sym::StateSpace s(m, n, circuit::makeOrder(n, spec.order));
    std::vector<unsigned> reversed = m.currentOrder();
    std::reverse(reversed.begin(), reversed.end());
    m.setVarOrder(reversed);
    io::Checkpoint c;
    c.engine = "bfv";
    c.kind = io::RootKind::kBfv;
    c.level2var = m.currentOrder();
    c.choice_vars = s.currentVars();
    c.reached = c.frontier =
        bfv::Bfv::point(m, s.currentVars(), s.initialBits()).comps();
    images.push_back(io::encode(c));
    test::forgeCount(images.back(), test::CheckpointCount::kReached,
                     0x40000000);
    io::Checkpoint tr = initialChiCheckpoint(s);
    ASSERT_EQ(tr.level2var, reversed);
    images.push_back(io::encode(tr));
  }
  for (std::size_t i = 0; i < images.size(); ++i) {
    spec.resume_image =
        std::make_shared<std::vector<std::uint8_t>>(std::move(images[i]));
    const JobResult r = executeJob(spec);
    ASSERT_EQ(r.status, RunStatus::kDone) << "image " << i << ": "
                                          << r.message;
    ASSERT_FALSE(r.attempts.empty());
    EXPECT_FALSE(r.attempts.front().resumed) << "image " << i;
    EXPECT_EQ(r.reach.states, clean.reach.states) << "image " << i;
    EXPECT_EQ(r.reach.iterations, clean.reach.iterations) << "image " << i;
    EXPECT_EQ(r.reach.peak_live_nodes, clean.reach.peak_live_nodes)
        << "image " << i;
    EXPECT_EQ(r.reach.ops.recursive_steps, clean.reach.ops.recursive_steps)
        << "image " << i;
  }
}

TEST(RunResume, ImageSeedsTheJobsOwnEngine) {
  // tr and tr-mono both write "tr" checkpoints. A tr-mono job resumed from
  // one keeps its own options (a monolithic relation, several times the
  // clustered one's peak), so from an iteration-0 image it walks the same
  // sets as a fresh tr-mono run.
  JobSpec mono;
  mono.circuit = "gen:arbiter:12";
  mono.engine = Engine::kTrMono;
  const JobResult fresh = executeJob(mono);
  ASSERT_EQ(fresh.status, RunStatus::kDone);
  std::size_t cube_nodes = 0;
  {
    Manager m(0);
    const circuit::Netlist n = resolveCircuit(mono.circuit);
    sym::StateSpace s(m, n, circuit::makeOrder(n, mono.order));
    cube_nodes = s.numLatches() + 1;
    mono.resume_image = std::make_shared<std::vector<std::uint8_t>>(
        io::encode(initialChiCheckpoint(s)));
  }
  const JobResult resumed = executeJob(mono);
  EXPECT_EQ(resumed.status, RunStatus::kDone);
  ASSERT_FALSE(resumed.attempts.empty());
  EXPECT_TRUE(resumed.attempts.front().resumed);
  EXPECT_EQ(resumed.reach.states, fresh.reach.states);
  EXPECT_EQ(resumed.reach.iterations, fresh.reach.iterations);
  // Live sets are canonical, so the peaks differ only by the checkpoint's
  // own roots (the initial-state cube), which stay alive through the run.
  EXPECT_GE(resumed.reach.peak_live_nodes, fresh.reach.peak_live_nodes);
  EXPECT_LE(resumed.reach.peak_live_nodes,
            fresh.reach.peak_live_nodes + cube_nodes);
}

TEST(RunPool, AvoidWorkerSteersPlacement) {
  WorkerPool pool(2);
  JobSpec spec;
  spec.circuit = "gen:counter:4:10";
  // Every job steered away from worker 0 must land on worker 1, no matter
  // how the two workers race for the queue.
  std::vector<std::future<JobResult>> futs;
  for (int i = 0; i < 8; ++i) {
    futs.push_back(pool.submit(spec, nullptr, {}, /*avoid_worker=*/0));
  }
  for (auto& f : futs) {
    const JobResult r = f.get();
    EXPECT_EQ(r.status, RunStatus::kDone);
    EXPECT_EQ(r.worker, 1U);
  }
}

TEST(RunPool, WarmPoolCountsHitsAcrossJobs) {
  WorkerPool pool(1, /*warm_managers=*/true);
  JobSpec spec;
  spec.circuit = "gen:counter:4:10";
  pool.submit(spec).get();
  pool.submit(spec).get();
  pool.submit(spec).get();
  const ManagerCache::Stats s = pool.warmStats();
  EXPECT_EQ(s.misses, 1U);
  EXPECT_EQ(s.hits, 2U);
  EXPECT_EQ(s.leaked_nodes, 0U);
}

TEST(RunEngineKind, RoundTripsAllTags) {
  // The table lists every engine once, in enum order.
  ASSERT_EQ(std::size(reach::kEngines),
            static_cast<std::size_t>(Engine::kLz) + 1);
  for (std::size_t i = 0; i < std::size(reach::kEngines); ++i) {
    const reach::EngineInfo& e = reach::kEngines[i];
    EXPECT_EQ(static_cast<std::size_t>(e.engine), i);
    EXPECT_EQ(parseEngine(e.tag), e.engine);
  }
  EXPECT_THROW(parseEngine("warp"), std::invalid_argument);
  EXPECT_THROW(parseEngine("trmono"), std::invalid_argument);
}

TEST(RunEngineKind, UnknownEngineErrorNamesTheKnownOnes) {
  try {
    (void)parseEngine("frob");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("frob"), std::string::npos) << msg;
    for (const reach::EngineInfo& k : reach::kEngines) {
      EXPECT_NE(msg.find(k.tag), std::string::npos)
          << "missing " << k.tag << " in: " << msg;
    }
  }
}

TEST(RunManifest, LzKeysParse) {
  const std::vector<ManifestEntry> entries = parseManifestString(
      "circuit=data/a.bench engine=lz target=q15 lz-merge=8\n");
  ASSERT_EQ(entries.size(), 1U);
  EXPECT_EQ(entries[0].spec.engine, Engine::kLz);
  EXPECT_EQ(entries[0].spec.lz_target, "q15");
  EXPECT_EQ(entries[0].spec.lz_merge, 8U);
}

TEST(RunJob, LzEngineCompletesAffineCircuit) {
  JobSpec spec;
  spec.circuit = "gen:lfsr-free:8";
  spec.engine = Engine::kLz;
  const JobResult r = executeJob(spec);
  EXPECT_EQ(r.status, RunStatus::kDone);
  EXPECT_EQ(r.reach.states, 255.0);
  EXPECT_EQ(r.reach.iterations, 255U);
}

TEST(RunJob, LzEngineReportsInconclusiveOnLossyCircuit) {
  JobSpec spec;
  spec.circuit = "gen:arbiter:4";
  spec.engine = Engine::kLz;
  const JobResult r = executeJob(spec);
  EXPECT_EQ(r.status, RunStatus::kInconclusive);
  EXPECT_FALSE(r.message.empty());
}

TEST(RunJob, LzEngineTargetPrefilterVerdictInMessage) {
  JobSpec spec;
  spec.circuit = "gen:twinshift:6";  // mismatch output is never asserted
  spec.engine = Engine::kLz;
  spec.lz_target = "mismatch";
  const JobResult r = executeJob(spec);
  EXPECT_EQ(r.status, RunStatus::kDone);
  EXPECT_NE(r.message.find("unreachable"), std::string::npos) << r.message;

  spec.lz_target = "nosuchoutput";
  const JobResult bad = executeJob(spec);
  EXPECT_EQ(bad.status, RunStatus::kError);
  EXPECT_NE(bad.message.find("nosuchoutput"), std::string::npos)
      << bad.message;
}

TEST(RunPortfolio, LzWinsAffineRaceAndNeverWinsInconclusive) {
  WorkerPool pool(3);
  {
    // Affine circuit: lz is conclusive (and fast); it must be a valid
    // winner against the BDD engines.
    JobSpec base;
    base.circuit = "gen:lfsr-free:8";
    const std::vector<Engine> engines{Engine::kLz, Engine::kTr,
                                          Engine::kBfv};
    const PortfolioResult race = runPortfolio(pool, base, engines);
    ASSERT_GE(race.winner, 0);
    EXPECT_EQ(race.jobs[static_cast<std::size_t>(race.winner)].status,
              RunStatus::kDone);
    EXPECT_EQ(race.jobs[static_cast<std::size_t>(race.winner)].reach.states,
              255.0);
  }
  {
    // Lossy circuit: the lz leg finishes first but inconclusive — the BDD
    // leg must be crowned instead.
    JobSpec base;
    base.circuit = "gen:arbiter:4";
    const std::vector<Engine> engines{Engine::kLz, Engine::kTr};
    const PortfolioResult race = runPortfolio(pool, base, engines);
    ASSERT_GE(race.winner, 0);
    EXPECT_EQ(engines[static_cast<std::size_t>(race.winner)],
              Engine::kTr);
    // The lz leg either finished inconclusive before the crowning or was
    // cancelled by it; it is never the done winner.
    EXPECT_NE(race.jobs[0].status, RunStatus::kDone);
  }
}

}  // namespace
}  // namespace bfvr::run

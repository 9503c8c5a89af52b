// The observability layer: phase-timer nesting, per-iteration reach traces
// across all four engines, manager event hooks and the JSON report
// round-trip (serialize with reach::traceReport, re-parse with a minimal
// JSON reader, compare against the in-memory trace).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "circuit/bench_io.hpp"
#include "circuit/generators.hpp"
#include "obs/report.hpp"
#include "reach/engine.hpp"
#include "reach/report.hpp"
#include "util/stats.hpp"

#ifndef BFVR_DATA_DIR
#define BFVR_DATA_DIR "data"
#endif

namespace bfvr {
namespace {

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON reader, just enough to re-ingest the
// reports this module writes (no escapes beyond the writer's own, no
// unicode). Kept test-local on purpose: the library deliberately has a
// writer only.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  bool has(const std::string& key) const { return obj.count(key) != 0; }
  const JsonValue& at(const std::string& key) const {
    auto it = obj.find(key);
    if (it == obj.end()) {
      ADD_FAILURE() << "missing key: " << key;
      static const JsonValue null;
      return null;
    }
    return it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  JsonValue parse() {
    const JsonValue v = value();
    skipWs();
    EXPECT_EQ(i_, s_.size()) << "trailing JSON input";
    return v;
  }

 private:
  void skipWs() {
    while (i_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }

  bool eat(char c) {
    skipWs();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  JsonValue value() {
    skipWs();
    if (i_ >= s_.size()) {
      ADD_FAILURE() << "unexpected end of JSON";
      return {};
    }
    const char c = s_[i_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't' || c == 'f') return boolean();
    return number();
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    EXPECT_TRUE(eat('{'));
    if (eat('}')) return v;
    do {
      const JsonValue key = string();
      EXPECT_TRUE(eat(':'));
      v.obj.emplace(key.str, value());
    } while (eat(','));
    EXPECT_TRUE(eat('}'));
    return v;
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    EXPECT_TRUE(eat('['));
    if (eat(']')) return v;
    do {
      v.arr.push_back(value());
    } while (eat(','));
    EXPECT_TRUE(eat(']'));
    return v;
  }

  JsonValue string() {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    EXPECT_TRUE(eat('"'));
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\' && i_ + 1 < s_.size()) ++i_;
      v.str += s_[i_++];
    }
    EXPECT_TRUE(eat('"'));
    return v;
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (s_.compare(i_, 4, "true") == 0) {
      v.b = true;
      i_ += 4;
    } else if (s_.compare(i_, 5, "false") == 0) {
      v.b = false;
      i_ += 5;
    } else {
      ADD_FAILURE() << "bad boolean at " << i_;
    }
    return v;
  }

  JsonValue number() {
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    const char* begin = s_.c_str() + i_;
    char* end = nullptr;
    v.num = std::strtod(begin, &end);
    EXPECT_NE(begin, end) << "bad number at " << i_;
    i_ += static_cast<std::size_t>(end - begin);
    return v;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

// ---------------------------------------------------------------------------
// Phase timers
// ---------------------------------------------------------------------------

void spinFor(double seconds) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(PhaseTimer, NestedScopesAttributeExclusiveTime) {
  obs::PhaseTimer t;
  const Timer wall;
  {
    const auto image = t.scope(obs::Phase::kImage);
    spinFor(0.004);
    {
      const auto inner = t.scope(obs::Phase::kUnion);
      spinFor(0.004);
    }
    spinFor(0.004);
  }
  const double elapsed = wall.seconds();
  EXPECT_EQ(t.depth(), 0U);

  const obs::PhaseSeconds& p = t.totals();
  EXPECT_GT(p[obs::Phase::kImage], 0.0);
  EXPECT_GT(p[obs::Phase::kUnion], 0.0);
  // Exclusive attribution: the inner union scope pauses the image clock,
  // so the phase totals sum to (at most) the wall clock they covered.
  EXPECT_LE(p.total(), elapsed + 1e-4);
  // And the image phase does not absorb the union phase's time: its
  // self-time is the two 4ms stretches outside the inner scope.
  EXPECT_GT(p[obs::Phase::kImage], p[obs::Phase::kUnion]);
  EXPECT_EQ(p[obs::Phase::kCheck], 0.0);
}

TEST(PhaseTimer, DisabledScopeIsNoOp) {
  // The null scope is how disabled tracing stays near-zero cost.
  const obs::PhaseTimer::Scope scope(nullptr);
  SUCCEED();
}

TEST(PhaseTimer, PopOnEmptyTimerReportsCleanError) {
  obs::PhaseTimer t;
  EXPECT_THROW(t.pop(), std::logic_error);
  EXPECT_THROW(t.pop(obs::Phase::kImage), std::logic_error);
}

TEST(PhaseTimer, OverlappingPhasesReportCleanErrorNotMisattribution) {
  // Phases must nest: closing kUnion while kImage is the innermost open
  // phase is an instrumentation bug. The old code silently attributed the
  // overlap to whichever phase happened to be on top; now the manual pop
  // API reports it.
  obs::PhaseTimer t;
  t.push(obs::Phase::kImage);
  EXPECT_THROW(t.pop(obs::Phase::kUnion), std::logic_error);
  // The open phase is untouched by the failed pop: closing it in LIFO
  // order still works and the timer ends balanced.
  t.pop(obs::Phase::kImage);
  EXPECT_EQ(t.depth(), 0U);
  try {
    t.push(obs::Phase::kReparam);
    t.pop(obs::Phase::kCheck);
    FAIL() << "out-of-order pop must throw";
  } catch (const std::logic_error& e) {
    // The message names the phase actually open, for a usable diagnosis.
    EXPECT_NE(std::string(e.what()).find("overlap"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find(to_string(obs::Phase::kReparam)),
              std::string::npos);
  }
  t.pop();
  EXPECT_EQ(t.depth(), 0U);
}

TEST(PhaseSeconds, SinceIsFieldWise) {
  obs::PhaseSeconds a;
  a[obs::Phase::kImage] = 3.0;
  a[obs::Phase::kUnion] = 2.0;
  obs::PhaseSeconds b;
  b[obs::Phase::kImage] = 1.0;
  const obs::PhaseSeconds d = a.since(b);
  EXPECT_DOUBLE_EQ(d[obs::Phase::kImage], 2.0);
  EXPECT_DOUBLE_EQ(d[obs::Phase::kUnion], 2.0);
  EXPECT_DOUBLE_EQ(d.total(), 4.0);
}

// ---------------------------------------------------------------------------
// Per-iteration traces from every engine
// ---------------------------------------------------------------------------

TEST(ReachTrace, LengthMatchesIterationsOnEveryEngine) {
  const circuit::Netlist n = circuit::makeJohnson(5);
  for (const reach::EngineInfo& e : reach::kEngines) {
    if (e.engine == reach::Engine::kLz) continue;
    bdd::Manager m(0);
    sym::StateSpace s(m, n, circuit::makeOrder(n, {}));
    reach::ReachOptions opts;
    opts.trace = true;
    opts.max_iterations = 2000;
    const reach::ReachResult r = reach::runEngine(s, e.engine, opts);
    ASSERT_EQ(r.status, RunStatus::kDone) << e.tag;
    ASSERT_TRUE(r.trace.has_value()) << e.tag;
    ASSERT_EQ(r.trace->iterations.size(), r.iterations) << e.tag;
    for (std::size_t i = 0; i < r.trace->iterations.size(); ++i) {
      const obs::IterationRecord& rec = r.trace->iterations[i];
      EXPECT_EQ(rec.iteration, i + 1);
      EXPECT_GE(rec.frontier_states, 1.0);
      EXPECT_GT(rec.live_nodes, 0U);
      EXPECT_GE(rec.peak_nodes, rec.live_nodes);
      EXPECT_GE(rec.phase_seconds.total(), 0.0);
    }
    // The per-iteration deltas never exceed the whole-run counters.
    std::uint64_t steps = 0;
    for (const obs::IterationRecord& rec : r.trace->iterations) {
      steps += rec.ops_delta.recursive_steps;
    }
    EXPECT_LE(steps, r.ops.recursive_steps);
    // Phase totals cover at most the run's wall clock.
    EXPECT_LE(r.trace->phase_totals.total(), r.seconds + 1e-3);
  }
}

TEST(ReachTrace, AbsentUnlessRequested) {
  const circuit::Netlist n = circuit::makeCounter(4, 11);
  bdd::Manager m(0);
  sym::StateSpace s(m, n, circuit::makeOrder(n, {}));
  const reach::ReachResult r = reach::reachBfv(s, {});
  ASSERT_EQ(r.status, RunStatus::kDone);
  EXPECT_FALSE(r.trace.has_value());
}

TEST(ReachTrace, TracingDoesNotChangeTheComputation) {
  const circuit::Netlist n = circuit::makeTwinShift(4);
  reach::ReachOptions plain;
  reach::ReachOptions traced;
  traced.trace = true;
  bdd::Manager m1(0);
  sym::StateSpace s1(m1, n, circuit::makeOrder(n, {}));
  const reach::ReachResult a = reach::reachBfv(s1, plain);
  bdd::Manager m2(0);
  sym::StateSpace s2(m2, n, circuit::makeOrder(n, {}));
  const reach::ReachResult b = reach::reachBfv(s2, traced);
  // Tracing pays for its own measurements (a live-node census and a state
  // count per iteration), but it must never change what the engine
  // computes.
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.states, b.states);
  const reach::ReachedSizes za = reach::reachedSizes(s1, a);
  const reach::ReachedSizes zb = reach::reachedSizes(s2, b);
  EXPECT_GT(za.chi_nodes, 0U);
  EXPECT_GT(za.bfv_nodes, 0U);
  EXPECT_EQ(za.chi_nodes, zb.chi_nodes);
  EXPECT_EQ(za.bfv_nodes, zb.bfv_nodes);
  EXPECT_EQ(a.status, b.status);
}

TEST(ReachTrace, EveryEngineCountsTheSameFrontierStates) {
  // With the selection heuristic off, every engine simulates from its whole
  // reached set, so record i's frontier_states is the number of states
  // reachable within i - 1 steps: one sequence per circuit, whichever
  // representation (chi, BFV, CDEC) holds and counts the set.
  const circuit::Netlist circuits[] = {
      circuit::makeJohnson(5),
      circuit::parseBenchFile(std::string(BFVR_DATA_DIR) + "/fifo3.bench"),
      circuit::parseBenchFile(std::string(BFVR_DATA_DIR) + "/twin6.bench")};
  for (const circuit::Netlist& n : circuits) {
    std::vector<double> ref;
    for (const reach::Engine e :
         {reach::Engine::kTr, reach::Engine::kCbm, reach::Engine::kHybrid,
          reach::Engine::kBfv, reach::Engine::kCdec}) {
      bdd::Manager m(0);
      sym::StateSpace s(m, n, circuit::makeOrder(n, {}));
      reach::ReachOptions opts;
      opts.trace = true;
      opts.frontier = reach::FrontierPolicy::kReached;
      opts.max_iterations = 2000;
      const reach::ReachResult r = reach::runEngine(s, e, opts);
      ASSERT_EQ(r.status, RunStatus::kDone) << n.name();
      ASSERT_TRUE(r.trace.has_value()) << n.name();
      std::vector<double> seq;
      for (const obs::IterationRecord& rec : r.trace->iterations) {
        seq.push_back(rec.frontier_states);
      }
      ASSERT_EQ(seq.size(), r.iterations) << n.name();
      EXPECT_EQ(seq.front(), 1.0) << n.name();  // the initial state
      EXPECT_EQ(seq.back(), r.states) << n.name();  // the fixpoint
      EXPECT_TRUE(std::is_sorted(seq.begin(), seq.end())) << n.name();
      if (ref.empty()) {
        ref = seq;
      } else {
        EXPECT_EQ(seq, ref) << n.name() << " engine " << reach::tag(e);
      }
    }
  }
}

TEST(ReachTrace, RecordsTheSetEachIterationSimulatedFrom) {
  // A counter with an enable input puts every state in its own image: the
  // paper's heuristic then simulates from reached, the guarded policy from
  // chi frontiers, whose conversions are the run's convert phase.
  const circuit::Netlist n = circuit::makeCounter(6, 40);
  for (const reach::FrontierPolicy p :
       {reach::FrontierPolicy::kPaper, reach::FrontierPolicy::kGuarded}) {
    bdd::Manager m(0);
    sym::StateSpace s(m, n, circuit::makeOrder(n, {}));
    reach::ReachOptions opts;
    opts.trace = true;
    opts.frontier = p;
    const reach::ReachResult r = reach::reachBfv(s, opts);
    ASSERT_EQ(r.status, RunStatus::kDone);
    ASSERT_TRUE(r.trace.has_value());
    const std::vector<obs::IterationRecord>& its = r.trace->iterations;
    ASSERT_EQ(its.size(), r.iterations);
    EXPECT_EQ(its.front().from, obs::FromSet::kReached);
    const auto chi = std::count_if(
        its.begin(), its.end(), [](const obs::IterationRecord& rec) {
          return rec.from == obs::FromSet::kChi;
        });
    const double convert = r.trace->phase_totals[obs::Phase::kConvert];
    if (p == reach::FrontierPolicy::kPaper) {
      EXPECT_EQ(chi, 0);
      EXPECT_EQ(convert, 0.0);
    } else {
      EXPECT_GT(chi, 0);
      EXPECT_GT(convert, 0.0);
    }
  }
}

// ---------------------------------------------------------------------------
// JSON report round-trip on a shipped circuit
// ---------------------------------------------------------------------------

TEST(Report, JsonRoundTripsOnShippedCircuit) {
  const circuit::Netlist n =
      circuit::parseBenchFile(std::string(BFVR_DATA_DIR) + "/fifo3.bench");
  bdd::Manager m(0);
  sym::StateSpace s(m, n, circuit::makeOrder(n, {}));
  reach::ReachOptions opts;
  opts.trace = true;
  const reach::ReachResult r = reach::reachBfv(s, opts);
  ASSERT_EQ(r.status, RunStatus::kDone);
  ASSERT_TRUE(r.trace.has_value());
  ASSERT_GE(r.trace->iterations.size(), 2U);

  const std::string json = reach::traceReport(n.name(), "topo", "BFV-Fig2", r);

  const JsonValue root = JsonParser(json).parse();
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  EXPECT_EQ(root.at("circuit").str, n.name());
  EXPECT_EQ(root.at("engine").str, "BFV-Fig2");
  EXPECT_EQ(root.at("iterations").num, r.iterations);
  EXPECT_NEAR(root.at("states").num, r.states, 1e-6 * (1.0 + r.states));
  EXPECT_EQ(root.at("peak_live_nodes").num, r.peak_live_nodes);
  EXPECT_TRUE(root.has("cache_hit_rate"));
  EXPECT_TRUE(root.has("phase_totals"));
  EXPECT_TRUE(root.has("events"));

  // The status tag re-ingests through parse_run_status.
  const auto status = parse_run_status(root.at("status").str);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, RunStatus::kDone);

  // Per-iteration records: the acceptance schema, field by field.
  const JsonValue& trace = root.at("trace");
  ASSERT_EQ(trace.kind, JsonValue::Kind::kArray);
  ASSERT_EQ(trace.arr.size(), r.trace->iterations.size());
  for (std::size_t i = 0; i < trace.arr.size(); ++i) {
    const JsonValue& it = trace.arr[i];
    const obs::IterationRecord& rec = r.trace->iterations[i];
    EXPECT_EQ(it.at("iteration").num, rec.iteration);
    EXPECT_EQ(it.at("from").str, obs::to_string(rec.from));
    EXPECT_NEAR(it.at("frontier_states").num, rec.frontier_states,
                1e-6 * (1.0 + rec.frontier_states));
    EXPECT_EQ(it.at("live_nodes").num, rec.live_nodes);
    EXPECT_EQ(it.at("peak_nodes").num, rec.peak_nodes);
    const JsonValue& phases = it.at("phase_seconds");
    for (const char* key : {"image", "reparam", "union", "check"}) {
      ASSERT_TRUE(phases.has(key)) << key;
      EXPECT_GE(phases.at(key).num, 0.0) << key;
    }
    const JsonValue& ops = it.at("ops_delta");
    EXPECT_EQ(ops.at("recursive_steps").num, rec.ops_delta.recursive_steps);
    EXPECT_EQ(ops.at("cache_inserts").num, rec.ops_delta.cache_inserts);
  }
  // The BFV engine spends time re-parameterizing somewhere in the run.
  EXPECT_GT(root.at("phase_totals").at("reparam").num, 0.0);
}

TEST(Report, TableRendersEveryIteration) {
  reach::ReachResult r;
  r.iterations = 2;
  obs::RunTrace trace;
  for (unsigned i = 1; i <= 2; ++i) {
    obs::IterationRecord rec;
    rec.iteration = i;
    rec.frontier_states = 4.0 * i;
    rec.live_nodes = 10 * i;
    rec.peak_nodes = 20 * i;
    trace.iterations.push_back(rec);
  }
  bdd::ManagerEvent ev;
  ev.kind = bdd::ManagerEvent::Kind::kGc;
  ev.size_before = 100;
  ev.size_after = 40;
  trace.events.push_back(ev);
  r.trace = trace;
  const std::string table = reach::traceTable("toy", "natural", "TR", r);
  EXPECT_NE(table.find("toy / natural / TR"), std::string::npos);
  EXPECT_NE(table.find("iter"), std::string::npos);
  EXPECT_NE(table.find("[gc] 100 -> 40"), std::string::npos);
  // One header + one line per iteration + the events block.
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 6);
}

// ---------------------------------------------------------------------------
// Manager event hooks
// ---------------------------------------------------------------------------

TEST(EventSink, ExplicitGcEmitsNonAutomaticEvent) {
  bdd::Manager m(8);
  std::vector<bdd::ManagerEvent> events;
  obs::ScopedEventRecorder rec(m, events);
  {
    bdd::Bdd garbage = m.var(0) & m.var(1) & m.var(2);
    garbage = garbage ^ m.var(3);
  }
  m.gc();
  ASSERT_EQ(events.size(), 1U);
  EXPECT_EQ(events[0].kind, bdd::ManagerEvent::Kind::kGc);
  EXPECT_FALSE(events[0].automatic);
  EXPECT_GE(events[0].size_before, events[0].size_after);
  EXPECT_GE(events[0].seconds, 0.0);
}

TEST(EventSink, ForcedAutoReorderEmitsAutomaticEvent) {
  bdd::Manager::Config cfg;
  cfg.auto_reorder = true;
  cfg.reorder_threshold = 256;
  bdd::Manager m(16, cfg);
  std::vector<bdd::ManagerEvent> events;
  obs::ScopedEventRecorder rec(m, events);
  // Hold enough live nodes to cross the reorder threshold: one parity
  // function per prefix length keeps ~n nodes alive each.
  std::vector<bdd::Bdd> keep;
  bdd::Bdd parity = m.zero();
  for (unsigned round = 0; round < 4; ++round) {
    for (unsigned v = 0; v < 16; ++v) {
      parity = parity ^ m.var(v);
      keep.push_back(parity & m.var((v + round) % 16));
    }
  }
  ASSERT_GE(m.inUseNodes(), 256U);
  m.maybeGc();
  bool saw_reorder = false;
  for (const bdd::ManagerEvent& e : events) {
    if (e.kind == bdd::ManagerEvent::Kind::kReorder) {
      saw_reorder = true;
      EXPECT_TRUE(e.automatic);
      EXPECT_GE(e.seconds, 0.0);
    }
    // The reorder prologue's GC also reports as automatic.
    if (e.kind == bdd::ManagerEvent::Kind::kGc) {
      EXPECT_TRUE(e.automatic);
    }
  }
  EXPECT_TRUE(saw_reorder);
  EXPECT_EQ(m.stats().reorder_runs, 1U);
}

TEST(EventSink, CacheResizeEmitsEventAndTakesEffect) {
  bdd::Manager::Config cfg;
  cfg.cache_bits = 8;
  bdd::Manager m(4, cfg);
  ASSERT_EQ(m.cacheSlots(), 256U);
  std::vector<bdd::ManagerEvent> events;
  obs::ScopedEventRecorder rec(m, events);
  m.resizeCache(10);
  EXPECT_EQ(m.cacheSlots(), 1024U);
  ASSERT_EQ(events.size(), 1U);
  EXPECT_EQ(events[0].kind, bdd::ManagerEvent::Kind::kCacheResize);
  EXPECT_EQ(events[0].size_before, 256U);
  EXPECT_EQ(events[0].size_after, 1024U);
  EXPECT_FALSE(events[0].automatic);
  // The resized cache still works (and kept no stale entries).
  const bdd::Bdd f = (m.var(0) & m.var(1)) | m.var(2);
  EXPECT_TRUE(m.eval(f, {true, true, false, false}));
  EXPECT_TRUE(m.eval(f, {false, false, true, false}));
  EXPECT_FALSE(m.eval(f, {true, false, false, false}));
}

TEST(EventSink, NodeBudgetEventFiresBeforeThrow) {
  bdd::Manager::Config cfg;
  cfg.max_nodes = 48;
  bdd::Manager m(16, cfg);
  std::vector<bdd::ManagerEvent> events;
  obs::ScopedEventRecorder rec(m, events);
  std::vector<bdd::Bdd> keep;
  EXPECT_THROW(
      {
        bdd::Bdd parity = m.zero();
        for (unsigned v = 0; v < 16; ++v) {
          parity = parity ^ m.var(v);
          keep.push_back(parity);
          keep.push_back(parity & m.var(0));
        }
      },
      bdd::NodeBudgetExceeded);
  bool saw_budget = false;
  for (const bdd::ManagerEvent& e : events) {
    if (e.kind == bdd::ManagerEvent::Kind::kNodeBudget) {
      saw_budget = true;
      EXPECT_EQ(e.size_after, cfg.max_nodes);
    }
  }
  EXPECT_TRUE(saw_budget);
}

TEST(EventSink, RecordersComposeAndRestore) {
  bdd::Manager m(4);
  std::vector<bdd::ManagerEvent> outer;
  std::vector<bdd::ManagerEvent> inner;
  {
    obs::ScopedEventRecorder a(m, outer);
    {
      obs::ScopedEventRecorder b(m, inner);
      m.gc();  // lands in both: b records, then forwards to a
    }
    EXPECT_EQ(m.eventSink(), &a);
    m.gc();  // only the outer recorder is installed now
  }
  EXPECT_EQ(m.eventSink(), nullptr);
  EXPECT_EQ(inner.size(), 1U);
  EXPECT_EQ(outer.size(), 2U);
  m.gc();  // no sink: must not crash
}

TEST(EventSink, TracedRunRecordsGcEvents) {
  // A traced engine run with a tiny GC threshold collects kGc events into
  // ReachResult.trace->events, all flagged automatic.
  bdd::Manager::Config cfg;
  cfg.gc_threshold = 64;
  const circuit::Netlist n = circuit::makeJohnson(6);
  bdd::Manager m(0, cfg);
  sym::StateSpace s(m, n, circuit::makeOrder(n, {}));
  reach::ReachOptions opts;
  opts.trace = true;
  const reach::ReachResult r = reach::reachTr(s, opts);
  ASSERT_EQ(r.status, RunStatus::kDone);
  ASSERT_TRUE(r.trace.has_value());
  ASSERT_FALSE(r.trace->events.empty());
  for (const bdd::ManagerEvent& e : r.trace->events) {
    EXPECT_EQ(e.kind, bdd::ManagerEvent::Kind::kGc);
    EXPECT_TRUE(e.automatic);
  }
  EXPECT_EQ(r.trace->events.size(), r.ops.gc_runs);
}

// ---------------------------------------------------------------------------
// New OpStats counters
// ---------------------------------------------------------------------------

TEST(OpStats, CacheInsertsCountAndSinceSubtracts) {
  bdd::Manager m(8);
  bdd::Bdd f = m.var(0);
  for (unsigned v = 1; v < 8; ++v) f = f ^ m.var(v);
  const bdd::OpStats mid = m.stats();
  EXPECT_GT(mid.cache_inserts, 0U);
  EXPECT_LE(mid.cache_collisions, mid.cache_inserts);
  bdd::Bdd g = f & m.var(3);
  const bdd::OpStats delta = m.stats().since(mid);
  EXPECT_EQ(delta.top_ops, m.stats().top_ops - mid.top_ops);
  EXPECT_EQ(delta.recursive_steps,
            m.stats().recursive_steps - mid.recursive_steps);
  EXPECT_EQ(delta.gc_runs, 0U);
}

}  // namespace
}  // namespace bfvr

// The memory-pressure governor (Config::PressureLadder), the kNodeBudget /
// kPressure event contract, and deterministic fault injection
// (Manager::setFaultPlan): every ladder rung is driven individually, the
// disabled paths are bit-identical in their op counters, and a seeded
// tight-budget suite shows the ladder turning memouts into completed
// fixpoints with the exact same state counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "bfv/bfv.hpp"
#include "circuit/generators.hpp"
#include "reach/engine.hpp"
#include "run/manifest.hpp"
#include "run/run.hpp"
#include "sym/space.hpp"

namespace bfvr::bdd {
namespace {

/// Event sink that records everything it hears.
class Recorder : public EventSink {
 public:
  void onManagerEvent(const ManagerEvent& e) override { events.push_back(e); }

  std::size_t count(ManagerEvent::Kind k) const {
    std::size_t n = 0;
    for (const ManagerEvent& e : events) {
      if (e.kind == k) ++n;
    }
    return n;
  }
  std::vector<PressureRung> rungs() const {
    std::vector<PressureRung> out;
    for (const ManagerEvent& e : events) {
      if (e.kind == ManagerEvent::Kind::kPressure) out.push_back(e.rung);
    }
    return out;
  }

  std::vector<ManagerEvent> events;
};

/// Fills the manager with unreferenced (collectible) nodes: builds and
/// immediately drops a distinct three-variable cube per iteration (every
/// (a, b, c) subset denotes a different function, so each one interns fresh
/// nodes instead of hitting the unique table) until `target` nodes are in
/// use. Each step allocates at most a couple of nodes, so the fill stops
/// just past `target`. The garbage is exactly what a pressure GC can
/// reclaim.
void makeGarbage(Manager& m, std::size_t target) {
  const unsigned nv = m.numVars();
  for (unsigned a = 0; a < nv; ++a) {
    for (unsigned b = a + 1; b < nv; ++b) {
      for (unsigned c = b + 1; c < nv; ++c) {
        if (m.inUseNodes() >= target) return;
        const Bdd junk = m.var(a) & m.var(b) & ~m.var(c);
        (void)junk;
      }
    }
  }
  ASSERT_GE(m.inUseNodes(), target);
}

/// Parity of all the manager's variables — a fresh function the garbage
/// runs above never built, so computing it must allocate.
Bdd parityOfAll(Manager& m) {
  Bdd f = m.zero();
  for (unsigned i = 0; i < m.numVars(); ++i) f = f ^ m.var(i);
  return f;
}

TEST(NodeBudget, EventFiresExactlyOnceStrictlyBeforeThrow) {
  Manager::Config cfg;
  cfg.max_nodes = 128;
  Manager m(10, cfg);
  Recorder rec;
  m.setEventSink(&rec);
  makeGarbage(m, 110);
  bool threw = false;
  try {
    // One public op that cannot fit in the remaining headroom.
    Bdd f = parityOfAll(m);
    (void)f;
  } catch (const NodeBudgetExceeded& e) {
    threw = true;
    // The event was already delivered when the exception reaches us — and
    // exactly once: without the ladder there is no retry to re-fire it.
    EXPECT_EQ(rec.count(ManagerEvent::Kind::kNodeBudget), 1U);
    EXPECT_FALSE(e.injected());
    EXPECT_EQ(e.budget(), 128U);
    EXPECT_GT(e.inUse(), 0U);
  }
  ASSERT_TRUE(threw);
  EXPECT_EQ(rec.count(ManagerEvent::Kind::kPressure), 0U);
}

TEST(PressureLadder, ForcedGcRungRescuesAGarbageHeavyOp) {
  Manager::Config cfg;
  cfg.max_nodes = 128;
  cfg.pressure_ladder.enabled = true;
  Manager m(10, cfg);
  Recorder rec;
  m.setEventSink(&rec);
  makeGarbage(m, 110);
  Bdd f;
  ASSERT_NO_THROW(f = parityOfAll(m));
  EXPECT_EQ(f.nodeCount(), 11U);  // parity over 10 vars, complement edges
  const std::vector<PressureRung> rungs = rec.rungs();
  ASSERT_GE(rungs.size(), 1U);
  EXPECT_EQ(rungs[0], PressureRung::kForcedGc);
  // The rung's event shows the relief: in-use dropped across the GC.
  for (const ManagerEvent& e : rec.events) {
    if (e.kind == ManagerEvent::Kind::kPressure) {
      EXPECT_LT(e.size_after, e.size_before);
      break;
    }
  }
}

TEST(PressureLadder, CacheShrinkRungFiresWhenGcRungIsDisabled) {
  Manager::Config cfg;
  cfg.max_nodes = 128;
  cfg.cache_bits = 16;
  cfg.pressure_ladder.enabled = true;
  cfg.pressure_ladder.forced_gc = false;  // first enabled rung: cache shrink
  cfg.pressure_ladder.min_cache_bits = 12;
  Manager m(10, cfg);
  Recorder rec;
  m.setEventSink(&rec);
  makeGarbage(m, 110);
  const std::size_t slots_before = m.cacheSlots();
  Bdd f;
  ASSERT_NO_THROW(f = parityOfAll(m));
  const std::vector<PressureRung> rungs = rec.rungs();
  ASSERT_GE(rungs.size(), 1U);
  EXPECT_EQ(rungs[0], PressureRung::kCacheShrink);
  EXPECT_EQ(m.cacheSlots(), slots_before / 2);
}

TEST(PressureLadder, CacheShrinkRespectsTheFloor) {
  Manager::Config cfg;
  cfg.max_nodes = 128;
  cfg.cache_bits = 12;
  cfg.pressure_ladder.enabled = true;
  cfg.pressure_ladder.forced_gc = false;
  cfg.pressure_ladder.min_cache_bits = 12;  // already at the floor:
  cfg.pressure_ladder.emergency_reorder = true;  // shrink rung is skipped
  Manager m(10, cfg);
  Recorder rec;
  m.setEventSink(&rec);
  makeGarbage(m, 110);
  const std::size_t slots_before = m.cacheSlots();
  Bdd f;
  ASSERT_NO_THROW(f = parityOfAll(m));
  EXPECT_EQ(m.cacheSlots(), slots_before);
  const std::vector<PressureRung> rungs = rec.rungs();
  ASSERT_GE(rungs.size(), 1U);
  EXPECT_EQ(rungs[0], PressureRung::kReorder);
}

TEST(PressureLadder, ReorderRungFiresWhenLighterRungsAreDisabled) {
  Manager::Config cfg;
  cfg.max_nodes = 128;
  cfg.pressure_ladder.enabled = true;
  cfg.pressure_ladder.forced_gc = false;
  cfg.pressure_ladder.shrink_cache = false;
  Manager m(10, cfg);
  Recorder rec;
  m.setEventSink(&rec);
  makeGarbage(m, 110);
  Bdd f;
  ASSERT_NO_THROW(f = parityOfAll(m));
  const std::vector<PressureRung> rungs = rec.rungs();
  ASSERT_GE(rungs.size(), 1U);
  EXPECT_EQ(rungs[0], PressureRung::kReorder);
  EXPECT_GE(m.stats().reorder_runs, 1U);
}

TEST(PressureLadder, ExhaustedLadderStillThrowsAfterEveryRung) {
  // Build two disjoint cubes keeping a handle on EVERY intermediate, so no
  // rung can reclaim a single node, then freeze the budget at exactly the
  // table size: xor-ing the cubes needs fresh nodes that neither GC nor a
  // cache shrink can provide. The reorder rung stays disabled here — budget
  // checks are off while sifting, so its table churn legitimately leaves
  // free-list slots that can rescue the retry (that escape hatch is the
  // rung's whole point); with it on, "exhausted" is not reachable this way.
  const auto build = [](Manager& m, std::vector<Bdd>& keep) {
    Bdd even = m.one(), odd = m.one();
    for (unsigned i = 0; i < 12; i += 2) {
      even &= m.var(i);
      keep.push_back(even);
    }
    for (unsigned i = 1; i < 12; i += 2) {
      odd &= m.var(i);
      keep.push_back(odd);
    }
    return std::pair{even, odd};
  };
  std::size_t table_size = 0;
  {
    Manager probe(12);
    std::vector<Bdd> keep;
    build(probe, keep);
    table_size = probe.inUseNodes();
  }
  Manager::Config tight;
  tight.pressure_ladder.enabled = true;
  tight.pressure_ladder.emergency_reorder = false;
  tight.max_nodes = table_size + 1;
  Manager m(12, tight);
  Recorder rec;
  m.setEventSink(&rec);
  std::vector<Bdd> keep;
  const auto [even, odd] = build(m, keep);
  EXPECT_THROW(m.xorB(even, odd), NodeBudgetExceeded);
  // Every enabled rung ran, in escalation order, before the throw escaped.
  const std::vector<PressureRung> rungs = rec.rungs();
  ASSERT_EQ(rungs.size(), 2U);
  EXPECT_EQ(rungs[0], PressureRung::kForcedGc);
  EXPECT_EQ(rungs[1], PressureRung::kCacheShrink);
  // And a NodeBudgetExceeded escaped only after the ladder was spent; the
  // manager survives with every kept handle still denoting its function.
  std::vector<bool> all_true(12, true);
  EXPECT_TRUE(m.eval(even, all_true));
  EXPECT_TRUE(m.eval(odd, all_true));
}

void expectSameStats(const OpStats& a, const OpStats& b) {
  EXPECT_EQ(a.top_ops, b.top_ops);
  EXPECT_EQ(a.recursive_steps, b.recursive_steps);
  EXPECT_EQ(a.cache_lookups, b.cache_lookups);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_inserts, b.cache_inserts);
  EXPECT_EQ(a.cache_collisions, b.cache_collisions);
  EXPECT_EQ(a.nodes_created, b.nodes_created);
  EXPECT_EQ(a.gc_runs, b.gc_runs);
  EXPECT_EQ(a.reorder_runs, b.reorder_runs);
  EXPECT_EQ(a.reorder_swaps, b.reorder_swaps);
  for (std::size_t i = 0; i < kNumOpTags; ++i) {
    EXPECT_EQ(a.op_cache_hits[i], b.op_cache_hits[i]) << "tag " << i;
    EXPECT_EQ(a.op_cache_misses[i], b.op_cache_misses[i]) << "tag " << i;
  }
}

reach::ReachResult johnsonRun(Manager& m) {
  const circuit::Netlist n = circuit::makeJohnson(6);
  sym::StateSpace s(m, n,
                    circuit::makeOrder(n, {circuit::OrderKind::kTopo, 0}));
  return reach::reachBfv(s, {});
}

TEST(PressureLadder, UntriggeredLadderIsBitIdenticalInOpCounts) {
  Manager plain(0);
  const reach::ReachResult a = johnsonRun(plain);
  Manager::Config cfg;
  cfg.pressure_ladder.enabled = true;  // enabled but never under pressure
  Manager laddered(0, cfg);
  const reach::ReachResult b = johnsonRun(laddered);
  ASSERT_EQ(a.status, RunStatus::kDone);
  ASSERT_EQ(b.status, RunStatus::kDone);
  expectSameStats(plain.stats(), laddered.stats());
}

TEST(FaultPlan, ArmedButNeverFiringPlanIsBitIdenticalInOpCounts) {
  Manager plain(0);
  const reach::ReachResult a = johnsonRun(plain);
  Manager armed(0);
  FaultPlan fp;
  fp.alloc_failures = {std::uint64_t{1} << 60};  // never reached
  fp.spurious_interrupts = {std::uint64_t{1} << 60};
  armed.setFaultPlan(fp);
  const reach::ReachResult b = johnsonRun(armed);
  ASSERT_EQ(a.status, RunStatus::kDone);
  ASSERT_EQ(b.status, RunStatus::kDone);
  EXPECT_EQ(armed.faultsInjected(), 0U);
  expectSameStats(plain.stats(), armed.stats());
}

TEST(FaultPlan, InjectedAllocationFailureIsTaggedAndSurvivable) {
  Manager m(8);
  FaultPlan fp;
  fp.alloc_failures = {3};  // the third allocation after arming
  m.setFaultPlan(fp);
  EXPECT_TRUE(m.hasFaultPlan());
  bool threw = false;
  try {
    Bdd f = parityOfAll(m);
    (void)f;
  } catch (const NodeBudgetExceeded& e) {
    threw = true;
    EXPECT_TRUE(e.injected());
  }
  ASSERT_TRUE(threw);
  EXPECT_EQ(m.faultsInjected(), 1U);
  // One-shot: the schedule is consumed, the manager works again.
  Bdd f;
  ASSERT_NO_THROW(f = parityOfAll(m));
  EXPECT_EQ(f.nodeCount(), 9U);
}

TEST(FaultPlan, SpuriousInterruptFiresAtAPollPoint) {
  Manager m(4);
  FaultPlan fp;
  fp.spurious_interrupts = {1};  // the very next poll
  m.setFaultPlan(fp);
  try {
    m.pollInterrupt();
    FAIL() << "expected an injected interrupt";
  } catch (const Interrupted& e) {
    EXPECT_EQ(e.reason(), Interrupted::Reason::kCancelled);
  }
  EXPECT_EQ(m.faultsInjected(), 1U);
  ASSERT_NO_THROW(m.pollInterrupt());  // consumed
  m.setFaultPlan({});
  EXPECT_FALSE(m.hasFaultPlan());
}

TEST(FaultPlan, LadderAbsorbsAnInjectedAllocationFailure) {
  Manager::Config cfg;
  cfg.pressure_ladder.enabled = true;
  Manager m(10, cfg);
  Recorder rec;
  m.setEventSink(&rec);
  makeGarbage(m, 32);
  FaultPlan fp;
  fp.alloc_failures = {2};
  m.setFaultPlan(fp);
  Bdd f;
  // The injected failure unwinds the op; the ladder's GC rung runs; the
  // retry passes the (consumed) fault point and completes.
  ASSERT_NO_THROW(f = parityOfAll(m));
  EXPECT_EQ(f.nodeCount(), 11U);
  EXPECT_EQ(m.faultsInjected(), 1U);
  EXPECT_GE(rec.count(ManagerEvent::Kind::kPressure), 1U);
}

// toChar's AND-of-XNORs fold under injected allocation failures: each one
// unwinds a public operation, the ladder relieves and reruns it from its
// handle-protected operands, and the characteristic function must still
// count exactly the member set.
TEST(PressureLadder, ToCharSurvivesLadderRerun) {
  std::vector<unsigned> vars(16);
  for (unsigned i = 0; i < 16; ++i) vars[i] = i;
  std::vector<std::uint64_t> members;
  for (std::uint64_t k = 0; k < 40; ++k) {
    members.push_back((k * 2654435761ULL) & 0xFFFFU);  // odd stride: distinct
  }
  Manager::Config cfg;
  cfg.pressure_ladder.enabled = true;  // three rungs: one per injected fault
  Manager m(16, cfg);
  const bfv::Bfv s = bfv::Bfv::fromMembers(m, vars, members);
  FaultPlan plan;
  plan.alloc_failures = {10, 60, 150};
  m.setFaultPlan(plan);
  const Bdd chi = s.toChar();
  // At least one fault must have fired inside toChar, or this test proved
  // nothing (read before disarming: setFaultPlan resets the counter).
  EXPECT_GE(m.faultsInjected(), 1U);
  m.setFaultPlan({});
  EXPECT_DOUBLE_EQ(m.satCount(chi, 16), 40.0);
}

// vectorCompose and permute walk by level. When the ladder's reorder rung
// runs between two attempts of one call, the retry must read the levels
// afresh: a substituted variable sifted below where it was must still be
// substituted.
TEST(PressureLadder, RenameAndComposeSurviveAReorderRerun) {
  Manager::Config cfg;
  cfg.pressure_ladder.enabled = true;
  cfg.pressure_ladder.forced_gc = false;
  cfg.pressure_ladder.shrink_cache = false;  // the first rung reorders
  Manager m(12, cfg);
  Manager plain(12);
  // Twin bits six levels apart: sifting pulls each x_{i+6} up next to x_i,
  // which pushes x1 down.
  const auto twins = [](Manager& mm) {
    Bdd t = mm.one();
    for (unsigned i = 0; i < 6; ++i) t &= mm.xnorB(mm.var(i), mm.var(i + 6));
    return t;
  };
  const Bdd f = twins(m);
  std::vector<Bdd> map(2);
  map[1] = ~m.var(0) | m.var(11);
  std::vector<Bdd> plain_map(2);
  plain_map[1] = ~plain.var(0) | plain.var(11);
  const Bdd want = plain.vectorCompose(twins(plain), plain_map);
  const unsigned level_before = m.levelOfVar(1);
  FaultPlan fp;
  fp.alloc_failures = {1};
  m.setFaultPlan(fp);
  const Bdd got = m.vectorCompose(f, map);
  ASSERT_EQ(m.faultsInjected(), 1U);
  ASSERT_GT(m.levelOfVar(1), level_before);  // the rerun saw x1 deeper
  m.setFaultPlan(fp);
  std::vector<unsigned> perm(12);
  for (unsigned v = 0; v < 12; ++v) perm[v] = (v + 6) % 12;
  const Bdd renamed = m.permute(got, perm);
  ASSERT_EQ(m.faultsInjected(), 1U);
  const Bdd want_renamed = plain.permute(want, perm);
  std::vector<bool> x(12);
  for (std::uint32_t a = 0; a < 4096; ++a) {
    for (unsigned j = 0; j < 12; ++j) x[j] = ((a >> j) & 1U) != 0;
    ASSERT_EQ(m.eval(got, x), plain.eval(want, x)) << "assignment " << a;
    ASSERT_EQ(m.eval(renamed, x), plain.eval(want_renamed, x))
        << "assignment " << a;
  }
}

// ---------------------------------------------------------------------------
// Engine-level behavior: kMemOut folds and the tight-budget rescue suite.
// ---------------------------------------------------------------------------

// MemOutFold's engine parameter. Each ctest name prints the raw bytes of
// its value, so this stays a 4-byte enum numbered 0..3.
enum class Engine { kTr, kCbm, kBfv, kCdec };

reach::ReachResult runEngine(Engine e, sym::StateSpace& s) {
  constexpr reach::Engine kOf[] = {reach::Engine::kTr, reach::Engine::kCbm,
                                   reach::Engine::kBfv, reach::Engine::kCdec};
  return reach::runEngine(s, kOf[static_cast<int>(e)]);
}

class MemOutFold : public ::testing::TestWithParam<Engine> {};

TEST_P(MemOutFold, BudgetExhaustionFoldsToMemOutWithAMessage) {
  const Engine engine = GetParam();
  const circuit::Netlist n = circuit::makeCounter(8, 200);
  const circuit::OrderSpec ospec{circuit::OrderKind::kTopo, 0};

  // Measure: table size after setup, and after the full run.
  std::size_t setup_nodes = 0, run_peak = 0;
  {
    Manager m(0);
    sym::StateSpace s(m, n, circuit::makeOrder(n, ospec));
    setup_nodes = m.peakNodes();
    const reach::ReachResult full = runEngine(engine, s);
    ASSERT_EQ(full.status, RunStatus::kDone);
    run_peak = m.peakNodes();
  }
  ASSERT_GT(run_peak, setup_nodes + 64);

  // A budget above setup but below the run's appetite: the engine — not the
  // job runner — must catch the overflow and fold it to kMemOut, with the
  // budget and in-use count in the message.
  Manager::Config cfg;
  cfg.max_nodes = setup_nodes + (run_peak - setup_nodes) / 3;
  Manager m(0, cfg);
  sym::StateSpace s(m, n, circuit::makeOrder(n, ospec));
  const reach::ReachResult r = runEngine(engine, s);
  EXPECT_EQ(r.status, RunStatus::kMemOut);
  EXPECT_FALSE(r.message.empty());
  EXPECT_NE(r.message.find("nodes"), std::string::npos) << r.message;
}

INSTANTIATE_TEST_SUITE_P(Engines, MemOutFold,
                         ::testing::Values(Engine::kTr, Engine::kCbm,
                                           Engine::kBfv, Engine::kCdec));

TEST(PressureLadder, RescuesTightBudgetRunsAtIdenticalStateCounts) {
  // Seeded suite: circuits whose fixpoints die under a tight hard budget
  // without the governor. The ladder must rescue at least half of them —
  // and every rescue must land on the exact reference state count.
  struct Case {
    const char* label;
    circuit::Netlist n;
  };
  const Case cases[] = {
      {"counter", circuit::makeCounter(8, 200)},
      {"johnson", circuit::makeJohnson(8)},
      {"lfsr", circuit::makeLfsr(8)},
      {"twinshift", circuit::makeTwinShift(6)},
      {"crc", circuit::makeCrc(8)},
      {"random", circuit::makeRandomSeq(8, 3, 40, 12345)},
  };
  const circuit::OrderSpec ospec{circuit::OrderKind::kTopo, 0};
  int eligible = 0, rescued = 0;
  for (const Case& c : cases) {
    double ref_states = 0.0;
    std::size_t setup_nodes = 0, run_peak = 0;
    {
      Manager m(0);
      sym::StateSpace s(m, c.n, circuit::makeOrder(c.n, ospec));
      setup_nodes = m.peakNodes();
      const reach::ReachResult full = runEngine(Engine::kBfv, s);
      ASSERT_EQ(full.status, RunStatus::kDone) << c.label;
      ref_states = full.states;
      run_peak = m.peakNodes();
    }
    if (run_peak <= setup_nodes + 128) continue;  // no pressure to create
    Manager::Config tight;
    tight.max_nodes = setup_nodes + (run_peak - setup_nodes) * 2 / 3;

    // Without the governor the budget is fatal...
    {
      Manager m(0, tight);
      sym::StateSpace s(m, c.n, circuit::makeOrder(c.n, ospec));
      const reach::ReachResult r = runEngine(Engine::kBfv, s);
      if (r.status != RunStatus::kMemOut) continue;  // budget not tight here
    }
    ++eligible;

    // ...with it, the same budget should complete — exactly.
    Manager::Config laddered = tight;
    laddered.pressure_ladder.enabled = true;
    Manager m(0, laddered);
    sym::StateSpace s(m, c.n, circuit::makeOrder(c.n, ospec));
    const reach::ReachResult r = runEngine(Engine::kBfv, s);
    if (r.status == RunStatus::kDone) {
      EXPECT_DOUBLE_EQ(r.states, ref_states) << c.label;
      ++rescued;
    }
  }
  ASSERT_GT(eligible, 0);
  EXPECT_GE(rescued * 2, eligible)
      << "ladder rescued " << rescued << "/" << eligible;
}

// ---------------------------------------------------------------------------
// Reordering never changes a count: a CDEC run holds its order.
// ---------------------------------------------------------------------------

TEST(ReorderSound, OrderHoldSkipsStepAutomaticAndEmergencyReorders) {
  // ReorderRungFiresWhenLighterRungsAreDisabled's ladder, with the auto
  // trigger armed at every safe point, under a hold: no reorder of any
  // kind runs, and the safe point still collects.
  Manager::Config cfg;
  cfg.max_nodes = 128;
  cfg.gc_threshold = 1;
  cfg.auto_reorder = true;
  cfg.reorder_threshold = 1;
  cfg.pressure_ladder.enabled = true;
  cfg.pressure_ladder.forced_gc = false;
  cfg.pressure_ladder.shrink_cache = false;
  Manager m(10, cfg);
  Recorder rec;
  m.setEventSink(&rec);
  const std::vector<unsigned> order = m.currentOrder();
  {
    const Manager::OrderHold hold(m);
    makeGarbage(m, 110);
    m.reorder();
    m.maybeGc();
    EXPECT_EQ(m.stats().gc_runs, 1U);
    try {
      (void)parityOfAll(m);
    } catch (const NodeBudgetExceeded&) {
      // No rung is left to run.
    }
    EXPECT_EQ(m.currentOrder(), order);
    EXPECT_EQ(m.stats().reorder_runs, 0U);
    EXPECT_TRUE(rec.rungs().empty());
  }
  m.reorder();
  EXPECT_EQ(m.stats().reorder_runs, 1U);
  m.setEventSink(nullptr);
}

TEST(ReorderSound, EveryBddEngineKeepsItsCountsUnderStepAndAutoReorder) {
  // Each run under step reordering and under automatic reordering must end
  // as the same run without reordering does. The CDEC runs hold their order
  // and never reorder at all.
  const std::string data = BFVR_DATA_DIR;
  const std::string circuits[] = {data + "/johnson8.bench",
                                  data + "/fifo3.bench", "gen:fifo:4",
                                  "gen:johnson:12"};
  const circuit::OrderSpec ospec{circuit::OrderKind::kTopo, 0};
  for (const std::string& spec : circuits) {
    const circuit::Netlist n = run::resolveCircuit(spec);
    for (const reach::EngineInfo& e : reach::kEngines) {
      if (e.engine == reach::Engine::kLz) continue;
      const auto runWith = [&](const Manager::Config& cfg,
                               unsigned reorder_every) {
        Manager m(0, cfg);
        sym::StateSpace s(m, n, circuit::makeOrder(n, ospec));
        reach::ReachOptions opts;
        opts.reorder_every = reorder_every;
        return reach::runEngine(s, e.engine, opts);
      };
      const reach::ReachResult plain = runWith({}, 0);
      ASSERT_EQ(plain.status, RunStatus::kDone) << spec << " " << e.tag;
      Manager::Config automatic;
      automatic.auto_reorder = true;
      automatic.reorder_threshold = 64;
      for (const reach::ReachResult& r :
           {runWith({}, 1), runWith(automatic, 0)}) {
        const bool held = e.engine == reach::Engine::kCdec;
        EXPECT_EQ(r.status, plain.status) << spec << " " << e.tag;
        EXPECT_EQ(r.iterations, plain.iterations) << spec << " " << e.tag;
        EXPECT_EQ(r.states, plain.states) << spec << " " << e.tag;
        EXPECT_EQ(r.ops.reorder_runs == 0, held) << spec << " " << e.tag;
      }
    }
  }
}

run::JobResult runManifestLine(const std::string& line) {
  std::vector<run::ManifestEntry> entries = run::parseManifestString(line);
  EXPECT_EQ(entries.size(), 1U);
  return run::executeJob(entries.at(0).spec);
}

TEST(ReorderSound, CdecUnderTheLaddersEmergencyReorderNeverMiscounts) {
  // The ladder's last rung reorders; a held CDEC run skips it, so a tight
  // budget ends the run out of nodes instead of done with a wrong count.
  const run::JobResult r = runManifestLine(
      "circuit=gen:johnson:12 engine=cdec max-nodes=1000 ladder=1");
  EXPECT_NE(r.status, RunStatus::kError) << r.message;
  if (r.status == RunStatus::kDone) {
    EXPECT_EQ(r.reach.states, 24.0);
    EXPECT_EQ(r.reach.iterations, 24U);
  }
}

TEST(ReorderSound, CdecUnderTheRetryEscalationNeverMiscounts) {
  // Attempt 1 runs out of live nodes; attempt 2 of the escalation turns
  // auto-reorder on, which the CDEC run holds off.
  const run::JobResult r =
      runManifestLine("circuit=gen:fifo:4 engine=cdec nodes=300 retries=8");
  EXPECT_NE(r.status, RunStatus::kError) << r.message;
  ASSERT_GE(r.attempts.size(), 2U);
  EXPECT_EQ(r.attempts[1].escalation, "auto-reorder+ladder");
  if (r.status == RunStatus::kDone) {
    EXPECT_EQ(r.reach.states, 272.0);
    EXPECT_EQ(r.reach.iterations, 32U);
  }
}

}  // namespace
}  // namespace bfvr::bdd

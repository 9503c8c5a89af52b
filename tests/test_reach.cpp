// The reachability engines (TR, CBM, and the Fig. 2 engine's BFV and CDEC
// backends) against the explicit-state oracle, across circuits, variable
// orders and engine options.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>

#include "cdec/cdec.hpp"
#include "circuit/concrete_sim.hpp"
#include "circuit/generators.hpp"
#include "io/checkpoint.hpp"
#include "reach/engine.hpp"
#include "reach/internal.hpp"
#include "run/run.hpp"
#include "support/process_dir.hpp"
#include "sym/transition.hpp"

namespace bfvr::reach {
namespace {

using circuit::Netlist;
using circuit::OrderKind;
using circuit::OrderSpec;

// ReachMatrix's engine parameter. Each ctest name prints the raw bytes of
// its value, so this stays a 4-byte enum numbered 0..3.
enum class MatrixEngine { kTr, kCbm, kBfv, kCdec };

Engine engineOf(MatrixEngine e) {
  constexpr Engine kOf[] = {Engine::kTr, Engine::kCbm, Engine::kBfv,
                            Engine::kCdec};
  return kOf[static_cast<int>(e)];
}

ReachResult run(Engine e, sym::StateSpace& s, ReachOptions opts = {}) {
  opts.max_iterations = 2000;
  return runEngine(s, e, opts);
}

Netlist circuitByIndex(int idx) {
  switch (idx) {
    case 0:
      return circuit::makeCounter(4, 11);
    case 1:
      return circuit::makeJohnson(5);
    case 2:
      return circuit::makeLfsr(5);
    case 3:
      return circuit::makeTwinShift(4);
    case 4:
      return circuit::makeArbiter(4);
    case 5:
      return circuit::makeFifoCtrl(2);
    default:
      return circuit::makeRandomSeq(6, 3, 30, static_cast<std::uint64_t>(idx));
  }
}

class ReachMatrix
    : public ::testing::TestWithParam<
          std::tuple<int, OrderKind, MatrixEngine>> {};

TEST_P(ReachMatrix, CountsMatchExplicitOracle) {
  const auto [cidx, kind, matrix_engine] = GetParam();
  const Engine engine = engineOf(matrix_engine);
  const Netlist n = circuitByIndex(cidx);
  const auto oracle = circuit::explicitReach(n);
  ASSERT_TRUE(oracle.has_value());

  bdd::Manager m(0);
  sym::StateSpace space(m, n, circuit::makeOrder(n, {kind, 1}));
  const ReachResult r = run(engine, space);
  // Failure messages name the case: the ctest name shows only raw bytes.
  const std::string label = n.name() + " " + OrderSpec{kind, 1}.label() +
                            " " + tag(engine);
  ASSERT_EQ(r.status, RunStatus::kDone) << label;
  EXPECT_DOUBLE_EQ(r.states, static_cast<double>(oracle->size())) << label;
  // Each engine returns its reached set in its own representation only;
  // the test builds the other one.
  const bool vector_engine = engine == Engine::kBfv || engine == Engine::kCdec;
  ASSERT_EQ(r.reached_bfv.has_value(), vector_engine) << label;
  ASSERT_EQ(r.reached_chi.isNull(), vector_engine) << label;
  const bdd::Bdd chi =
      vector_engine ? r.reached_bfv->toChar() : r.reached_chi;
  const bfv::Bfv f = vector_engine
                         ? *r.reached_bfv
                         : bfv::fromChar(m, chi, space.currentVars());
  // The reached characteristic function must contain exactly the oracle
  // states.
  std::vector<bool> assignment(m.numVars(), false);
  const std::size_t nl = n.latches().size();
  for (std::uint64_t st = 0; st < (std::uint64_t{1} << nl); ++st) {
    for (std::size_t p = 0; p < nl; ++p) {
      assignment[space.currentVar(p)] = ((st >> p) & 1U) != 0;
    }
    const bool in_oracle =
        std::binary_search(oracle->begin(), oracle->end(), st);
    EXPECT_EQ(m.eval(chi, assignment), in_oracle) << label << " state " << st;
  }
  // Reached BFV is canonical and consistent with chi: the engine's own
  // form comes back from a round trip through the other one.
  std::string why;
  EXPECT_TRUE(f.checkCanonical(&why)) << label << ": " << why;
  if (vector_engine) {
    EXPECT_EQ(bfv::fromChar(m, chi, space.currentVars()), f) << label;
  } else {
    EXPECT_EQ(f.toChar(), chi) << label;
  }
  if (engine == Engine::kCdec) {
    EXPECT_EQ(cdec::Cdec::fromBfv(f).toChar(), chi) << label;
  }
  EXPECT_GT(r.iterations, 0U);
  EXPECT_GT(r.peak_live_nodes, 0U);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ReachMatrix,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(OrderKind::kNatural, OrderKind::kTopo,
                                         OrderKind::kReverse,
                                         OrderKind::kRandom),
                       ::testing::Values(MatrixEngine::kTr, MatrixEngine::kCbm,
                                         MatrixEngine::kBfv,
                                         MatrixEngine::kCdec)));

TEST(Reach, FrontierHeuristicDoesNotChangeTheResult) {
  const Netlist n = circuit::makeFifoCtrl(2);
  for (const Engine e : {Engine::kTr, Engine::kCbm, Engine::kBfv}) {
    bdd::Manager m1(0);
    sym::StateSpace s1(m1, n, circuit::makeOrder(n, {OrderKind::kTopo, 0}));
    ReachOptions reached;
    reached.frontier = FrontierPolicy::kReached;
    const ReachResult a = run(e, s1, reached);
    ASSERT_EQ(a.status, RunStatus::kDone);
    const std::size_t chi_nodes = reachedSizes(s1, a).chi_nodes;
    EXPECT_GT(chi_nodes, 0U) << tag(e);

    for (const FrontierPolicy p :
         {FrontierPolicy::kPaper, FrontierPolicy::kGuarded}) {
      bdd::Manager m2(0);
      sym::StateSpace s2(m2, n,
                         circuit::makeOrder(n, {OrderKind::kTopo, 0}));
      ReachOptions opts;
      opts.frontier = p;
      const ReachResult b = run(e, s2, opts);
      EXPECT_EQ(b.status, RunStatus::kDone);
      EXPECT_DOUBLE_EQ(a.states, b.states) << tag(e);
      EXPECT_EQ(a.iterations, b.iterations) << tag(e);
      EXPECT_EQ(chi_nodes, reachedSizes(s2, b).chi_nodes) << tag(e);
    }
  }
}

TEST(Reach, QuantScheduleDoesNotChangeTheResult) {
  const Netlist n = circuit::makeLfsr(6);
  ReachOptions a;
  a.reparam.schedule = bfv::QuantSchedule::kStaticOrder;
  ReachOptions b;
  b.reparam.schedule = bfv::QuantSchedule::kSupportCost;
  bdd::Manager m1(0);
  sym::StateSpace s1(m1, n, circuit::makeOrder(n, {OrderKind::kTopo, 0}));
  bdd::Manager m2(0);
  sym::StateSpace s2(m2, n, circuit::makeOrder(n, {OrderKind::kTopo, 0}));
  const ReachResult ra = run(Engine::kBfv, s1, a);
  const ReachResult rb = run(Engine::kBfv, s2, b);
  EXPECT_DOUBLE_EQ(ra.states, rb.states);
  ASSERT_TRUE(ra.reached_bfv.has_value());
  ASSERT_TRUE(rb.reached_bfv.has_value());
  EXPECT_EQ(ra.reached_bfv->sharedSize(), rb.reached_bfv->sharedSize());
}

TEST(Reach, NodeBudgetReportsMemOut) {
  const Netlist n = circuit::makeLfsr(10);
  bdd::Manager m(0);
  sym::StateSpace s(m, n, circuit::makeOrder(n, {OrderKind::kNatural, 0}));
  ReachOptions opts;
  opts.budget.max_live_nodes = 40;  // absurdly small
  const ReachResult r = reachTr(s, opts);
  EXPECT_EQ(r.status, RunStatus::kMemOut);
}

TEST(Reach, TimeBudgetReportsTimeOut) {
  const Netlist n = circuit::makeLfsr(12);
  bdd::Manager m(0);
  sym::StateSpace s(m, n, circuit::makeOrder(n, {OrderKind::kNatural, 0}));
  ReachOptions opts;
  opts.budget.max_seconds = 1e-9;
  const ReachResult r = reachBfv(s, opts);
  EXPECT_EQ(r.status, RunStatus::kTimeOut);
}

TEST(Reach, MaxIterationsStopsEarly) {
  const Netlist n = circuit::makeCounter(6, 64);
  bdd::Manager m(0);
  sym::StateSpace s(m, n, circuit::makeOrder(n, {OrderKind::kTopo, 0}));
  ReachOptions opts;
  opts.max_iterations = 3;
  const ReachResult r = reachTr(s, opts);
  EXPECT_EQ(r.iterations, 3U);
  EXPECT_LT(r.states, 64.0);
}

TEST(Reach, IterationCountsMatchCircuitDepth) {
  // A mod-2^k counter driven by one enable has diameter 2^k - 1; with the
  // image containing the predecessor set each iteration adds one state, so
  // all engines need ~2^k iterations.
  const Netlist n = circuit::makeCounter(4, 16);
  bdd::Manager m(0);
  sym::StateSpace s(m, n, circuit::makeOrder(n, {OrderKind::kTopo, 0}));
  const ReachResult r = run(Engine::kBfv, s);
  EXPECT_GE(r.iterations, 15U);
  EXPECT_LE(r.iterations, 17U);
}

TEST(Reach, BfvAndCdecBackendsProduceTheSameSet) {
  const Netlist n = circuit::makeTwinShift(5);
  bdd::Manager m1(0);
  sym::StateSpace s1(m1, n, circuit::makeOrder(n, {OrderKind::kNatural, 0}));
  bdd::Manager m2(0);
  sym::StateSpace s2(m2, n, circuit::makeOrder(n, {OrderKind::kNatural, 0}));
  const ReachResult a = run(Engine::kBfv, s1);
  const ReachResult b = run(Engine::kCdec, s2);
  EXPECT_DOUBLE_EQ(a.states, b.states);
  const ReachedSizes za = reachedSizes(s1, a);
  const ReachedSizes zb = reachedSizes(s2, b);
  EXPECT_GT(za.chi_nodes, 0U);
  EXPECT_EQ(za.bfv_nodes, zb.bfv_nodes);
  EXPECT_EQ(za.chi_nodes, zb.chi_nodes);
}

// ---------------------------------------------------------------------------
// Frontier policies. Any set between an iteration's new states and the
// reached set gives the same breadth-first levels, so kReached, kPaper and
// kGuarded may differ only in the set each iteration simulates from.

constexpr FrontierPolicy kPolicies[] = {
    FrontierPolicy::kReached, FrontierPolicy::kPaper, FrontierPolicy::kGuarded};

const char* policyName(FrontierPolicy p) {
  switch (p) {
    case FrontierPolicy::kReached:
      return "reached";
    case FrontierPolicy::kPaper:
      return "paper";
    case FrontierPolicy::kGuarded:
      return "guarded";
  }
  return "?";
}

const OrderSpec kPolicyOrders[] = {
    {OrderKind::kTopo, 0}, {OrderKind::kNatural, 0}, {OrderKind::kRandom, 1}};

/// Every shipped data/*.bench file (by file name), then the generated
/// long-diameter circuits whose images cover reached, and one random
/// circuit.
std::vector<std::string> policyCircuits() {
  std::vector<std::string> specs;
  for (const auto& e : std::filesystem::directory_iterator(BFVR_DATA_DIR)) {
    if (e.path().extension() == ".bench") {
      specs.push_back(e.path().filename().string());
    }
  }
  std::sort(specs.begin(), specs.end());
  for (const char* gen : {"gen:lfsr:10", "gen:counter:8:200", "gen:fifo:4",
                          "gen:twinshift:10", "gen:random:14:4:80:11"}) {
    specs.emplace_back(gen);
  }
  return specs;
}

/// One BFV run under a policy, checkpointed after every iteration.
struct LevelRun {
  ReachResult result;
  /// States reached after each completed non-final iteration.
  std::vector<double> reached_states;
  /// The set each iteration simulated from.
  std::vector<obs::FromSet> from;
};

/// Run `n` under `policy`, read back the checkpoint of every iteration, and
/// check that each checkpointed frontier lies between that iteration's new
/// states and its reached set (on their characteristic functions).
LevelRun runLevels(const Netlist& n, const OrderSpec& order,
                   FrontierPolicy policy, unsigned cap,
                   const std::string& label) {
  bdd::Manager m(0);
  sym::StateSpace s(m, n, circuit::makeOrder(n, order));
  const std::string path = test::processDir() + "/policy_levels.ckpt";
  std::remove(path.c_str());
  std::vector<std::vector<std::uint8_t>> images;
  const auto slurp = [&] {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      images.emplace_back(std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>());
    }
  };
  LevelRun out;
  ReachOptions opts;
  opts.frontier = policy;
  opts.max_iterations = cap;
  opts.checkpoint_every = 1;
  opts.checkpoint_path = path;
  // The hook runs before its iteration's checkpoint is written, so it reads
  // the previous iteration's; the read after the run gets the last one.
  opts.on_iteration = [&](const obs::IterationRecord& rec) {
    out.from.push_back(rec.from);
    slurp();
  };
  out.result = reachBfv(s, opts);
  slurp();
  std::remove(path.c_str());

  const auto chi = [&](const std::vector<Bdd>& comps, bool empty,
                       const std::vector<unsigned>& vars) {
    return empty ? m.zero()
                 : Bfv::fromComponents(m, vars, comps, /*trusted=*/true)
                       .toChar();
  };
  Bdd previous = sym::initialChar(s);
  for (const std::vector<std::uint8_t>& image : images) {
    const io::Checkpoint c = io::decode(image.data(), image.size(), m);
    if (c.iteration <= out.reached_states.size()) continue;  // read twice
    EXPECT_EQ(c.iteration, out.reached_states.size() + 1) << label;
    const Bdd reached = chi(c.reached, c.reached_empty, c.choice_vars);
    out.reached_states.push_back(m.satCount(reached, s.numLatches()));
    // kReached's frontier is reached and kPaper's an image; the check is
    // for the guarded policy's chi frontiers.
    if (policy == FrontierPolicy::kGuarded) {
      const Bdd from = chi(c.frontier, c.frontier_empty, c.choice_vars);
      EXPECT_TRUE((from & ~reached).isFalse())
          << label << " iteration " << c.iteration
          << ": frontier not in reached";
      EXPECT_TRUE((reached & ~previous & ~from).isFalse())
          << label << " iteration " << c.iteration
          << ": a new state is missing from the frontier";
    }
    previous = reached;
  }
  out.result.reached_bfv.reset();  // its handles die with this manager
  return out;
}

class PolicyLevels : public ::testing::TestWithParam<std::string> {};

TEST_P(PolicyLevels, AgreeAndBracketTheNewStates) {
  // Every iteration is checkpointed and checked, and the kReached runs
  // simulate from all of reached, so runs are capped to keep a sanitizer
  // build within a minute or two: generated circuits at 256 iterations
  // (all but lfsr10, with 1,023, reach their fixpoints), shipped files at
  // 128 (their LFSRs have 2^16 - 1 and 2^32 - 1 states).
  const bool generated = GetParam().rfind("gen:", 0) == 0;
  const Netlist n = run::resolveCircuit(
      generated ? GetParam() : std::string(BFVR_DATA_DIR) + "/" + GetParam());
  const unsigned cap = generated ? 256 : 128;
  std::size_t chi_iterations = 0;
  for (const OrderSpec& order : kPolicyOrders) {
    std::optional<LevelRun> ref;
    for (const FrontierPolicy p : kPolicies) {
      const std::string label =
          n.name() + " " + order.label() + " " + policyName(p);
      const LevelRun got = runLevels(n, order, p, cap, label);
      ASSERT_EQ(got.result.status, RunStatus::kDone) << label;
      ASSERT_EQ(got.from.size(), got.result.iterations) << label;
      // One checkpoint per iteration, but none after the converged one.
      EXPECT_GE(got.reached_states.size() + 1, got.result.iterations)
          << label;
      EXPECT_LE(got.reached_states.size(), got.result.iterations) << label;
      if (p != FrontierPolicy::kGuarded) {
        EXPECT_EQ(std::count(got.from.begin(), got.from.end(),
                             obs::FromSet::kChi),
                  0)
            << label;
      } else {
        chi_iterations += static_cast<std::size_t>(std::count(
            got.from.begin(), got.from.end(), obs::FromSet::kChi));
      }
      if (!ref) {
        ref = got;
        continue;
      }
      EXPECT_DOUBLE_EQ(got.result.states, ref->result.states) << label;
      EXPECT_EQ(got.result.iterations, ref->result.iterations) << label;
      EXPECT_EQ(got.reached_states, ref->reached_states) << label;
    }
  }
  // The generated counter, FIFO and LFSR put every state in its own image:
  // there the guarded policy must actually simulate from chi frontiers.
  for (const char* covering : {"gen:lfsr:", "gen:counter:", "gen:fifo:"}) {
    if (GetParam().rfind(covering, 0) == 0) {
      EXPECT_GT(chi_iterations, 0U) << GetParam();
    }
  }
}

std::string circuitTestName(const ::testing::TestParamInfo<std::string>& i) {
  std::string stem = std::filesystem::path(i.param).stem().string();
  for (char& c : stem) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return stem;
}

INSTANTIATE_TEST_SUITE_P(FrontierPolicy, PolicyLevels,
                         ::testing::ValuesIn(policyCircuits()),
                         circuitTestName);

TEST(Reach, GuardedFrontierNeverPaysForAChiItCannotKeep) {
  // Circuits whose reached vector never outgrows its width: the guarded
  // policy must not even start a chi, so it spends exactly kPaper's work.
  const std::string data = BFVR_DATA_DIR;
  for (const std::string& spec :
       {std::string("gen:twinshift:16"), std::string("gen:twinshift:18"),
        data + "/crc8.bench", data + "/crc16.bench"}) {
    const Netlist n = run::resolveCircuit(spec);
    for (const OrderSpec& order : kPolicyOrders) {
      ReachResult r[2];
      for (const FrontierPolicy p :
           {FrontierPolicy::kPaper, FrontierPolicy::kGuarded}) {
        bdd::Manager m(0);
        sym::StateSpace s(m, n, circuit::makeOrder(n, order));
        ReachOptions opts;
        opts.frontier = p;
        r[p == FrontierPolicy::kGuarded] = reachBfv(s, opts);
        r[p == FrontierPolicy::kGuarded].reached_bfv.reset();
      }
      const std::string label = n.name() + " " + order.label();
      ASSERT_EQ(r[1].status, RunStatus::kDone) << label;
      EXPECT_EQ(r[1].iterations, r[0].iterations) << label;
      EXPECT_EQ(r[1].ops.recursive_steps, r[0].ops.recursive_steps) << label;
      EXPECT_EQ(r[1].peak_live_nodes, r[0].peak_live_nodes) << label;
      if (spec == "gen:twinshift:16" && order.kind == OrderKind::kTopo) {
        EXPECT_EQ(r[1].ops.recursive_steps, 80U);
        EXPECT_EQ(r[1].peak_live_nodes, 34U);
      }
    }
  }
}

TEST(Reach, GuardedChiFrontierLeavesItsModeForGood) {
  // No shipped circuit trips the guard, so drive the BFV ops by hand with a
  // set whose chi outgrows its vector: components i and i + 8 equal for
  // i < 8 (the twin pattern, pairs far apart in the order) times an
  // irregular set of the last 8 components.
  const Netlist n = circuit::makeCounter(24, 1 << 24);
  bdd::Manager m(0);
  sym::StateSpace s(m, n, circuit::makeOrder(n, {OrderKind::kNatural, 0}));
  const std::vector<unsigned>& v = s.currentVars();
  ASSERT_EQ(v.size(), 24U);
  Bdd twin = m.one();
  for (unsigned i = 0; i < 8; ++i) twin &= m.xnorB(m.var(v[i]), m.var(v[i + 8]));
  const auto tailValue = [&](unsigned k) {
    Bdd cube = m.one();
    for (unsigned b = 0; b < 8; ++b) {
      cube &= (k >> b) & 1 ? m.var(v[16 + b]) : ~m.var(v[16 + b]);
    }
    return cube;
  };
  Bdd tail = m.zero();
  for (unsigned k = 0; k < 256; k += 3) {
    if ((k * 37) % 5 != 0) tail |= tailValue(k);
  }
  // Three successive reached sets, each covered by the next image.
  const Bfv small = bfv::fromChar(m, twin & tail & ~m.var(v[0]), v);
  const Bfv big = bfv::fromChar(m, twin & tail, v);
  const Bfv bigger = bfv::fromChar(m, twin & (tail | tailValue(1)), v);
  ASSERT_GT(big.sharedSize(), big.width());
  ASSERT_GT(m.nodeCount(twin & tail),
            4 * (bigger.sharedSize() + bigger.width()));

  ReachOptions opts;  // FrontierPolicy::kGuarded
  internal::RunGuard guard(m, opts.budget);
  internal::Tracer tracer(m, opts, guard);
  internal::BfvOps ops(s, opts, guard);
  Bfv out;
  // Entry: the image covers reached; this iteration still weighs the image.
  const internal::News<Bfv> entry =
      ops.newStates(big, small, big, out, tracer);
  EXPECT_EQ(entry.kind, obs::FromSet::kImage);
  EXPECT_EQ(&entry.set, &big);
  // The mode's first iteration needs chi(reached), which outgrows the
  // bound: the guard trips and the image is weighed as under kPaper.
  const internal::News<Bfv> trip =
      ops.newStates(bigger, big, bigger, out, tracer);
  EXPECT_EQ(trip.kind, obs::FromSet::kImage);
  EXPECT_EQ(&trip.set, &bigger);
  EXPECT_TRUE(out.isNull());
  // For good: the next covering image builds no chi at all.
  const std::uint64_t steps = m.stats().recursive_steps;
  ops.newStates(big, small, big, out, tracer);
  const internal::News<Bfv> after =
      ops.newStates(bigger, big, bigger, out, tracer);
  EXPECT_EQ(after.kind, obs::FromSet::kImage);
  EXPECT_EQ(m.stats().recursive_steps, steps);
  EXPECT_TRUE(out.isNull());
}

TEST(Reach, GuardedRunKilledInChiModeResumesToTheSameFixpoint) {
  // The chi of reached is not in the checkpoint: a resumed run starts
  // outside the mode and re-enters it, on the same levels.
  for (const char* spec : {"gen:lfsr:10", "gen:counter:8:200", "gen:fifo:4"}) {
    const Netlist n = run::resolveCircuit(spec);
    const OrderSpec order{OrderKind::kTopo, 0};
    ReachResult ref;
    {
      bdd::Manager m(0);
      sym::StateSpace s(m, n, circuit::makeOrder(n, order));
      ref = reachBfv(s, {});
      ref.reached_bfv.reset();
    }
    ASSERT_EQ(ref.status, RunStatus::kDone) << spec;
    const std::string path = test::processDir() + "/guarded_killed.ckpt";
    {
      bdd::Manager m(0);
      sym::StateSpace s(m, n, circuit::makeOrder(n, order));
      ReachOptions opts;
      opts.checkpoint_every = 1;
      opts.checkpoint_path = path;
      opts.max_iterations = ref.iterations / 2;
      obs::FromSet last = obs::FromSet::kReached;
      opts.on_iteration = [&](const obs::IterationRecord& rec) {
        last = rec.from;
      };
      const ReachResult killed = reachBfv(s, opts);
      ASSERT_EQ(killed.iterations, ref.iterations / 2) << spec;
      EXPECT_EQ(last, obs::FromSet::kChi) << spec << ": not killed mid-mode";
    }
    bdd::Manager m(0);
    sym::StateSpace s(m, n, circuit::makeOrder(n, order));
    const io::Checkpoint c = io::load(path, m);
    ReachOptions opts;
    opts.resume = &c;
    const ReachResult resumed = runEngine(s, Engine::kBfv, opts);
    std::remove(path.c_str());
    EXPECT_EQ(resumed.status, RunStatus::kDone) << spec;
    EXPECT_EQ(resumed.iterations, ref.iterations) << spec;
    EXPECT_DOUBLE_EQ(resumed.states, ref.states) << spec;
  }
}

}  // namespace
}  // namespace bfvr::reach

// The reachability engines (TR, CBM, and the Fig. 2 engine's BFV and CDEC
// backends) against the explicit-state oracle, across circuits, variable
// orders and engine options.
#include <gtest/gtest.h>

#include "cdec/cdec.hpp"
#include "circuit/concrete_sim.hpp"
#include "circuit/generators.hpp"
#include "reach/engine.hpp"

namespace bfvr::reach {
namespace {

using circuit::Netlist;
using circuit::OrderKind;
using circuit::OrderSpec;

enum class Engine { kTr, kCbm, kBfv, kCdec };

const char* name(Engine e) {
  switch (e) {
    case Engine::kTr:
      return "tr";
    case Engine::kCbm:
      return "cbm";
    case Engine::kBfv:
      return "bfv";
    case Engine::kCdec:
      return "cdec";
  }
  return "?";
}

ReachResult run(Engine e, sym::StateSpace& s, ReachOptions opts = {}) {
  opts.max_iterations = 2000;
  switch (e) {
    case Engine::kTr:
      return reachTr(s, opts);
    case Engine::kCbm:
      return reachCbm(s, opts);
    case Engine::kBfv:
      opts.backend = SetBackend::kBfv;
      return reachBfv(s, opts);
    case Engine::kCdec:
      opts.backend = SetBackend::kCdec;
      return reachBfv(s, opts);
  }
  throw std::logic_error("bad engine");
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
    : public ::testing::TestWithParam<std::tuple<int, OrderKind, Engine>> {};

TEST_P(ReachMatrix, CountsMatchExplicitOracle) {
  const auto [cidx, kind, engine] = GetParam();
  const Netlist n = circuitByIndex(cidx);
  const auto oracle = circuit::explicitReach(n);
  ASSERT_TRUE(oracle.has_value());

  bdd::Manager m(0);
  sym::StateSpace space(m, n, circuit::makeOrder(n, {kind, 1}));
  const ReachResult r = run(engine, space);
  // Failure messages name the case: the ctest name shows only raw bytes.
  const std::string label = n.name() + " " + OrderSpec{kind, 1}.label() +
                            " " + name(engine);
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
                       ::testing::Values(Engine::kTr, Engine::kCbm,
                                         Engine::kBfv, Engine::kCdec)));

TEST(Reach, FrontierHeuristicDoesNotChangeTheResult) {
  const Netlist n = circuit::makeFifoCtrl(2);
  for (const Engine e : {Engine::kTr, Engine::kCbm, Engine::kBfv}) {
    bdd::Manager m1(0);
    sym::StateSpace s1(m1, n, circuit::makeOrder(n, {OrderKind::kTopo, 0}));
    ReachOptions with;
    with.use_frontier = true;
    const ReachResult a = run(e, s1, with);

    bdd::Manager m2(0);
    sym::StateSpace s2(m2, n, circuit::makeOrder(n, {OrderKind::kTopo, 0}));
    ReachOptions without;
    without.use_frontier = false;
    const ReachResult b = run(e, s2, without);

    EXPECT_EQ(a.status, RunStatus::kDone);
    EXPECT_EQ(b.status, RunStatus::kDone);
    EXPECT_DOUBLE_EQ(a.states, b.states) << name(e);
    const std::size_t chi_nodes = reachedSizes(s1, a).chi_nodes;
    EXPECT_GT(chi_nodes, 0U) << name(e);
    EXPECT_EQ(chi_nodes, reachedSizes(s2, b).chi_nodes) << name(e);
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

}  // namespace
}  // namespace bfvr::reach

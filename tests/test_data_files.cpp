// The shipped .bench files in data/ parse and verify end to end — the same
// path a user takes with the original ISCAS89 distributions.
#include <gtest/gtest.h>

#include "circuit/bench_io.hpp"
#include "circuit/concrete_sim.hpp"
#include "reach/engine.hpp"

#ifndef BFVR_DATA_DIR
#define BFVR_DATA_DIR "data"
#endif

namespace bfvr {
namespace {

class DataFiles : public ::testing::TestWithParam<const char*> {};

TEST_P(DataFiles, ParsesAndValidates) {
  const std::string path = std::string(BFVR_DATA_DIR) + "/" + GetParam();
  const circuit::Netlist n = circuit::parseBenchFile(path);
  EXPECT_GT(n.latches().size(), 0U);
  EXPECT_GT(n.outputs().size(), 0U);
  EXPECT_NO_THROW(n.validate());
  // Round-trips.
  const circuit::Netlist back =
      circuit::parseBenchString(circuit::toBench(n), "rt");
  EXPECT_EQ(back.latches().size(), n.latches().size());
}

// Engine `e` on a fresh topo-ordered manager, cut at six iterations so the
// largest shipped circuits stay cheap.
reach::ReachResult runCapped(const circuit::Netlist& n, reach::Engine e) {
  bdd::Manager m(0);
  sym::StateSpace s(m, n,
                    circuit::makeOrder(n, {circuit::OrderKind::kTopo, 0}));
  reach::ReachOptions opts;
  opts.max_iterations = 6;
  opts.budget.max_seconds = 30.0;
  return reach::runEngine(s, e, opts);
}

// The same capped prefix of every shipped circuit under every BDD engine:
// all four must report the same status, iteration count and state count.
TEST_P(DataFiles, EnginesAgreeOnCappedReach) {
  const circuit::Netlist n = circuit::parseBenchFile(
      std::string(BFVR_DATA_DIR) + "/" + GetParam());
  const reach::ReachResult ref = runCapped(n, reach::Engine::kTr);
  for (const reach::Engine e :
       {reach::Engine::kCbm, reach::Engine::kBfv, reach::Engine::kCdec}) {
    const reach::ReachResult r = runCapped(n, e);
    EXPECT_EQ(to_string(r.status), to_string(ref.status)) << reach::tag(e);
    EXPECT_EQ(r.iterations, ref.iterations) << reach::tag(e);
    EXPECT_DOUBLE_EQ(r.states, ref.states) << reach::tag(e);
  }
}

INSTANTIATE_TEST_SUITE_P(Shipped, DataFiles,
                         ::testing::Values("arb4.bench", "cnt8m200.bench",
                                           "crc8.bench", "crc16.bench",
                                           "fifo3.bench", "johnson8.bench",
                                           "lfsr16.bench", "lfsr32.bench",
                                           "twin6.bench"));

TEST(DataFiles, ReachabilityAgreesWithOracleOnParsedCircuit) {
  const circuit::Netlist n =
      circuit::parseBenchFile(std::string(BFVR_DATA_DIR) + "/twin6.bench");
  const auto oracle = circuit::explicitReach(n);
  ASSERT_TRUE(oracle.has_value());
  bdd::Manager m(0);
  sym::StateSpace s(m, n,
                    circuit::makeOrder(n, {circuit::OrderKind::kTopo, 0}));
  const reach::ReachResult r = reach::reachBfv(s, {});
  ASSERT_EQ(r.status, RunStatus::kDone);
  EXPECT_DOUBLE_EQ(r.states, static_cast<double>(oracle->size()));
}

TEST(DataFiles, ParsedCircuitSimulatesLikeItsSource) {
  const circuit::Netlist n =
      circuit::parseBenchFile(std::string(BFVR_DATA_DIR) + "/cnt8m200.bench");
  const circuit::ConcreteSim sim(n);
  std::vector<bool> st(n.latches().size(), false);
  for (int i = 0; i < 250; ++i) st = sim.step(st, {true});
  unsigned v = 0;
  for (unsigned i = 0; i < 8; ++i) {
    if (st[i]) v |= 1U << i;
  }
  EXPECT_EQ(v, 250U % 200U);
}

}  // namespace
}  // namespace bfvr

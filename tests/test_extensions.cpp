// The hybrid split/conjoin engine, search-based ordering, and the newer
// generator circuits.
#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <set>

#include "circuit/concrete_sim.hpp"
#include "circuit/generators.hpp"
#include "reach/engine.hpp"
#include "sym/ordersearch.hpp"

namespace bfvr {
namespace {

using circuit::Netlist;
using circuit::OrderKind;

class HybridMatrix : public ::testing::TestWithParam<int> {};

TEST_P(HybridMatrix, AgreesWithOracle) {
  const int idx = GetParam();
  Netlist n = [&] {
    switch (idx) {
      case 0:
        return circuit::makeCounter(4, 13);
      case 1:
        return circuit::makeJohnson(5);
      case 2:
        return circuit::makeTwinShift(4);
      case 3:
        return circuit::makeFifoCtrl(2);
      case 4:
        return circuit::makeGrayCounter(4);
      default:
        return circuit::makeRandomSeq(6, 3, 30,
                                      static_cast<std::uint64_t>(idx));
    }
  }();
  const auto oracle = circuit::explicitReach(n);
  ASSERT_TRUE(oracle.has_value());
  for (const OrderKind kind :
       {OrderKind::kTopo, OrderKind::kNatural, OrderKind::kReverse}) {
    bdd::Manager m(0);
    sym::StateSpace s(m, n, circuit::makeOrder(n, {kind, 2}));
    reach::ReachOptions opts;
    opts.max_iterations = 2000;
    const reach::ReachResult r = reach::reachHybrid(s, opts);
    ASSERT_EQ(r.status, RunStatus::kDone);
    EXPECT_DOUBLE_EQ(r.states, static_cast<double>(oracle->size()))
        << n.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, HybridMatrix, ::testing::Range(0, 7));

TEST(Hybrid, MatchesTrEngineExactly) {
  const Netlist n = circuit::makeFifoCtrl(3);
  bdd::Manager m1(0);
  sym::StateSpace s1(m1, n, circuit::makeOrder(n, {OrderKind::kTopo, 0}));
  bdd::Manager m2(0);
  sym::StateSpace s2(m2, n, circuit::makeOrder(n, {OrderKind::kTopo, 0}));
  const reach::ReachResult a = reach::reachTr(s1, {});
  const reach::ReachResult b = reach::reachHybrid(s2, {});
  EXPECT_DOUBLE_EQ(a.states, b.states);
  ASSERT_FALSE(a.reached_chi.isNull());
  ASSERT_FALSE(b.reached_chi.isNull());
  EXPECT_EQ(m1.nodeCount(a.reached_chi), m2.nodeCount(b.reached_chi));
}

TEST(OrderSearch, NeverWorsensTheCost) {
  for (const Netlist& n :
       {circuit::makeTwinShift(5), circuit::makeFifoCtrl(2),
        circuit::makeRandomSeq(8, 3, 40, 5)}) {
    const auto start = circuit::makeOrder(n, {OrderKind::kReverse, 0});
    const std::size_t before = sym::orderCost(n, start, 1U << 22);
    sym::OrderSearchOptions opts;
    opts.passes = 2;
    const auto found = sym::searchOrder(n, start, opts);
    const std::size_t after = sym::orderCost(n, found, 1U << 22);
    EXPECT_LE(after, before) << n.name();
    // The result is still a valid order (StateSpace accepts it).
    bdd::Manager m(0);
    EXPECT_NO_THROW(sym::StateSpace(m, n, found));
  }
}

TEST(OrderSearch, ImprovesABadRandomOrder) {
  // A random order on the FIFO controller scatters the pointer/counter
  // bits; one hill-climbing pass must find something strictly better.
  const Netlist n = circuit::makeFifoCtrl(3);
  const auto start = circuit::makeOrder(n, {OrderKind::kRandom, 3});
  const std::size_t before = sym::orderCost(n, start, 1U << 22);
  const auto found = sym::searchOrder(n, start, {});
  const std::size_t after = sym::orderCost(n, found, 1U << 22);
  EXPECT_LT(after, before);
}

TEST(OrderSearch, RespectsEvaluationBudget) {
  const Netlist n = circuit::makeTwinShift(6);
  const auto order = circuit::makeOrder(n, {OrderKind::kNatural, 0});
  EXPECT_EQ(sym::orderCost(n, order, 2),
            std::numeric_limits<std::size_t>::max());
}

class GraySweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(GraySweep, CountsAllStatesOneBitAtATime) {
  const unsigned bits = GetParam();
  const Netlist n = circuit::makeGrayCounter(bits);
  const circuit::ConcreteSim sim(n);
  std::vector<bool> s = sim.initialState();
  std::set<std::uint64_t> seen;
  auto pack = [&] {
    std::uint64_t x = 0;
    for (unsigned i = 0; i < bits; ++i) {
      if (s[i]) x |= std::uint64_t{1} << i;
    }
    return x;
  };
  seen.insert(pack());
  for (unsigned step = 0; step < (1U << bits); ++step) {
    const std::uint64_t before = pack();
    s = sim.step(s, {true});
    const std::uint64_t after = pack();
    EXPECT_EQ(std::popcount(before ^ after), 1) << "not a Gray transition";
    seen.insert(after);
  }
  EXPECT_EQ(seen.size(), std::size_t{1} << bits);  // full cycle
  // Disabled: holds.
  EXPECT_EQ(sim.step(s, {false}), s);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GraySweep, ::testing::Values(2U, 3U, 4U, 6U));

class CrcSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(CrcSweep, AllStatesReachableWithShortDiameter) {
  const unsigned bits = GetParam();
  const Netlist n = circuit::makeCrc(bits);
  const auto r = circuit::explicitReach(n);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->size(), std::size_t{1} << bits);
  // Symbolic check: BFS depth is exactly `bits` (a shift register is fully
  // controllable through its serial input).
  bdd::Manager m(0);
  sym::StateSpace s(m, n, circuit::makeOrder(n, {OrderKind::kTopo, 0}));
  const reach::ReachResult rr = reach::reachBfv(s, {});
  EXPECT_EQ(rr.status, RunStatus::kDone);
  EXPECT_DOUBLE_EQ(rr.states, static_cast<double>(std::size_t{1} << bits));
  EXPECT_LE(rr.iterations, bits + 1U);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CrcSweep, ::testing::Values(3U, 4U, 5U, 8U));

TEST(Generators, GrayAndCrcValidateParameters) {
  EXPECT_THROW((void)circuit::makeGrayCounter(1), std::invalid_argument);
  EXPECT_THROW((void)circuit::makeCrc(13), std::invalid_argument);
}

}  // namespace
}  // namespace bfvr

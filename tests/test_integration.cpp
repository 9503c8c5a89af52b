// End-to-end stories: invariant checking with BFV set algebra, the paper's
// ordering-robustness claim, and cross-representation size relations.
#include <gtest/gtest.h>

#include "circuit/concrete_sim.hpp"
#include "circuit/generators.hpp"
#include "reach/engine.hpp"

namespace bfvr {
namespace {

using bfv::Bfv;
using circuit::Netlist;
using circuit::OrderKind;
using reach::ReachOptions;
using reach::ReachResult;

TEST(Integration, ArbiterPointerOneHotInvariant) {
  // AG "pointer is one-hot": reach with the BFV engine, intersect with the
  // bad set (pointer not one-hot) — must be empty. No negation is needed on
  // the BFV side: the bad set is built from a characteristic function.
  const Netlist n = circuit::makeArbiter(4);
  bdd::Manager m(0);
  sym::StateSpace s(m, n, circuit::makeOrder(n, {OrderKind::kTopo, 0}));
  ReachOptions opts;
  const ReachResult r = reach::reachBfv(s, opts);
  ASSERT_EQ(r.status, RunStatus::kDone);

  // Bad set: not exactly one pointer bit set.
  bdd::Bdd one_hot = m.zero();
  for (std::size_t i = 0; i < 4; ++i) {
    bdd::Bdd cube = m.one();
    for (std::size_t j = 0; j < 4; ++j) {
      const bdd::Bdd v = m.var(s.currentVar(j));
      cube &= (i == j) ? v : ~v;
    }
    one_hot |= cube;
  }
  const Bfv bad = bfv::fromChar(m, ~one_hot, s.currentVars());
  ASSERT_FALSE(bad.isEmpty());
  EXPECT_TRUE(setIntersect(*r.reached_bfv, bad).isEmpty());
}

TEST(Integration, TwinShiftBanksAlwaysAgree) {
  const Netlist n = circuit::makeTwinShift(5);
  bdd::Manager m(0);
  sym::StateSpace s(m, n, circuit::makeOrder(n, {OrderKind::kNatural, 0}));
  const ReachResult r = reach::reachBfv(s, {});
  ASSERT_EQ(r.status, RunStatus::kDone);
  // Bad set: some a_i != b_i.
  bdd::Bdd mismatch = m.zero();
  for (std::size_t i = 0; i < 5; ++i) {
    mismatch |= m.var(s.currentVar(i)) ^ m.var(s.currentVar(5 + i));
  }
  const Bfv bad = bfv::fromChar(m, mismatch, s.currentVars());
  EXPECT_TRUE(setIntersect(*r.reached_bfv, bad).isEmpty());
}

TEST(Integration, CounterUpperBoundViolationFound) {
  // A mod-11 counter CAN reach 10 — the intersection with "count >= 10"
  // must be non-empty (sanity that intersections do find real violations).
  const Netlist n = circuit::makeCounter(4, 11);
  bdd::Manager m(0);
  sym::StateSpace s(m, n, circuit::makeOrder(n, {OrderKind::kNatural, 0}));
  const ReachResult r = reach::reachBfv(s, {});
  ASSERT_EQ(r.status, RunStatus::kDone);
  // count >= 10 over latch-order bits (q1 & q3) | (q2 & q3) | ... : encode
  // by enumeration.
  bdd::Bdd ge10 = m.zero();
  for (unsigned v = 10; v < 16; ++v) {
    bdd::Bdd cube = m.one();
    for (std::size_t p = 0; p < 4; ++p) {
      const bdd::Bdd var = m.var(s.currentVar(p));
      cube &= ((v >> p) & 1U) != 0 ? var : ~var;
    }
    ge10 |= cube;
  }
  const Bfv bad = bfv::fromChar(m, ge10, s.currentVars());
  const Bfv hits = setIntersect(*r.reached_bfv, bad);
  ASSERT_FALSE(hits.isEmpty());
  EXPECT_DOUBLE_EQ(hits.countStates(), 1.0);  // exactly the state 10
}

TEST(Integration, TwinShiftSizesShowTheTable3Effect) {
  // With the twin banks maximally separated in the order, the reached
  // set's characteristic function is exponential in the bank width while
  // the shared BFV stays linear (§3 / Table 3).
  const unsigned bits = 8;
  const Netlist n = circuit::makeTwinShift(bits);
  bdd::Manager m(0);
  sym::StateSpace s(m, n, circuit::makeOrder(n, {OrderKind::kNatural, 0}));
  const ReachResult r = reach::reachBfv(s, {});
  ASSERT_EQ(r.status, RunStatus::kDone);
  EXPECT_DOUBLE_EQ(r.states, 256.0);
  const reach::ReachedSizes z = reach::reachedSizes(s, r);
  EXPECT_GT(z.chi_nodes, std::size_t{1} << bits);  // exponential blowup
  EXPECT_LE(z.bfv_nodes, 4U * bits);               // linear
}

TEST(Integration, TwinShiftInterleavedOrderShrinksChi) {
  // The same circuit under an interleaved order has a small chi: the
  // ordering-sensitivity half of the §3 discussion.
  const unsigned bits = 8;
  const Netlist n = circuit::makeTwinShift(bits);
  // Hand-build the interleaved order: d, a0, b0, a1, b1, ...
  std::vector<circuit::ObjRef> order;
  order.push_back({true, 0});
  for (unsigned i = 0; i < bits; ++i) {
    order.push_back({false, i});
    order.push_back({false, bits + i});
  }
  bdd::Manager m(0);
  sym::StateSpace s(m, n, order);
  const ReachResult r = reach::reachTr(s, {});
  ASSERT_EQ(r.status, RunStatus::kDone);
  EXPECT_DOUBLE_EQ(r.states, 256.0);
  const reach::ReachedSizes z = reach::reachedSizes(s, r);
  EXPECT_GT(z.bfv_nodes, 0U);
  EXPECT_LE(z.chi_nodes, 4U * bits);  // linear under the good order
  EXPECT_LE(z.bfv_nodes, 4U * bits);  // BFV is small under EVERY order
}

TEST(Integration, ReachedSetMembershipQueries) {
  const Netlist n = circuit::makeJohnson(4);
  bdd::Manager m(0);
  sym::StateSpace s(m, n, circuit::makeOrder(n, {OrderKind::kTopo, 0}));
  const ReachResult r = reach::reachBfv(s, {});
  ASSERT_EQ(r.status, RunStatus::kDone);
  const auto oracle = circuit::explicitReach(n);
  ASSERT_TRUE(oracle.has_value());
  // Query every state (latch order -> component order mapping applied).
  for (std::uint64_t st = 0; st < 16; ++st) {
    std::vector<bool> bits(4);
    for (std::size_t c = 0; c < 4; ++c) {
      bits[c] = ((st >> s.latchOfComponent(c)) & 1U) != 0;
    }
    const bool expect =
        std::binary_search(oracle->begin(), oracle->end(), st);
    EXPECT_EQ(r.reached_bfv->contains(bits), expect) << st;
  }
}

TEST(Integration, ConcatenatedCircuitsReachProductSet) {
  const Netlist n = circuit::concatenate(circuit::makeCounter(3, 5),
                                         circuit::makeJohnson(3), "prod");
  bdd::Manager m(0);
  sym::StateSpace s(m, n, circuit::makeOrder(n, {OrderKind::kTopo, 0}));
  const ReachResult r = reach::reachBfv(s, {});
  ASSERT_EQ(r.status, RunStatus::kDone);
  EXPECT_DOUBLE_EQ(r.states, 30.0);
}

TEST(Integration, CbmAndBfvEnginesAgreeOnSizesOfReachedSet) {
  const Netlist n = circuit::makeFifoCtrl(2);
  bdd::Manager m1(0);
  sym::StateSpace s1(m1, n, circuit::makeOrder(n, {OrderKind::kTopo, 0}));
  bdd::Manager m2(0);
  sym::StateSpace s2(m2, n, circuit::makeOrder(n, {OrderKind::kTopo, 0}));
  const ReachResult a = reach::reachCbm(s1, {});
  const ReachResult b = reach::reachBfv(s2, {});
  ASSERT_EQ(a.status, RunStatus::kDone);
  ASSERT_EQ(b.status, RunStatus::kDone);
  // Same set, same order, same canonical representations -> same sizes.
  // CBM returns the chi and BFV the vector; each side converts the other.
  EXPECT_DOUBLE_EQ(a.states, b.states);
  const reach::ReachedSizes za = reach::reachedSizes(s1, a);
  const reach::ReachedSizes zb = reach::reachedSizes(s2, b);
  EXPECT_GT(za.chi_nodes, 0U);
  EXPECT_GT(za.bfv_nodes, 0U);
  EXPECT_EQ(za.chi_nodes, zb.chi_nodes);
  EXPECT_EQ(za.bfv_nodes, zb.bfv_nodes);
}

}  // namespace
}  // namespace bfvr

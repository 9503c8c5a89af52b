// Differential harness: the logical-zonotope engine against the BDD
// engines and the explicit-state oracle.
//
// Two regimes, per the subsystem contract:
//  * <= 20 state variables: exhaustive enumeration (explicitReach) is the
//    oracle. Exact-class results must equal the oracle set; lossy results
//    must contain it.
//  * above that: the BDD engines are the oracle. Each zonotope member of
//    the lz reached set converts to a characteristic BDD (the coset is
//    dims - rank parity constraints over the current-state variables), the
//    members OR together, and containment is the BDD implication
//    chi_bdd AND NOT chi_lz == false — no enumeration anywhere.
#include <gtest/gtest.h>

#include <string>

#include "bdd/bdd.hpp"
#include "circuit/bench_io.hpp"
#include "circuit/concrete_sim.hpp"
#include "circuit/generators.hpp"
#include "circuit/orders.hpp"
#include "lz/lz_reach.hpp"
#include "reach/engine.hpp"
#include "sym/space.hpp"

#ifndef BFVR_DATA_DIR
#define BFVR_DATA_DIR "data"
#endif

namespace bfvr {
namespace {

circuit::Netlist fromData(const char* name) {
  return circuit::parseBenchFile(std::string(BFVR_DATA_DIR) + "/" + name);
}

lz::Bits rowFromMask(unsigned dims, std::uint64_t mask) {
  lz::Bits b(lz::wordsFor(dims), 0);
  b[0] = mask;
  return b;
}

/// Characteristic function of one reduced zonotope over the space's
/// current-state variables. In canonical form generator i is the only row
/// with its pivot bit p_i set and the center is 0 there, so beta_i = x[p_i]
/// and membership is exactly the parity equation
///   x[j] = c[j] XOR XOR_i g_i[j] * x[p_i]
/// for every non-pivot dimension j.
bdd::Bdd zonoChi(bdd::Manager& m, const sym::StateSpace& s,
                 const lz::GeneratorSet& z) {
  const unsigned dims = z.dims();
  std::vector<bool> is_pivot(dims, false);
  std::vector<unsigned> pivot(z.rank());
  for (unsigned i = 0; i < z.rank(); ++i) {
    pivot[i] = lz::lowestSetBit(z.generators()[i]);
    is_pivot[pivot[i]] = true;
  }
  bdd::Bdd chi = m.one();
  for (unsigned j = 0; j < dims; ++j) {
    if (is_pivot[j]) continue;
    bdd::Bdd rhs = lz::getBit(z.center(), j) ? m.one() : m.zero();
    for (unsigned i = 0; i < z.rank(); ++i) {
      if (lz::getBit(z.generators()[i], j)) {
        rhs ^= m.var(s.currentVar(pivot[i]));
      }
    }
    chi &= ~(m.var(s.currentVar(j)) ^ rhs);
  }
  return chi;
}

bdd::Bdd pointChi(bdd::Manager& m, const sym::StateSpace& s,
                  const lz::Bits& p, unsigned dims) {
  bdd::Bdd chi = m.one();
  for (unsigned j = 0; j < dims; ++j) {
    const bdd::Bdd v = m.var(s.currentVar(j));
    chi &= lz::getBit(p, j) ? v : ~v;
  }
  return chi;
}

/// The whole lz reached set as one characteristic BDD.
bdd::Bdd lzChi(bdd::Manager& m, const sym::StateSpace& s,
               const lz::StateSet& set) {
  bdd::Bdd u = m.zero();
  for (const lz::GeneratorSet& z : set.zonos) u |= zonoChi(m, s, z);
  for (const std::uint64_t p : set.points) {
    u |= pointChi(m, s, rowFromMask(set.dims, p), set.dims);
  }
  for (const lz::Bits& p : set.wide_points) u |= pointChi(m, s, p, set.dims);
  return u;
}

// --- regime 1: exhaustive enumeration, <= 20 state variables --------------

TEST(LzDiff, ExhaustiveAgainstOracleOnShippedCircuits) {
  for (const char* name : {"arb4.bench", "cnt8m200.bench", "crc8.bench",
                           "fifo3.bench", "johnson8.bench", "twin6.bench"}) {
    const circuit::Netlist n = fromData(name);
    const lz::LzResult r = lz::lzReach(n);
    const auto oracle = circuit::explicitReach(n);
    ASSERT_TRUE(oracle.has_value()) << name;
    const unsigned dims = static_cast<unsigned>(n.latches().size());

    // Soundness on every circuit: nothing reachable is ever lost.
    for (std::uint64_t st : *oracle) {
      ASSERT_TRUE(r.reached.containsPoint(rowFromMask(dims, st)))
          << name << " lost state " << st;
    }
    if (r.exact) {
      // Exact class: the count pins the set to exactly the oracle.
      ASSERT_EQ(r.status, RunStatus::kDone) << name;
      EXPECT_DOUBLE_EQ(r.states, static_cast<double>(oracle->size()))
          << name;
    } else {
      ASSERT_EQ(r.status, RunStatus::kInconclusive) << name;
      EXPECT_GE(r.states, static_cast<double>(oracle->size())) << name;
    }
  }
}

TEST(LzDiff, ExhaustiveAgainstOracleOnGenerators) {
  const circuit::Netlist circuits[] = {
      circuit::makeLfsrFree(8), circuit::makeLfsrFree(12),
      circuit::makeCrc(8), circuit::makeJohnson(8),
      circuit::makeTwinShift(8), circuit::makeFifoCtrl(3),
      circuit::makeRandomSeq(10, 3, 40, 5)};
  for (const circuit::Netlist& n : circuits) {
    const lz::LzResult r = lz::lzReach(n);
    const auto oracle = circuit::explicitReach(n);
    ASSERT_TRUE(oracle.has_value()) << n.name();
    const unsigned dims = static_cast<unsigned>(n.latches().size());
    for (std::uint64_t st : *oracle) {
      ASSERT_TRUE(r.reached.containsPoint(rowFromMask(dims, st)))
          << n.name() << " lost state " << st;
    }
    if (r.exact) {
      EXPECT_DOUBLE_EQ(r.states, static_cast<double>(oracle->size()))
          << n.name();
    } else {
      EXPECT_GE(r.states, static_cast<double>(oracle->size())) << n.name();
    }
  }
}

// --- regime 2: BDD containment, > 20 state variables ----------------------

TEST(LzDiff, BddEquivalenceOnWideAffineCircuit) {
  // twin14: 28 latches, past the 20-variable enumeration cutoff, and a
  // reached set that is a proper affine subspace (rank 14 of 28 dims), so
  // the parity-constraint conversion is exercised for real. The BDD
  // engine computes the reached set; the lz set must be exactly the same
  // set, proven by BDD implication in both directions. The BFV engine is
  // the one that completes the twin family (the chi-based TR flow is
  // exactly what blows up on it); the test converts its reached vector to
  // chi.
  const circuit::Netlist n = circuit::makeTwinShift(14);
  const lz::LzResult z = lz::lzReach(n);
  ASSERT_EQ(z.status, RunStatus::kDone);
  ASSERT_TRUE(z.exact);

  bdd::Manager m(0);
  sym::StateSpace s(m, n,
                    circuit::makeOrder(n, {circuit::OrderKind::kTopo, 0}));
  const reach::ReachResult b = reach::reachBfv(s, {});
  ASSERT_EQ(b.status, RunStatus::kDone);
  ASSERT_TRUE(b.reached_bfv.has_value());
  EXPECT_DOUBLE_EQ(b.states, z.states);

  const bdd::Bdd chi = b.reached_bfv->toChar();
  const bdd::Bdd u = lzChi(m, s, z.reached);
  EXPECT_TRUE((chi & ~u).isFalse());  // chi subseteq lz
  EXPECT_TRUE((u & ~chi).isFalse());  // lz subseteq chi
}

TEST(LzDiff, BddEquivalenceOnCappedLfsr32) {
  // 32 state variables, equal iteration caps: the 301-state prefix must be
  // the identical set, not just the identical count.
  const circuit::Netlist n = fromData("lfsr32.bench");
  lz::LzOptions lo;
  lo.max_iterations = 300;
  const lz::LzResult z = lz::lzReach(n, lo);
  ASSERT_EQ(z.status, RunStatus::kDone);
  ASSERT_TRUE(z.exact);

  bdd::Manager m(0);
  sym::StateSpace s(m, n,
                    circuit::makeOrder(n, {circuit::OrderKind::kTopo, 0}));
  reach::ReachOptions ro;
  ro.max_iterations = 300;
  const reach::ReachResult b = reach::reachTr(s, ro);
  ASSERT_EQ(b.status, RunStatus::kDone);
  ASSERT_FALSE(b.reached_chi.isNull());
  EXPECT_DOUBLE_EQ(b.states, z.states);

  const bdd::Bdd u = lzChi(m, s, z.reached);
  EXPECT_TRUE((b.reached_chi & ~u).isFalse());
  EXPECT_TRUE((u & ~b.reached_chi).isFalse());
}

TEST(LzDiff, BddContainmentOnLossyCircuit) {
  // Non-affine circuit: the lz set is allowed to be bigger, never smaller.
  // johnson8's enable/reset control logic makes it lossy; the BDD chi must
  // imply the lz characteristic function.
  const circuit::Netlist n = fromData("johnson8.bench");
  const lz::LzResult z = lz::lzReach(n);
  ASSERT_EQ(z.status, RunStatus::kInconclusive);

  bdd::Manager m(0);
  sym::StateSpace s(m, n,
                    circuit::makeOrder(n, {circuit::OrderKind::kTopo, 0}));
  const reach::ReachResult b = reach::reachTr(s, {});
  ASSERT_EQ(b.status, RunStatus::kDone);
  ASSERT_FALSE(b.reached_chi.isNull());

  const bdd::Bdd u = lzChi(m, s, z.reached);
  EXPECT_TRUE((b.reached_chi & ~u).isFalse());
  // And the over-approximation is real here: strictly bigger.
  EXPECT_FALSE((u & ~b.reached_chi).isFalse());
  EXPECT_GT(z.states, b.states);
}

}  // namespace
}  // namespace bfvr

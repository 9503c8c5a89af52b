// Structural queries: support, node counting, minterm counting, evaluation
// and cube extraction.
#include <gtest/gtest.h>

#include <bit>

#include "support/brute.hpp"

namespace bfvr::bdd {
namespace {

using test::bddFromTruth;
using test::randomTruth;

const std::vector<unsigned> kVars{0, 1, 2, 3};

class CountSweep : public ::testing::TestWithParam<int> {};

TEST_P(CountSweep, SatCountMatchesPopcount) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 211 + 9);
  Manager m(4);
  const std::uint64_t tt = randomTruth(rng, 4);
  const Bdd f = bddFromTruth(m, kVars, tt);
  EXPECT_DOUBLE_EQ(m.satCount(f, 4), static_cast<double>(std::popcount(tt)));
  // Complement counts the complement.
  EXPECT_DOUBLE_EQ(m.satCount(~f, 4), 16.0 - std::popcount(tt));
  // Over a wider space every extra variable doubles the count.
  EXPECT_DOUBLE_EQ(m.satCount(f, 6), 4.0 * std::popcount(tt));
}

TEST_P(CountSweep, PickCubeSatisfies) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 61 + 17);
  Manager m(4);
  std::uint64_t tt = randomTruth(rng, 4);
  if (tt == 0) tt = 1;
  const Bdd f = bddFromTruth(m, kVars, tt);
  const auto cube = m.pickCube(f);
  std::vector<bool> assignment(m.numVars(), false);
  for (std::size_t i = 0; i < cube.size(); ++i) {
    assignment[i] = cube[i] == 1;
  }
  EXPECT_TRUE(m.eval(f, assignment));
}

TEST_P(CountSweep, EvalMatchesTruthTable) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 5 + 23);
  Manager m(4);
  const std::uint64_t tt = randomTruth(rng, 4);
  const Bdd f = bddFromTruth(m, kVars, tt);
  for (unsigned a = 0; a < 16; ++a) {
    std::vector<bool> x(4);
    for (unsigned j = 0; j < 4; ++j) x[j] = ((a >> j) & 1U) != 0;
    EXPECT_EQ(m.eval(f, x), ((tt >> a) & 1U) != 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CountSweep, ::testing::Range(0, 30));

TEST(BddCount, SupportExactness) {
  Manager m(8);
  const Bdd f = (m.var(1) & m.var(3)) | (m.var(5) ^ m.var(3));
  EXPECT_EQ(m.support(f), (std::vector<unsigned>{1, 3, 5}));
  EXPECT_EQ(m.supportCube(f), m.var(1) & m.var(3) & m.var(5));
  EXPECT_TRUE(m.support(m.one()).empty());
  EXPECT_TRUE(m.support(m.zero()).empty());
}

TEST(BddCount, SupportDropsCancelledVariables) {
  Manager m(4);
  const Bdd f = (m.var(0) & m.var(1)) | (~m.var(0) & m.var(1));
  EXPECT_EQ(m.support(f), std::vector<unsigned>{1});
}

TEST(BddCount, NodeCountIncludesTerminal) {
  Manager m(4);
  EXPECT_EQ(m.nodeCount(m.one()), 1U);
  EXPECT_EQ(m.nodeCount(m.zero()), 1U);
  EXPECT_EQ(m.nodeCount(m.var(0)), 2U);
  EXPECT_EQ(m.nodeCount(m.var(0) & m.var(1)), 3U);
  // XOR over k variables has 2k-1 internal nodes with complement edges...
  // at least it is strictly larger than the AND chain.
  const Bdd x = m.var(0) ^ m.var(1) ^ m.var(2);
  EXPECT_GE(m.nodeCount(x), 4U);
}

TEST(BddCount, SharedNodeCountSharesSubgraphs) {
  Manager m(6);
  const Bdd common = m.var(2) & m.var(3);
  const Bdd f = m.var(0) | common;
  const Bdd g = m.var(1) | common;
  const Bdd fs[] = {f, g};
  const std::size_t shared = m.sharedNodeCount(fs);
  EXPECT_LT(shared, m.nodeCount(f) + m.nodeCount(g));
  EXPECT_GE(shared, m.nodeCount(f));
}

TEST(BddCount, SharedNodeCountOfDisjointFunctionsAdds) {
  Manager m(4);
  const Bdd f = m.var(0);
  const Bdd g = m.var(1);
  const Bdd fs[] = {f, g};
  // 2 var nodes + 1 shared terminal.
  EXPECT_EQ(m.sharedNodeCount(fs), 3U);
}

TEST(BddCount, SatCountOfConstants) {
  Manager m(4);
  EXPECT_DOUBLE_EQ(m.satCount(m.one(), 4), 16.0);
  EXPECT_DOUBLE_EQ(m.satCount(m.zero(), 4), 0.0);
  EXPECT_DOUBLE_EQ(m.satCount(m.one(), 0), 1.0);
}

TEST(BddCount, SatCountIsExactOnSparseWideFunctions) {
  // A minterm of 64 variables with mixed polarities: along its complement
  // edges the satisfying fraction goes through 1 - p with p below 2^-53,
  // which a double cannot hold exactly.
  Manager m(64);
  Bdd cube = m.one();
  for (unsigned v = 0; v < 64; ++v) cube &= (v % 3 == 0) ? m.var(v) : m.nvar(v);
  EXPECT_EQ(m.satCount(cube, 64), 1.0);
  EXPECT_EQ(m.satCount(cube | (m.var(0) & m.var(63)), 64), 0x1p62);
  EXPECT_EQ(m.satCount(~cube, 64), 0x1p64);  // 2^64 - 1, rounded once
  EXPECT_EQ(m.satCount(m.one(), 64), 0x1p64);
}

TEST(BddCount, PickCubeOfZeroThrows) {
  Manager m(2);
  EXPECT_THROW((void)m.pickCube(m.zero()), std::invalid_argument);
}

TEST(BddCount, PickCubeLeavesDontCares) {
  Manager m(4);
  const auto cube = m.pickCube(m.var(1));
  EXPECT_EQ(cube[1], 1);
  EXPECT_EQ(cube[0], -1);
  EXPECT_EQ(cube[2], -1);
}

TEST(BddCount, DotOutputMentionsLabels) {
  Manager m(4);
  const Bdd f = m.var(0) & ~m.var(1);
  const Bdd fs[] = {f};
  const std::string labels[] = {"myfunc"};
  const std::string dot = m.toDot(fs, labels);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("myfunc"), std::string::npos);
  EXPECT_NE(dot.find("v1"), std::string::npos);
}

}  // namespace
}  // namespace bfvr::bdd

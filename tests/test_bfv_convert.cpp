// Conversions between characteristic functions and canonical BFVs — the
// operations the Fig. 1 flow pays for on every iteration.
#include <gtest/gtest.h>

#include "support/brute.hpp"
#include "support/count_cases.hpp"

namespace bfvr::bfv {
namespace {

using test::Set;

const std::vector<unsigned> kVars{0, 1, 2, 3};

class ConvertSweep : public ::testing::TestWithParam<int> {};

TEST_P(ConvertSweep, RoundTripThroughChar) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 449 + 3);
  Manager m(4);
  Set s = test::randomSet(rng, 4, 1, 2);
  const Bfv f = test::bfvOf(m, kVars, s);
  const Bdd chi = f.toChar();
  EXPECT_DOUBLE_EQ(m.satCount(chi, 4), static_cast<double>(s.size()));
  const Bfv back = fromChar(m, chi, kVars);
  EXPECT_EQ(back, f);
}

TEST_P(ConvertSweep, FromCharMatchesMembers) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 631 + 7);
  Manager m(4);
  const std::uint64_t tt = test::randomTruth(rng, 4);
  const Bdd chi = test::bddFromTruth(m, kVars, tt);
  const Bfv f = fromChar(m, chi, kVars);
  Set want;
  for (unsigned a = 0; a < 16; ++a) {
    if (((tt >> a) & 1U) != 0) want.insert(a);
  }
  if (want.empty()) {
    EXPECT_TRUE(f.isEmpty());
  } else {
    std::string why;
    EXPECT_TRUE(f.checkCanonical(&why)) << why;
    EXPECT_EQ(test::setOf(f), want);
    EXPECT_EQ(f.toChar(), chi);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvertSweep, ::testing::Range(0, 25));

TEST(BfvConvert, FromCharOfConstants) {
  Manager m(3);
  const std::vector<unsigned> vars{0, 1, 2};
  EXPECT_TRUE(fromChar(m, m.zero(), vars).isEmpty());
  EXPECT_EQ(fromChar(m, m.one(), vars), Bfv::universe(m, vars));
}

TEST(BfvConvert, FromCharOfCube) {
  Manager m(3);
  const std::vector<unsigned> vars{0, 1, 2};
  const Bdd chi = m.var(0) & ~m.var(2);
  const Bfv f = fromChar(m, chi, vars);
  const signed char cube[] = {1, -1, 0};
  EXPECT_EQ(f, Bfv::cubeSet(m, vars, cube));
}

TEST(BfvConvert, ToCharIsConjunctiveDecompositionIdentity) {
  // §2.7: chi == AND_i (v_i XNOR f_i) for canonical vectors.
  Manager m(4);
  Rng rng(91);
  const Set s = test::randomSet(rng, 4, 1, 2);
  if (s.empty()) GTEST_SKIP();
  const Bfv f = test::bfvOf(m, kVars, s);
  Bdd chi = m.one();
  for (unsigned i = 0; i < 4; ++i) {
    chi &= m.xnorB(m.var(kVars[i]), f.comps()[i]);
  }
  EXPECT_EQ(chi, f.toChar());
}

TEST(BfvConvert, FunctionalDependenciesFactorOut) {
  // chi = (v0 == v1) & (v2 == v3): the BFV represents the dependent bits
  // as copies, staying linear where chi pairs variables.
  Manager m(4);
  const Bdd chi = m.xnorB(m.var(0), m.var(1)) & m.xnorB(m.var(2), m.var(3));
  const Bfv f = fromChar(m, chi, kVars);
  EXPECT_EQ(f.comps()[0], m.var(0));
  EXPECT_EQ(f.comps()[1], m.var(0));  // forced copy of component 0
  EXPECT_EQ(f.comps()[2], m.var(2));
  EXPECT_EQ(f.comps()[3], m.var(2));
  EXPECT_LE(f.sharedSize(), 3U);
}

TEST(BfvConvert, CountStatesAgreesWithSatCount) {
  Manager m(4);
  Rng rng(5);
  for (int t = 0; t < 10; ++t) {
    const Set s = test::randomSet(rng, 4, 1, 2);
    if (s.empty()) continue;
    const Bfv f = test::bfvOf(m, kVars, s);
    EXPECT_DOUBLE_EQ(f.countStates(), static_cast<double>(s.size()));
  }
  // The chi-free count against satCount of the characteristic function, on
  // widths 1..64, the empty set, singletons, the 2^64 universe and every
  // shipped circuit's reached set.
  int cases = 0;
  test::forEachCountCase([&](const Bfv& f, const std::string& label) {
    ++cases;
    const double want = f.manager()->satCount(f.toChar(), f.width());
    test::expectCountAgrees(f.countStates(), want, label);
  });
  EXPECT_GT(cases, 64 * 15);
}


TEST(BfvConvert, ReorderComponentsPreservesTheSet) {
  Manager m(4);
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    Set s = test::randomSet(rng, 4, 1, 2);
    if (s.empty()) s.insert(3);
    const Bfv f = test::bfvOf(m, kVars, s);
    // Reverse the component order, onto the same variables.
    const unsigned perm[] = {3, 2, 1, 0};
    const Bfv g = reorderComponents(f, perm, kVars);
    std::string why;
    ASSERT_TRUE(g.checkCanonical(&why)) << why;
    // New component j carries old component perm[j]: members have their
    // coordinates reversed.
    Set expect;
    for (std::uint64_t x : s) {
      std::uint64_t y = 0;
      for (unsigned j = 0; j < 4; ++j) {
        if (((x >> perm[j]) & 1U) != 0) y |= std::uint64_t{1} << j;
      }
      expect.insert(y);
    }
    EXPECT_EQ(test::setOf(g), expect);
    // Reordering back round-trips.
    EXPECT_EQ(reorderComponents(g, perm, kVars), f);
  }
}

TEST(BfvConvert, ReorderComponentsIdentityPermutation) {
  Manager m(4);
  Rng rng(3);
  const Set s = test::randomSet(rng, 4, 1, 2);
  if (s.empty()) GTEST_SKIP();
  const Bfv f = test::bfvOf(m, kVars, s);
  const unsigned perm[] = {0, 1, 2, 3};
  EXPECT_EQ(reorderComponents(f, perm, kVars), f);
}

TEST(BfvConvert, ReorderComponentsOntoFreshVariables) {
  Manager m(8);
  const std::vector<unsigned> old_vars{0, 1, 2, 3};
  const std::vector<unsigned> new_vars{4, 5, 6, 7};
  const Bfv f = Bfv::point(m, old_vars, {true, false, true, true});
  const unsigned perm[] = {1, 0, 3, 2};
  const Bfv g = reorderComponents(f, perm, new_vars);
  EXPECT_EQ(g, Bfv::point(m, new_vars, {false, true, true, true}));
}

TEST(BfvConvert, ReorderComponentsValidatesArguments) {
  Manager m(4);
  const Bfv f = Bfv::universe(m, kVars);
  const unsigned not_perm[] = {0, 0, 1, 2};
  EXPECT_THROW((void)reorderComponents(f, not_perm, kVars),
               std::invalid_argument);
  const unsigned short_perm[] = {0, 1};
  EXPECT_THROW((void)reorderComponents(f, short_perm, kVars),
               std::invalid_argument);
  EXPECT_TRUE(
      reorderComponents(Bfv::emptySet(m, kVars),
                        std::vector<unsigned>{0, 1, 2, 3}, kVars)
          .isEmpty());
}

TEST(BfvConvert, ReorderCanChangeSharedSize) {
  // Pairing structure: a set where adjacent components are coupled is
  // small; interleaving the coupled pairs apart grows the vector — the
  // size sensitivity the paper's future-work reordering aims to exploit.
  Manager m(8);
  const std::vector<unsigned> vars{0, 1, 2, 3, 4, 5};
  bdd::Bdd chi = m.one();
  chi &= m.xnorB(m.var(0), m.var(1));
  chi &= m.xnorB(m.var(2), m.var(3));
  chi &= m.xnorB(m.var(4), m.var(5));
  const Bfv paired = fromChar(m, chi, vars);
  const unsigned separate[] = {0, 2, 4, 1, 3, 5};
  const Bfv separated = reorderComponents(paired, separate, vars);
  EXPECT_DOUBLE_EQ(separated.countStates(), paired.countStates());
  EXPECT_GE(separated.sharedSize(), paired.sharedSize());
}

}  // namespace
}  // namespace bfvr::bfv

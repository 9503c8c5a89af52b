// Composition, vector composition and variable renaming.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "support/between.hpp"
#include "support/brute.hpp"

namespace bfvr::bdd {
namespace {

using test::Between;
using test::bddFromTruth;
using test::betweenName;
using test::randomTruth;
using test::truthOf;

const std::vector<unsigned> kVars{0, 1, 2, 3};

class ComposeSweep : public ::testing::TestWithParam<int> {};

TEST_P(ComposeSweep, ComposeMatchesShannonExpansion) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 17 + 11);
  Manager m(4);
  const Bdd f = bddFromTruth(m, kVars, randomTruth(rng, 4));
  const Bdd g = bddFromTruth(m, kVars, randomTruth(rng, 4));
  for (unsigned j = 0; j < 4; ++j) {
    // f[v_j <- g] == (g & f|v=1) | (~g & f|v=0)
    const Bdd expect = (g & m.cofactor(f, j, true)) |
                       (~g & m.cofactor(f, j, false));
    EXPECT_EQ(m.compose(f, j, g), expect);
  }
}

TEST_P(ComposeSweep, VectorComposeIsSimultaneous) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 13 + 7);
  Manager m(6);
  const Bdd f = bddFromTruth(m, {0, 1}, randomTruth(rng, 2));
  // Substitute v0 <- v1, v1 <- v0 simultaneously: a swap, NOT a chain.
  std::vector<Bdd> map(2);
  map[0] = m.var(1);
  map[1] = m.var(0);
  const Bdd swapped = m.vectorCompose(f, map);
  const unsigned perm[] = {1, 0};
  EXPECT_EQ(swapped, m.permute(f, perm));
}

TEST(BddCompose, SimultaneousSwapDiffersFromChained) {
  Manager m(4);
  const Bdd f = m.var(0) & ~m.var(1);
  std::vector<Bdd> map(2);
  map[0] = m.var(1);
  map[1] = m.var(0);
  // Simultaneous swap: v1 & ~v0.
  EXPECT_EQ(m.vectorCompose(f, map), m.var(1) & ~m.var(0));
  // Chained substitution collapses to false: (v1 & ~v1) then [v1 <- v0].
  const Bdd chained = m.compose(m.compose(f, 0, m.var(1)), 1, m.var(0));
  EXPECT_TRUE(chained.isFalse());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComposeSweep, ::testing::Range(0, 30));

TEST(BddCompose, ComposeWithConstantsIsCofactor) {
  Manager m(4);
  const Bdd f = (m.var(0) & m.var(1)) ^ m.var(2);
  EXPECT_EQ(m.compose(f, 1, m.one()), m.cofactor(f, 1, true));
  EXPECT_EQ(m.compose(f, 1, m.zero()), m.cofactor(f, 1, false));
}

TEST(BddCompose, ComposeAbsentVariableIsIdentity) {
  Manager m(4);
  const Bdd f = m.var(0) & m.var(1);
  EXPECT_EQ(m.compose(f, 3, m.var(2)), f);
}

TEST(BddCompose, ComposeUpwardSubstitution) {
  // Substituting a function of an EARLIER variable for a later one must
  // still produce an ordered result.
  Manager m(4);
  const Bdd f = m.var(2) & m.var(3);
  const Bdd g = m.var(0) | m.var(1);
  const Bdd r = m.compose(f, 3, g);
  EXPECT_EQ(r, m.var(2) & (m.var(0) | m.var(1)));
}

TEST(BddCompose, PermuteRenamesBanks) {
  // Interleaved banks v={0,2,4}, u={1,3,5}: rename u->v.
  Manager m(6);
  const Bdd f = (m.var(1) & m.var(3)) | m.var(5);
  std::vector<unsigned> perm{0, 0, 2, 2, 4, 4};
  const Bdd r = m.permute(f, perm);
  EXPECT_EQ(r, (m.var(0) & m.var(2)) | m.var(4));
}

TEST(BddCompose, PermuteIdentity) {
  Manager m(4);
  const Bdd f = m.var(0) ^ m.var(3);
  const unsigned perm[] = {0, 1, 2, 3};
  EXPECT_EQ(m.permute(f, perm), f);
}

TEST(BddCompose, PermuteRoundTrip) {
  Manager m(6);
  const Bdd f = (m.var(0) & m.var(2)) ^ m.var(4);
  const unsigned up[] = {1, 0, 3, 2, 5, 4};
  EXPECT_EQ(m.permute(m.permute(f, up), up), f);
}

TEST(BddCompose, VectorComposeNullEntriesAreIdentity) {
  Manager m(4);
  const Bdd f = m.var(0) & m.var(1) & m.var(2);
  std::vector<Bdd> map(3);
  map[1] = m.var(3);
  EXPECT_EQ(m.vectorCompose(f, map), m.var(0) & m.var(3) & m.var(2));
}

TEST(BddCompose, VectorComposeOnConstants) {
  Manager m(4);
  std::vector<Bdd> map(2, m.var(3));
  EXPECT_EQ(m.vectorCompose(m.one(), map), m.one());
  EXPECT_EQ(m.vectorCompose(m.zero(), map), m.zero());
}

// ---- permute and vectorCompose against exhaustive evaluation --------------

/// The source bank of the rename tests: f lives on variables 0..5 of a
/// 12-variable manager, so a permutation can move it up, spread it out or
/// turn it upside down.
const std::vector<unsigned> kBank{0, 1, 2, 3, 4, 5};
constexpr unsigned kWide = 12;

/// Renamings of kBank (identity elsewhere). The first two keep the
/// relative order of the renamed variables, the last two invert it; the
/// last one renames the bank onto itself, so it must be simultaneous.
const std::vector<std::vector<unsigned>> kPerms{
    {6, 7, 8, 9, 10, 11},
    {0, 2, 4, 6, 8, 10},
    {11, 10, 9, 8, 7, 6},
    {5, 4, 3, 2, 1, 0},
};

/// got(x) == f(y) for all 2^kWide assignments x, where y_i = x_{perm[i]}.
void expectRenamed(Manager& m, const Bdd& f, const Bdd& got,
                   const std::vector<unsigned>& perm) {
  std::vector<bool> x(kWide), y(kWide);
  for (std::uint32_t a = 0; a < (1U << kWide); ++a) {
    for (unsigned j = 0; j < kWide; ++j) x[j] = ((a >> j) & 1U) != 0;
    for (unsigned i = 0; i < kWide; ++i) {
      y[i] = x[i < perm.size() ? perm[i] : i];
    }
    ASSERT_EQ(m.eval(got, x), m.eval(f, y)) << "assignment " << a;
  }
}

/// What happens to the manager between two rounds of renaming.
class PermuteBetween : public ::testing::TestWithParam<Between> {
 protected:
  void disturb(Manager& m) { test::disturb(m, GetParam()); }
};

TEST_P(PermuteBetween, KeptAndInvertedOrdersMatchEval) {
  Rng rng(29);
  Manager m(kWide);
  for (int round = 0; round < 6; ++round) {
    const std::uint64_t tt = randomTruth(rng, 6);
    {
      const Bdd f = bddFromTruth(m, kBank, tt);
      std::vector<Bdd> first;
      for (const auto& perm : kPerms) {
        first.push_back(m.permute(f, perm));
        expectRenamed(m, f, first.back(), perm);
        // A complemented root renames to the complement.
        EXPECT_EQ(m.permute(~f, perm), ~first.back());
      }
      disturb(m);
      for (std::size_t k = 0; k < kPerms.size(); ++k) {
        const Bdd again = m.permute(~f, kPerms[k]);
        EXPECT_EQ(again, ~first[k]);
        expectRenamed(m, ~f, again, kPerms[k]);
      }
    }
    if (GetParam() != Between::kReset) continue;
    ASSERT_TRUE(m.resetForReuse());
    // The ids restart from 0: taken in reverse, every permutation gets an
    // id another one had before the reset.
    const Bdd f = bddFromTruth(m, kBank, tt);
    for (std::size_t k = kPerms.size(); k-- > 0;) {
      expectRenamed(m, ~f, m.permute(~f, kPerms[k]), kPerms[k]);
    }
  }
}

TEST_P(PermuteBetween, AlternatingPermutationsNeverShareAnEntry) {
  Rng rng(31);
  Manager m(kWide);
  const std::vector<unsigned>& keep = kPerms[0];
  const std::vector<unsigned>& invert = kPerms[2];
  const std::uint64_t tt = randomTruth(rng, 6) | 0x10;  // not constant
  const auto alternate = [&](const Bdd& f, const Bdd& a, const Bdd& b) {
    for (int k = 0; k < 6; ++k) {
      const std::uint64_t steps = m.stats().recursive_steps;
      EXPECT_EQ(m.permute(f, k % 2 == 0 ? keep : invert), k % 2 == 0 ? a : b)
          << "call " << k;
      // Both results are cached under their own id: a repeat is a hit.
      EXPECT_EQ(m.stats().recursive_steps, steps) << "call " << k;
    }
  };
  {
    const Bdd f = bddFromTruth(m, kBank, tt);
    const Bdd a = m.permute(f, keep);
    const Bdd b = m.permute(f, invert);
    ASSERT_NE(a, b);
    expectRenamed(m, f, a, keep);
    expectRenamed(m, f, b, invert);
    alternate(f, a, b);
    disturb(m);
    if (GetParam() == Between::kNothing) alternate(f, a, b);
    if (GetParam() != Between::kReset) {
      // gc() and reorder() clear the cache: one round recomputes.
      EXPECT_EQ(m.permute(f, keep), a);
      EXPECT_EQ(m.permute(f, invert), b);
      alternate(f, a, b);
    }
  }
  if (GetParam() != Between::kReset) return;
  ASSERT_TRUE(m.resetForReuse());
  const Bdd f = bddFromTruth(m, kBank, tt);
  const Bdd b = m.permute(f, invert);  // id 0 now, as `keep` had before
  const Bdd a = m.permute(f, keep);
  expectRenamed(m, f, a, keep);
  expectRenamed(m, f, b, invert);
  alternate(f, a, b);
}

INSTANTIATE_TEST_SUITE_P(Disturbed, PermuteBetween,
                         ::testing::Values(Between::kNothing, Between::kGc,
                                           Between::kSift, Between::kReset),
                         betweenName);

TEST(BddCompose, PermuteTableRecyclesWithoutAliasing) {
  // More distinct permutations than the table keeps: every one must still
  // rename correctly when it comes round again.
  Manager m(kWide);
  const Bdd f = bddFromTruth(m, kBank, 0x6996'A55A'3CC3'0FF0ULL);
  std::vector<std::vector<unsigned>> perms;
  std::vector<unsigned> p{6, 7, 8, 9, 10, 11};
  for (unsigned s = 0; s < 40; ++s) {
    std::next_permutation(p.begin(), p.end());
    perms.push_back(p);
    // Trailing identity entries name the same permutation.
    for (unsigned i = 0; i < s % 3; ++i) {
      perms.back().push_back(static_cast<unsigned>(perms.back().size()));
    }
  }
  for (int round = 0; round < 2; ++round) {
    for (const auto& q : perms) expectRenamed(m, f, m.permute(f, q), q);
  }
}

/// vectorCompose(f, map)(x) == f(y) for all 2^n assignments x, where y_i
/// is map[i](x) for a substituted variable and x_i otherwise.
void expectComposed(Manager& m, const Bdd& f, const Bdd& got,
                    const std::vector<Bdd>& map, unsigned n) {
  std::vector<bool> x(n), y(n);
  for (std::uint32_t a = 0; a < (1U << n); ++a) {
    for (unsigned j = 0; j < n; ++j) x[j] = ((a >> j) & 1U) != 0;
    for (unsigned i = 0; i < n; ++i) {
      y[i] = i < map.size() && !map[i].isNull() ? m.eval(map[i], x) : x[i];
    }
    ASSERT_EQ(m.eval(got, x), m.eval(f, y)) << "assignment " << a;
  }
}

TEST_P(ComposeSweep, VectorComposeWithFunctionsAndPartialMaps) {
  // f over variables 0..5; substitutes are random functions of 2..7 (so
  // they reach above and below the variable they replace), on a random
  // subset of f's variables, with maps shorter than, as long as and
  // longer than the variable count.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 41 + 3);
  constexpr unsigned n = 8;
  Manager m(n);
  const std::vector<unsigned> low{0, 1, 2, 3, 4, 5};
  const std::vector<unsigned> high{2, 3, 4, 5, 6, 7};
  const Bdd f = bddFromTruth(m, low, randomTruth(rng, 6));
  for (const std::size_t size : {4U, n, n + 3}) {
    std::vector<Bdd> map(size);
    for (std::size_t i = 0; i < std::min<std::size_t>(size, 6); ++i) {
      if (rng.chance(2, 3)) map[i] = bddFromTruth(m, high, randomTruth(rng, 6));
    }
    const Bdd got = m.vectorCompose(f, map);
    expectComposed(m, f, got, map, n);
    EXPECT_EQ(m.vectorCompose(~f, map), ~got);
  }
}

TEST(BddCompose, VectorComposeMatchesComposeThroughFreshVariables) {
  // Simultaneous substitution equals sequential compose when every
  // substitute is first parked on a fresh variable: f[v_i <- t_i], then
  // t_i <- g_i. Substitutes here are whole functions, not variables.
  Rng rng(5);
  Manager m(12);
  const std::vector<unsigned> src{0, 1, 2, 3, 4, 5};
  const Bdd f = bddFromTruth(m, src, randomTruth(rng, 6));
  std::vector<Bdd> map(6);
  Bdd chained = f;
  for (unsigned i : {1U, 3U, 4U}) {
    map[i] = bddFromTruth(m, src, randomTruth(rng, 6));
    chained = m.compose(chained, i, m.var(6 + i));
  }
  for (unsigned i : {1U, 3U, 4U}) chained = m.compose(chained, 6 + i, map[i]);
  EXPECT_EQ(m.vectorCompose(f, map), chained);
}

}  // namespace
}  // namespace bfvr::bdd

// §2.3 set union, validated exhaustively for width 2 and by randomized
// sweeps for widths 3..5.
#include <gtest/gtest.h>

#include "bfv/internal.hpp"
#include "support/brute.hpp"
#include "support/reference_union.hpp"

namespace bfvr::bfv {
namespace {

using test::Set;

TEST(BfvUnion, ExhaustiveWidth2) {
  const std::vector<unsigned> vars{0, 1};
  for (unsigned am = 0; am < 16; ++am) {
    for (unsigned bm = 0; bm < 16; ++bm) {
      Manager m(2);
      Set a;
      Set b;
      for (unsigned x = 0; x < 4; ++x) {
        if (((am >> x) & 1U) != 0) a.insert(x);
        if (((bm >> x) & 1U) != 0) b.insert(x);
      }
      const Bfv fa = test::bfvOf(m, vars, a);
      const Bfv fb = test::bfvOf(m, vars, b);
      const Bfv fu = setUnion(fa, fb);
      ASSERT_EQ(test::setOf(fu), test::setUnionOf(a, b))
          << "a=" << am << " b=" << bm;
      ASSERT_TRUE(fu.checkCanonical());
      // Canonical: result equals direct construction.
      ASSERT_EQ(fu, test::bfvOf(m, vars, test::setUnionOf(a, b)));
      if (!a.empty() && !b.empty()) {
        ASSERT_EQ(internal::unionCore(m, vars, fa.comps(), fb.comps()),
                  test::referenceUnionCore(m, vars, fa.comps(), fb.comps()))
            << "a=" << am << " b=" << bm;
      }
    }
  }
}

class UnionSweep : public ::testing::TestWithParam<std::tuple<unsigned, int>> {
};

TEST_P(UnionSweep, MatchesBruteForce) {
  const unsigned n = std::get<0>(GetParam());
  Rng rng(static_cast<std::uint64_t>(std::get<1>(GetParam())) * 1009 + n);
  std::vector<unsigned> vars(n);
  for (unsigned i = 0; i < n; ++i) vars[i] = i;
  Manager m(n);
  const Set a = test::randomSet(rng, n, 1, 3);
  const Set b = test::randomSet(rng, n, 1, 3);
  const Bfv fa = test::bfvOf(m, vars, a);
  const Bfv fb = test::bfvOf(m, vars, b);
  const Bfv fu = setUnion(fa, fb);
  std::string why;
  EXPECT_TRUE(fu.checkCanonical(&why)) << why;
  EXPECT_EQ(test::setOf(fu), test::setUnionOf(a, b));
  // Commutativity in the canonical representation.
  EXPECT_EQ(fu, setUnion(fb, fa));
  // Same handles as the pre-region-split sweep, in both operand orders.
  if (!fa.isEmpty() && !fb.isEmpty()) {
    EXPECT_EQ(internal::unionCore(m, vars, fa.comps(), fb.comps()),
              test::referenceUnionCore(m, vars, fa.comps(), fb.comps()));
    EXPECT_EQ(internal::unionCore(m, vars, fb.comps(), fa.comps()),
              test::referenceUnionCore(m, vars, fb.comps(), fa.comps()));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, UnionSweep,
                         ::testing::Combine(::testing::Values(3U, 4U, 5U),
                                            ::testing::Range(0, 12)));

TEST(BfvUnion, NaiveFreeChoiceWouldOverApproximate) {
  // The paper's §2.3 cautionary example: union of {0,1}-structured sets
  // where bitwise free-choice merging would include phantom members.
  // A = {010, 011} (second bit 1, third free), B = {000, 101}.
  Manager m(3);
  const std::vector<unsigned> vars{0, 1, 2};
  // Masks encode bit i = component i: {2,6} = {010, 011}, {0,5} = {000,101}.
  const Bfv fa = test::bfvOf(m, vars, Set{2, 6});
  const Bfv fb = test::bfvOf(m, vars, Set{0, 5});
  const Bfv fu = setUnion(fa, fb);
  const Set want{2, 6, 0, 5};
  EXPECT_EQ(test::setOf(fu), want);
  // The naive result would also contain 100 (mask 1) and others.
  EXPECT_FALSE(fu.contains({true, false, false}));
}

TEST(BfvUnion, EmptyIsIdentity) {
  Manager m(3);
  const std::vector<unsigned> vars{0, 1, 2};
  const Bfv e = Bfv::emptySet(m, vars);
  const Bfv s = test::bfvOf(m, vars, Set{1, 4});
  EXPECT_EQ(setUnion(e, s), s);
  EXPECT_EQ(setUnion(s, e), s);
  EXPECT_TRUE(setUnion(e, e).isEmpty());
}

TEST(BfvUnion, IdempotentAndAssociative) {
  Manager m(4);
  const std::vector<unsigned> vars{0, 1, 2, 3};
  Rng rng(5);
  const Set a = test::randomSet(rng, 4, 1, 2);
  const Set b = test::randomSet(rng, 4, 1, 2);
  const Set c = test::randomSet(rng, 4, 1, 2);
  const Bfv fa = test::bfvOf(m, vars, a);
  const Bfv fb = test::bfvOf(m, vars, b);
  const Bfv fc = test::bfvOf(m, vars, c);
  EXPECT_EQ(setUnion(fa, fa), fa);
  EXPECT_EQ(setUnion(setUnion(fa, fb), fc), setUnion(fa, setUnion(fb, fc)));
}

TEST(BfvUnion, UnionWithUniverseIsUniverse) {
  Manager m(3);
  const std::vector<unsigned> vars{0, 1, 2};
  const Bfv u = Bfv::universe(m, vars);
  const Bfv s = test::bfvOf(m, vars, Set{3});
  EXPECT_EQ(setUnion(u, s), u);
}

TEST(BfvUnion, DisjointSingletonsAccumulate) {
  Manager m(4);
  const std::vector<unsigned> vars{0, 1, 2, 3};
  Bfv acc = Bfv::emptySet(m, vars);
  Set expect;
  for (std::uint64_t x : {9U, 3U, 12U, 0U, 15U}) {
    std::vector<bool> bits(4);
    for (unsigned i = 0; i < 4; ++i) bits[i] = ((x >> i) & 1U) != 0;
    acc = setUnion(acc, Bfv::point(m, vars, bits));
    expect.insert(x);
    EXPECT_EQ(test::setOf(acc), expect);
    EXPECT_DOUBLE_EQ(acc.countStates(), static_cast<double>(expect.size()));
  }
}

}  // namespace
}  // namespace bfvr::bfv

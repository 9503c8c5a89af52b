// §2.7: the conjunctive decomposition, its isomorphism with canonical BFVs,
// and the constrain-based union.
#include <gtest/gtest.h>

#include "cdec/cdec.hpp"
#include "support/brute.hpp"
#include "support/count_cases.hpp"

namespace bfvr::cdec {
namespace {

using bfv::Bfv;
using test::Set;

const std::vector<unsigned> kVars{0, 1, 2, 3};

class CdecSweep : public ::testing::TestWithParam<int> {};

TEST_P(CdecSweep, FromBfvAndFromCharAgree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 83 + 1);
  Manager m(4);
  Set s = test::randomSet(rng, 4, 1, 2);
  if (s.empty()) s.insert(6);
  const Bfv f = test::bfvOf(m, kVars, s);
  const Cdec a = Cdec::fromBfv(f);
  const Cdec b = Cdec::fromChar(m, f.toChar(), kVars);
  // The constrain-canonical components coincide with v_i XNOR f_i — the
  // §2.7 connection made exact (both encode the same nearest-member map).
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.toChar(), f.toChar());
  EXPECT_EQ(a.toBfv(), f);
  EXPECT_DOUBLE_EQ(a.countStates(), static_cast<double>(s.size()));
}

TEST_P(CdecSweep, UnionMatchesBfvUnion) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 409 + 11);
  Manager m(4);
  const Set sa = test::randomSet(rng, 4, 1, 3);
  const Set sb = test::randomSet(rng, 4, 1, 3);
  const Bfv fa = test::bfvOf(m, kVars, sa);
  const Bfv fb = test::bfvOf(m, kVars, sb);
  const Cdec cu = setUnion(Cdec::fromBfv(fa), Cdec::fromBfv(fb));
  const Bfv fu = bfv::setUnion(fa, fb);
  EXPECT_EQ(cu.toChar(), fu.toChar());
  if (!fu.isEmpty()) {
    EXPECT_EQ(cu.toBfv(), fu);
    EXPECT_EQ(cu, Cdec::fromBfv(fu));
  }
}

TEST_P(CdecSweep, IntersectMatchesBfvIntersect) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 13 + 29);
  Manager m(4);
  const Set sa = test::randomSet(rng, 4, 2, 3);
  const Set sb = test::randomSet(rng, 4, 2, 3);
  const Bfv fa = test::bfvOf(m, kVars, sa);
  const Bfv fb = test::bfvOf(m, kVars, sb);
  const Cdec ci = setIntersect(Cdec::fromBfv(fa), Cdec::fromBfv(fb));
  const Bfv fi = bfv::setIntersect(fa, fb);
  EXPECT_EQ(ci.toChar(), fi.toChar());
  EXPECT_EQ(ci.isEmpty(), fi.isEmpty());
}

TEST_P(CdecSweep, ReparamMatchesBfvReparam) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1013 + 3);
  Manager m(8);
  const std::vector<unsigned> params{4, 5, 6};
  std::vector<Bdd> outs(4);
  for (unsigned i = 0; i < 4; ++i) {
    outs[i] = test::bddFromTruth(m, params, test::randomTruth(rng, 3));
  }
  const Cdec c = reparameterizeCdec(m, outs, kVars, params);
  const Bfv f = bfv::reparameterize(m, outs, kVars, params);
  EXPECT_EQ(c.toBfv(), f);
  EXPECT_EQ(c, Cdec::fromBfv(f));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdecSweep, ::testing::Range(0, 20));

TEST(Cdec, UniverseAndEmpty) {
  Manager m(4);
  const Cdec u = Cdec::universe(m, kVars);
  EXPECT_TRUE(u.toChar().isTrue());
  EXPECT_DOUBLE_EQ(u.countStates(), 16.0);
  const Cdec e = Cdec::emptySet(m, kVars);
  EXPECT_TRUE(e.isEmpty());
  EXPECT_TRUE(e.toChar().isFalse());
  EXPECT_EQ(setUnion(e, u), u);
  EXPECT_TRUE(setIntersect(e, u).isEmpty());
}

TEST(Cdec, CountStatesAgreesWithSatCount) {
  // The BFV count's property test on the constraint form: the same sets,
  // counted on c_i = v_i XNOR f_i instead of on f_i.
  int cases = 0;
  test::forEachCountCase([&](const Bfv& f, const std::string& label) {
    ++cases;
    const Cdec c = Cdec::fromBfv(f);
    const double want = f.manager()->satCount(c.toChar(), c.width());
    test::expectCountAgrees(c.countStates(), want, label);
  });
  EXPECT_GT(cases, 64 * 15);
}

TEST(Cdec, ConstraintComponentsHavePrefixSupport) {
  Manager m(4);
  Rng rng(15);
  const Set s = test::randomSet(rng, 4, 1, 2);
  if (s.empty()) GTEST_SKIP();
  const Cdec c = Cdec::fromBfv(test::bfvOf(m, kVars, s));
  for (std::size_t i = 0; i < 4; ++i) {
    for (unsigned v : m.support(c.constraints()[i])) {
      EXPECT_LE(v, kVars[i]);
    }
  }
}

TEST(Cdec, ProjectionInvariant) {
  // AND_{j<=i} c_j equals the projection exists v_{>i} chi.
  Manager m(4);
  Rng rng(23);
  const Set s = test::randomSet(rng, 4, 1, 2);
  if (s.empty()) GTEST_SKIP();
  const Bfv f = test::bfvOf(m, kVars, s);
  const Cdec c = Cdec::fromBfv(f);
  const Bdd chi = f.toChar();
  Bdd prefix = m.one();
  for (std::size_t i = 0; i < 4; ++i) {
    prefix &= c.constraints()[i];
    std::vector<unsigned> rest(kVars.begin() + i + 1, kVars.end());
    EXPECT_EQ(prefix, m.exists(chi, m.cube(rest)));
  }
}

TEST(Cdec, UnionUsesFewerTopOpsThanBfv) {
  // The §2.7 claim: with matching orders the constrain-based union needs
  // fewer BDD operations per component than the exclusion-condition sweep.
  Manager m(16);
  std::vector<unsigned> vars(8);
  for (unsigned i = 0; i < 8; ++i) vars[i] = i;
  Rng rng(2);
  const Set sa = test::randomSet(rng, 8, 1, 7);
  const Set sb = test::randomSet(rng, 8, 1, 7);
  if (sa.empty() || sb.empty()) GTEST_SKIP();
  const Bfv fa = test::bfvOf(m, vars, sa);
  const Bfv fb = test::bfvOf(m, vars, sb);
  const Cdec ca = Cdec::fromBfv(fa);
  const Cdec cb = Cdec::fromBfv(fb);
  m.resetStats();
  (void)bfv::setUnion(fa, fb);
  const auto bfv_ops = m.stats().top_ops;
  m.resetStats();
  (void)setUnion(ca, cb);
  const auto cdec_ops = m.stats().top_ops;
  EXPECT_LT(cdec_ops, bfv_ops);
}

TEST(Cdec, FromConstraintsRejectsBadArity) {
  Manager m(4);
  std::vector<Bdd> comps{m.one()};
  EXPECT_THROW((void)Cdec::fromConstraints(m, kVars, comps),
               std::invalid_argument);
}

TEST(Cdec, OperandCompatibilityEnforced) {
  Manager m(8);
  const Cdec a = Cdec::universe(m, {0, 1});
  const Cdec b = Cdec::universe(m, {2, 3});
  EXPECT_THROW((void)setUnion(a, b), std::invalid_argument);
  EXPECT_THROW((void)setIntersect(a, b), std::invalid_argument);
}

}  // namespace
}  // namespace bfvr::cdec

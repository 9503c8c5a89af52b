#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace bfvr {
namespace {

TEST(Rng, DeterministicStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17U);
  }
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = r.range(3, 5);
    EXPECT_GE(v, 3U);
    EXPECT_LE(v, 5U);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng r(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(r.chance(1, 1));
    EXPECT_FALSE(r.chance(0, 5));
  }
}

TEST(Rng, RealInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.real();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, PermutationIsPermutation) {
  Rng r(13);
  auto p = r.permutation(20);
  std::sort(p.begin(), p.end());
  for (unsigned i = 0; i < 20; ++i) EXPECT_EQ(p[i], i);
}

TEST(Rng, ShuffleKeepsElements) {
  Rng r(15);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto w = v;
  r.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Timer, MeasuresNonNegative) {
  Timer t;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_GE(t.seconds(), 0.0);
}

TEST(RunStatus, Names) {
  EXPECT_EQ(to_string(RunStatus::kDone), "done");
  EXPECT_EQ(to_string(RunStatus::kTimeOut), "T.O.");
  EXPECT_EQ(to_string(RunStatus::kMemOut), "M.O.");
}

TEST(RunStatus, ParseRoundTripsEveryStatus) {
  for (const RunStatus s :
       {RunStatus::kDone, RunStatus::kTimeOut, RunStatus::kMemOut}) {
    const auto back = parse_run_status(to_string(s));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, s);
  }
}

TEST(RunStatus, ParseRejectsUnknownTags) {
  EXPECT_FALSE(parse_run_status("").has_value());
  EXPECT_FALSE(parse_run_status("Done").has_value());
  EXPECT_FALSE(parse_run_status("timeout").has_value());
  EXPECT_FALSE(parse_run_status("T.O").has_value());
}

TEST(RunStatus, TallyGivesEveryStatusItsOwnBucket) {
  // Status i is counted i + 1 times: a status folded into another's bucket
  // (an inconclusive job counted as an error) shows up as a wrong count.
  StatusCounts c;
  for (std::size_t i = 0; i < kNumRunStatuses; ++i) {
    for (std::size_t k = 0; k <= i; ++k) c.add(static_cast<RunStatus>(i));
  }
  std::set<std::string> keys;
  for (std::size_t i = 0; i < kNumRunStatuses; ++i) {
    const auto s = static_cast<RunStatus>(i);
    EXPECT_EQ(c[s], i + 1) << to_string(s);
    keys.insert(countKey(s));
  }
  EXPECT_EQ(keys.size(), kNumRunStatuses);
  EXPECT_EQ(c.total(), 21U);
  EXPECT_EQ(c.summary(),
            "1 done, 2 timeout, 3 memout, 4 cancelled, 5 error, "
            "6 inconclusive");
  StatusCounts twice = c;
  twice += c;
  EXPECT_EQ(twice[RunStatus::kInconclusive], 12U);
}

TEST(JsonLog, WriteToAFullDeviceFails) {
  // The array is far below the stdio buffer, so the write itself succeeds
  // and only the close reports the full device.
  util::JsonLog log("/dev/full");
  util::JsonObject o;
  o.add("k", 1);
  log.push(o);
  EXPECT_FALSE(log.write());
}

}  // namespace
}  // namespace bfvr

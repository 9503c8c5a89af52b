// Garbage collection, node budgets, and resource accounting.
#include <gtest/gtest.h>

#include <cstdint>

#include "support/brute.hpp"

namespace bfvr::bdd {
namespace {

TEST(BddGc, CollectsDeadNodes) {
  Manager m(16);
  const std::size_t base = m.inUseNodes();
  {
    Bdd acc = m.one();
    for (unsigned i = 0; i < 16; ++i) acc &= m.var(i);
    EXPECT_GT(m.inUseNodes(), base);
  }
  m.gc();
  // Only the 16 projection nodes can remain referenced... they are not
  // referenced either (no live handles), so we are back to the terminal.
  EXPECT_EQ(m.inUseNodes(), 1U);
}

TEST(BddGc, LiveHandlesSurviveGc) {
  Manager m(8);
  Bdd keep = (m.var(0) & m.var(1)) | m.var(2);
  Bdd dead = m.var(3) ^ m.var(4);
  const Bdd copy = keep;
  dead = Bdd();  // drop
  m.gc();
  EXPECT_EQ(keep, copy);
  EXPECT_EQ(keep, (m.var(0) & m.var(1)) | m.var(2));  // rebuild matches
  EXPECT_TRUE((keep ^ copy).isFalse());
}

TEST(BddGc, ReusedSlotsKeepSemantics) {
  Manager m(8);
  Rng rng(3);
  const std::vector<unsigned> vars{0, 1, 2, 3, 4};
  // Build, drop, and rebuild random functions across collections; results
  // must stay semantically stable.
  for (int round = 0; round < 20; ++round) {
    const std::uint64_t tt = test::randomTruth(rng, 5);
    Bdd f = test::bddFromTruth(m, vars, tt);
    EXPECT_EQ(test::truthOf(m, f, vars), tt);
    m.gc();
    EXPECT_EQ(test::truthOf(m, f, vars), tt);  // survives its own GC
  }
}

TEST(BddGc, LiveNodeCountTracksReachable) {
  Manager m(24);
  EXPECT_EQ(m.liveNodeCount(), 1U);  // just the terminal
  Bdd a = m.var(0);
  EXPECT_EQ(m.liveNodeCount(), 2U);
  Bdd f = m.var(0) & m.var(1);
  EXPECT_GE(m.liveNodeCount(), 3U);
  a = Bdd();
  f = Bdd();
  EXPECT_EQ(m.liveNodeCount(), 1U);

  // The census counts while it marks, so it must agree with an independent
  // walk of exactly the live handles wherever the store's other slots are:
  // dead but still hashed, recycled through the free list, or appended by
  // growth.
  Rng rng(11);
  const std::vector<unsigned> vars{0, 1, 2, 3, 4, 5};
  std::vector<Bdd> live;
  auto expectCensus = [&](const char* when) {
    EXPECT_EQ(m.liveNodeCount(), m.sharedNodeCount(live)) << when;
  };

  // Dead nodes still in the unique table: dropped handles, no collection.
  for (int i = 0; i < 8; ++i) {
    live.push_back(test::bddFromTruth(m, vars, test::randomTruth(rng, 6)));
  }
  live.resize(3);
  EXPECT_GT(m.inUseNodes(), m.sharedNodeCount(live));
  expectCensus("dead nodes in the unique table");

  // Free-list reuse: collect, then build into the recycled slots.
  m.gc();
  EXPECT_EQ(m.inUseNodes(), m.sharedNodeCount(live));
  for (int i = 0; i < 8; ++i) {
    live.push_back(test::bddFromTruth(m, vars, test::randomTruth(rng, 6)));
  }
  expectCensus("free-list reuse after gc()");

  // A grown store: many nodes appended past the initial reservation, most
  // dropped again, a few kept.
  {
    Bdd acc = m.zero();
    for (unsigned i = 0; i < 12; ++i) acc ^= m.var(i) & m.var(23 - i);
    live.push_back(acc);
    Bdd big = m.one();
    for (unsigned i = 0; i < 12; ++i) big &= m.var(i) | m.var(12 + i);
    EXPECT_GT(m.inUseNodes(), std::size_t{4096});
  }
  expectCensus("grown store");
  live.erase(live.begin(), live.begin() + 4);
  expectCensus("grown store, handles dropped");
  live.clear();
  EXPECT_EQ(m.liveNodeCount(), 1U);
}

TEST(BddGc, PeakMonotoneAndResettable) {
  Manager m(8);
  { Bdd f = (m.var(0) ^ m.var(1)) & (m.var(2) ^ m.var(3)); (void)f; }
  const std::size_t peak = m.peakNodes();
  EXPECT_GT(peak, 1U);
  m.gc();
  EXPECT_EQ(m.peakNodes(), peak);  // gc does not lower the high-water mark
  m.resetPeak();
  EXPECT_LE(m.peakNodes(), peak);
}

TEST(BddGc, NodeBudgetThrows) {
  Manager::Config cfg;
  cfg.max_nodes = 64;
  Manager m(32, cfg);
  Bdd acc = m.one();
  EXPECT_THROW(
      {
        // A function family with exponential growth under this order.
        for (unsigned i = 0; i < 16; ++i) {
          acc ^= m.var(i) & m.var(31 - i);
        }
      },
      NodeBudgetExceeded);
}

TEST(BddGc, ManagerUsableAfterBudgetError) {
  Manager::Config cfg;
  cfg.max_nodes = 80;
  Manager m(32, cfg);
  Bdd acc = m.one();
  try {
    for (unsigned i = 0; i < 16; ++i) acc ^= m.var(i) & m.var(31 - i);
    FAIL() << "expected NodeBudgetExceeded";
  } catch (const NodeBudgetExceeded&) {
  }
  acc = Bdd();
  m.gc();
  // Small work still fits after collecting the wreckage.
  EXPECT_EQ(m.var(0) & m.var(1), m.var(0) & m.var(1));
}

TEST(BddGc, MaybeGcHonorsThreshold) {
  Manager::Config cfg;
  cfg.gc_threshold = 8;
  Manager m(16, cfg);
  { Bdd f = (m.var(0) ^ m.var(1)) ^ (m.var(2) & m.var(3)); (void)f; }
  const auto runs_before = m.stats().gc_runs;
  m.maybeGc();
  EXPECT_GT(m.stats().gc_runs, runs_before);
}

TEST(BddGc, StatsAccumulateAndReset) {
  Manager m(8);
  (void)(m.var(0) & m.var(1));
  EXPECT_GT(m.stats().top_ops, 0U);
  EXPECT_GT(m.stats().nodes_created, 0U);
  m.resetStats();
  EXPECT_EQ(m.stats().top_ops, 0U);
  EXPECT_EQ(m.stats().recursive_steps, 0U);
}

TEST(BddGc, StressRandomOpsWithPeriodicGc) {
  Manager m(12);
  Rng rng(77);
  const std::vector<unsigned> vars{0, 1, 2, 3, 4, 5};
  std::vector<Bdd> pool;
  std::vector<std::uint64_t> truths;
  for (int i = 0; i < 8; ++i) {
    truths.push_back(test::randomTruth(rng, 6));
    pool.push_back(test::bddFromTruth(m, vars, truths.back()));
  }
  for (int step = 0; step < 300; ++step) {
    const std::size_t i = rng.below(pool.size());
    const std::size_t j = rng.below(pool.size());
    switch (rng.below(3)) {
      case 0:
        pool[i] = pool[i] & pool[j];
        truths[i] = truths[i] & truths[j];
        break;
      case 1:
        pool[i] = pool[i] | pool[j];
        truths[i] = truths[i] | truths[j];
        break;
      default:
        pool[i] = pool[i] ^ pool[j];
        truths[i] = truths[i] ^ truths[j];
        break;
    }
    if (step % 37 == 0) m.gc();
    if (step % 91 == 0) {
      ASSERT_EQ(test::truthOf(m, pool[i], vars), truths[i]) << "step " << step;
    }
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(test::truthOf(m, pool[i], vars), truths[i]);
  }
}

}  // namespace
}  // namespace bfvr::bdd

// Structural queries: support, node counting, minterm counting, evaluation
// and cube extraction.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <thread>

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

TEST(BddCount, SatCountMatchesEnumerationPastTheMemoGrowth) {
  // Random functions of 12 variables have hundreds of nodes, so the count's
  // flat memo grows several times; the count must not notice.
  Rng rng(101);
  Manager m(12);
  for (int round = 0; round < 4; ++round) {
    const std::vector<unsigned> lo{0, 1, 2, 3, 4, 5};
    const std::vector<unsigned> hi{6, 7, 8, 9, 10, 11};
    const Bdd a = bddFromTruth(m, lo, randomTruth(rng, 6));
    const Bdd b = bddFromTruth(m, hi, randomTruth(rng, 6));
    const Bdd c = bddFromTruth(m, {0, 2, 4, 6, 8, 10}, randomTruth(rng, 6));
    const Bdd f = (a ^ b) | (c & ~a);
    ASSERT_GT(m.nodeCount(f), 64U);
    std::uint64_t members = 0;
    std::vector<bool> x(12);
    for (std::uint32_t v = 0; v < 4096; ++v) {
      for (unsigned j = 0; j < 12; ++j) x[j] = ((v >> j) & 1U) != 0;
      members += m.eval(f, x) ? 1 : 0;
    }
    EXPECT_EQ(m.satCount(f, 12), static_cast<double>(members));
    EXPECT_EQ(m.satCount(~f, 12), static_cast<double>(4096 - members));
  }
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

// ---- the parked computed-cache block ---------------------------------------

/// What one job leaves behind: every counter, and its results.
struct JobRun {
  bool stale = false;  ///< the job's first cache probe hit
  OpStats ops;
  std::vector<double> counts;
};

bool sameRun(const JobRun& a, const JobRun& b) {
  const OpStats& x = a.ops;
  const OpStats& y = b.ops;
  return a.stale == b.stale && x.top_ops == y.top_ops &&
         x.recursive_steps == y.recursive_steps &&
         x.cache_lookups == y.cache_lookups && x.cache_hits == y.cache_hits &&
         x.cache_inserts == y.cache_inserts &&
         x.cache_collisions == y.cache_collisions &&
         x.nodes_created == y.nodes_created && x.gc_runs == y.gc_runs &&
         x.op_cache_hits == y.op_cache_hits &&
         x.op_cache_misses == y.op_cache_misses && a.counts == b.counts;
}

/// A job on a Manager of its own, with a cache small enough (2^10 slots)
/// that its sets fill and evict: random ands and xors, renamed, composed
/// and counted. Every job first and last computes v0 & v1, whose cache key
/// is the same in every Manager. So the key is in every parked block, and
/// a block adopted without clearing shows as a hit on the next job's first
/// probe; the job stops there, before a stale result (an edge of another
/// Manager) can lead it astray.
JobRun cacheJob(std::uint64_t seed) {
  Manager::Config cfg;
  cfg.cache_bits = 10;
  Manager m(16, cfg);
  JobRun out;
  (void)(m.var(0) & m.var(1));
  if (m.stats().cache_hits != 0) {
    out.stale = true;
    return out;
  }
  Rng rng(seed);
  std::vector<Bdd> pool;
  for (unsigned v = 0; v < 8; ++v) pool.push_back(m.var(v));
  for (int k = 0; k < 60; ++k) {
    const Bdd& a = pool[rng.below(pool.size())];
    const Bdd& b = pool[rng.below(pool.size())];
    pool.push_back(rng.flip() ? (a & ~b) : (a ^ b));
  }
  std::vector<unsigned> up(16);
  for (unsigned v = 0; v < 16; ++v) up[v] = v < 8 ? v + 8 : v;
  std::vector<Bdd> map(8);
  for (unsigned v = 0; v < 8; v += 2) map[v] = pool[pool.size() - 1 - v];
  for (std::size_t i = pool.size() - 10; i < pool.size(); ++i) {
    const Bdd renamed = m.permute(pool[i], up);
    out.counts.push_back(
        m.satCount(renamed & m.vectorCompose(pool[i], map), 16));
  }
  out.ops = m.stats();
  (void)(pool[0] & pool[1]);
  return out;
}

TEST(BddCacheReuse, JobStatsAreBitIdenticalOnAReusedCacheBlock) {
  const JobRun first = cacheJob(1);
  ASSERT_FALSE(first.stale);
  // The next job adopts the block the first one parked.
  ASSERT_TRUE(sameRun(cacheJob(1), first));
  // Blocks parked by other jobs, each full of its own entries.
  for (std::uint64_t seed : {2, 3}) (void)cacheJob(seed);
  EXPECT_TRUE(sameRun(cacheJob(1), first));
  // A Manager of another cache size neither takes nor spoils the block.
  {
    Manager::Config wide;
    wide.cache_bits = 12;
    Manager other(4, wide);
    EXPECT_EQ(other.cacheSlots(), 4096U);
    (void)(other.var(0) & other.var(1));
    EXPECT_EQ(other.stats().cache_hits, 0U);
  }
  EXPECT_TRUE(sameRun(cacheJob(1), first));
}

TEST(BddCacheReuse, ManagersBuiltAndDestroyedOnFourThreads) {
  // The parked block changes hands under a mutex while four threads build
  // and destroy Managers; every job must still count exactly as alone.
  const JobRun ref = cacheJob(7);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 6; ++i) {
        if (cacheJob(100 + t * 10 + i).stale) ++mismatches;
        if (!sameRun(cacheJob(7), ref)) ++mismatches;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace bfvr::bdd

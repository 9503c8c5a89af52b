// The range kernel, bdd::Manager::range, against the handle-based splitter
// it replaced (test::referenceRangeChar). Both return canonical functions,
// so the kernel must give the reference's edge exactly: on every shipped
// circuit's transition functions, on random vectors with constant, repeated
// and complemented components, across GC, sifting and manager reuse, and
// after pressure-ladder reruns.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "bdd/memo.hpp"
#include "circuit/bench_io.hpp"
#include "circuit/generators.hpp"
#include "circuit/orders.hpp"
#include "support/between.hpp"
#include "support/brute.hpp"
#include "support/reference_range.hpp"
#include "sym/image.hpp"
#include "sym/simulate.hpp"

#ifndef BFVR_DATA_DIR
#define BFVR_DATA_DIR "data"
#endif

namespace bfvr {
namespace {

using bdd::Bdd;
using bdd::Manager;
using test::Between;
using test::bddFromTruth;
using test::betweenName;
using test::randomTruth;

/// A cube over a random subset of `vars`, each literal of random polarity.
Bdd randomCube(Manager& m, Rng& rng, std::span<const unsigned> vars) {
  Bdd c = m.one();
  for (const unsigned v : vars) {
    if (rng.flip()) c &= rng.flip() ? m.var(v) : ~m.var(v);
  }
  return c;
}

class RangeKernelCircuits : public ::testing::TestWithParam<const char*> {};

TEST_P(RangeKernelCircuits, MatchesTheReferenceUnderEveryOrder) {
  const circuit::Netlist n = circuit::parseBenchFile(
      std::string(BFVR_DATA_DIR) + "/" + GetParam());
  const circuit::OrderSpec orders[] = {{circuit::OrderKind::kTopo, 0},
                                       {circuit::OrderKind::kNatural, 0},
                                       {circuit::OrderKind::kRandom, 1}};
  Rng rng(17);
  for (const circuit::OrderSpec& spec : orders) {
    Manager m(0);
    sym::StateSpace s(m, n, circuit::makeOrder(n, spec));
    const std::vector<Bdd> delta = sym::transitionFunctions(s);
    for (int trial = 0; trial < 4; ++trial) {
      const Bdd care = randomCube(m, rng, s.currentVars());
      const Bdd want =
          test::referenceRangeChar(m, s.paramVars(), delta, care);
      EXPECT_EQ(sym::rangeChar(s, delta, care), want)
          << n.name() << " order " << static_cast<int>(spec.kind)
          << " trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shipped, RangeKernelCircuits,
                         ::testing::Values("arb4.bench", "cnt8m200.bench",
                                           "crc8.bench", "crc16.bench",
                                           "fifo3.bench", "johnson8.bench",
                                           "lfsr16.bench", "lfsr32.bench",
                                           "twin6.bench"));

/// Six input variables and twelve range variables, interleaved in a
/// seeded order, so that some range variables sit below the functions'
/// support and below later range variables (the kernel's ite path).
struct Banks {
  std::vector<unsigned> inputs;
  std::vector<unsigned> range;
};

constexpr unsigned kInputs = 6;
constexpr unsigned kMaxWidth = 12;

Banks randomBanks(Rng& rng) {
  std::vector<unsigned> all = rng.permutation(kInputs + kMaxWidth);
  Banks b;
  b.inputs.assign(all.begin(), all.begin() + kInputs);
  b.range.assign(all.begin() + kInputs, all.end());
  return b;
}

/// A vector of `width` components over the inputs: random functions,
/// constants, repeats and complements of earlier components.
std::vector<Bdd> randomVector(Manager& m, Rng& rng, const Banks& b,
                              unsigned width) {
  std::vector<Bdd> fs;
  for (unsigned i = 0; i < width; ++i) {
    switch (rng.below(5)) {
      case 0:
        fs.push_back(rng.flip() ? m.one() : m.zero());
        break;
      case 1:
        fs.push_back(i == 0 ? m.var(b.inputs[0]) : fs[rng.below(i)]);
        break;
      case 2:
        fs.push_back(i == 0 ? ~m.var(b.inputs[1]) : ~fs[rng.below(i)]);
        break;
      default:
        fs.push_back(bddFromTruth(m, b.inputs, randomTruth(rng, kInputs)));
        break;
    }
  }
  return fs;
}

/// The kernel under a care set, as rangeChar runs it: constrain, then split.
Bdd kernelRange(Manager& m, std::span<const unsigned> vars,
                const std::vector<Bdd>& fs, const Bdd& care) {
  std::vector<Bdd> vec;
  for (const Bdd& f : fs) vec.push_back(m.constrain(f, care));
  return m.range(vec, vars.first(fs.size()));
}

/// The range by enumeration: chi over the range bank is true exactly on
/// the output vectors some input assignment inside `care` produces.
void expectRangeByEnumeration(Manager& m, const Banks& b,
                              const std::vector<Bdd>& fs, const Bdd& care,
                              const Bdd& chi) {
  const auto width = static_cast<unsigned>(fs.size());
  std::vector<bool> hit(std::size_t{1} << width, false);
  std::vector<bool> x(kInputs + kMaxWidth, false);
  for (std::uint32_t a = 0; a < (1U << kInputs); ++a) {
    for (unsigned j = 0; j < kInputs; ++j) x[b.inputs[j]] = ((a >> j) & 1U);
    if (!m.eval(care, x)) continue;
    std::uint32_t out = 0;
    for (unsigned i = 0; i < width; ++i) {
      if (m.eval(fs[i], x)) out |= 1U << i;
    }
    hit[out] = true;
  }
  for (std::uint32_t out = 0; out < hit.size(); ++out) {
    for (unsigned i = 0; i < width; ++i) x[b.range[i]] = ((out >> i) & 1U);
    ASSERT_EQ(m.eval(chi, x), hit[out]) << "output vector " << out;
  }
}

TEST(RangeKernel, MatchesTheReferenceOnRandomVectors) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed * 7919 + 1);
    Manager m(kInputs + kMaxWidth);
    const Banks b = randomBanks(rng);
    for (unsigned width = 0; width <= kMaxWidth; ++width) {
      for (int trial = 0; trial < 3; ++trial) {
        const std::vector<Bdd> fs = randomVector(m, rng, b, width);
        const Bdd care = trial == 0 ? m.one() : randomCube(m, rng, b.inputs);
        const Bdd got = kernelRange(m, b.range, fs, care);
        EXPECT_EQ(got, test::referenceRangeChar(m, b.range, fs, care))
            << "seed " << seed << " width " << width << " trial " << trial;
        if (width <= 8) expectRangeByEnumeration(m, b, fs, care, got);
      }
    }
  }
}

TEST(RangeKernel, EmptyVectorRangesOverEverything) {
  Manager m(4);
  EXPECT_TRUE(m.range({}, {}).isTrue());
}

TEST(RangeKernel, RejectsAVariableCountThatIsNotTheWidth) {
  Manager m(4);
  const std::vector<Bdd> fs{m.var(0), m.var(1)};
  const std::vector<unsigned> vars{2};
  EXPECT_THROW(m.range(fs, vars), std::invalid_argument);
}

TEST(RangeKernel, RangeCharRejectsMoreComponentsThanLatches) {
  const circuit::Netlist n = circuit::makeCounter(3, 8);
  Manager m(0);
  sym::StateSpace s(m, n,
                    circuit::makeOrder(n, {circuit::OrderKind::kNatural, 0}));
  const std::vector<Bdd> four(4, m.one());
  EXPECT_THROW(sym::rangeChar(s, four, m.one()), std::invalid_argument);
}

TEST(RangeKernel, SuffixMemoTellsKeysWithOneHashApart) {
  // The caller hands the memo its hashes, so a collision can be forced:
  // keys under one hash must still be told apart by length and by edges.
  // A key's length says which range variables it maps to, and a suffix can
  // be a prefix of another (constant and repeated components).
  bdd::detail::SuffixMemo memo;
  constexpr std::uint64_t h = 0x1234'5678'9abc'def0ULL;
  const std::vector<bdd::Edge> abc{6, 9, 12}, ab{6, 9}, abd{6, 9, 14};
  memo.insert(abc, h, 100);
  EXPECT_EQ(memo.find(ab, h), nullptr);
  EXPECT_EQ(memo.find(abd, h), nullptr);
  memo.insert(ab, h, 200);
  memo.insert(abd, h, 300);
  for (const auto& [key, want] :
       {std::pair{abc, 100U}, std::pair{ab, 200U}, std::pair{abd, 300U}}) {
    const bdd::Edge* got = memo.find(key, h);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, want);
  }
  EXPECT_EQ(memo.find(std::vector<bdd::Edge>{6}, h), nullptr);
  // Enough keys to grow the table several times: every one still found.
  for (bdd::Edge e = 0; e < 1000; ++e) {
    const std::vector<bdd::Edge> key{e, e + 1};
    memo.insert(key, bdd::detail::SuffixMemo::hash(key), e);
  }
  for (bdd::Edge e = 0; e < 1000; ++e) {
    const std::vector<bdd::Edge> key{e, e + 1};
    const bdd::Edge* got = memo.find(key, bdd::detail::SuffixMemo::hash(key));
    ASSERT_NE(got, nullptr) << e;
    EXPECT_EQ(*got, e);
  }
}

class RangeKernelBetween : public ::testing::TestWithParam<Between> {};

TEST_P(RangeKernelBetween, SecondCallMatchesTheFirstAndTheReference) {
  Manager m(kInputs + kMaxWidth);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    // One seed builds the same banks and vectors each time, so the Reset
    // case can rebuild them after the reset.
    const auto build = [&m, seed](Banks& b) {
      Rng rng(seed * 104729 + 5);
      b = randomBanks(rng);
      std::vector<std::vector<Bdd>> vs;
      for (unsigned width = 4; width <= kMaxWidth; width += 4) {
        vs.push_back(randomVector(m, rng, b, width));
      }
      return vs;
    };
    const auto ranges = [&m](const Banks& b,
                             const std::vector<std::vector<Bdd>>& vs) {
      std::vector<Bdd> out;
      for (const std::vector<Bdd>& fs : vs) {
        out.push_back(m.range(fs, std::span(b.range).first(fs.size())));
        EXPECT_EQ(out.back(),
                  test::referenceRangeChar(m, b.range, fs, m.one()));
      }
      return out;
    };
    std::vector<std::size_t> sizes;
    {
      Banks b;
      const std::vector<std::vector<Bdd>> vs = build(b);
      const std::vector<Bdd> first = ranges(b, vs);
      for (const Bdd& r : first) sizes.push_back(m.nodeCount(r));
      test::disturb(m, GetParam());
      if (GetParam() != Between::kReset) {
        EXPECT_EQ(ranges(b, vs), first) << "seed " << seed;
        continue;
      }
    }
    ASSERT_TRUE(m.resetForReuse());
    Banks b;
    const std::vector<std::vector<Bdd>> vs = build(b);
    std::vector<std::size_t> again;
    for (const Bdd& r : ranges(b, vs)) again.push_back(m.nodeCount(r));
    // The order after a reset is the first call's, so are the diagrams.
    EXPECT_EQ(again, sizes) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Disturbed, RangeKernelBetween,
                         ::testing::Values(Between::kNothing, Between::kGc,
                                           Between::kSift, Between::kReset),
                         betweenName);

// Allocation failures injected inside the kernel: each one unwinds the
// whole walk, one ladder rung runs (forced GC, cache shrink, then a
// reorder that moves the range variables), and the walk reruns from the
// handle-protected components. The result must be the range a clean
// manager computes, assignment for assignment.
TEST(RangeKernel, LadderRerunsMatchACleanManager) {
  // Variables 0..5 carry the functions, 6..11 name the range. The twin
  // pairs (x_i, x_{i+6}) kept alive beside them make the reorder rung pull
  // each range variable up next to its input.
  constexpr unsigned kVars = 12;
  const std::vector<unsigned> inputs{0, 1, 2, 3, 4, 5};
  const std::vector<unsigned> range{6, 7, 8, 9, 10, 11};
  const auto twins = [](Manager& mm) {
    Bdd t = mm.one();
    for (unsigned i = 0; i < 6; ++i) t &= mm.xnorB(mm.var(i), mm.var(i + 6));
    return t;
  };
  const auto vector = [&](Manager& mm) {
    Rng rng(23);
    std::vector<Bdd> fs;
    for (unsigned i = 0; i < range.size(); ++i) {
      fs.push_back(bddFromTruth(mm, inputs, randomTruth(rng, 6)));
    }
    fs[3] = ~fs[1];
    return fs;
  };
  Manager plain(kVars);
  const std::vector<Bdd> plain_fs = vector(plain);
  const Bdd want = plain.range(plain_fs, range);

  Manager::Config cfg;
  cfg.pressure_ladder.enabled = true;  // three rungs: one per fault
  Manager m(kVars, cfg);
  const Bdd keep = twins(m);
  const std::vector<Bdd> fs = vector(m);
  const std::vector<unsigned> order_before = m.currentOrder();
  bdd::FaultPlan fp;
  fp.alloc_failures = {2, 4, 6};
  m.setFaultPlan(fp);
  const Bdd got = m.range(fs, range);
  ASSERT_EQ(m.faultsInjected(), 3U);
  ASSERT_NE(m.currentOrder(), order_before);  // the last rerun reordered
  m.setFaultPlan({});
  EXPECT_EQ(got, test::referenceRangeChar(m, range, fs, m.one()));
  std::vector<bool> x(kVars);
  for (std::uint32_t a = 0; a < (1U << kVars); ++a) {
    for (unsigned j = 0; j < kVars; ++j) x[j] = ((a >> j) & 1U) != 0;
    ASSERT_EQ(m.eval(got, x), plain.eval(want, x)) << "assignment " << a;
  }
}

}  // namespace
}  // namespace bfvr

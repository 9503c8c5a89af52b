// §2.6 re-parameterization: canonicalizing raw simulated vectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "bfv/internal.hpp"
#include "run/run.hpp"
#include "support/brute.hpp"
#include "support/reference_union.hpp"
#include "sym/simulate.hpp"

namespace bfvr::bfv {
namespace {

using test::Set;

const std::vector<unsigned> kChoice{0, 1, 2, 3};
const std::vector<unsigned> kParams{4, 5, 6, 7};

/// Random raw vector over the parameter variables plus its brute-force
/// range.
struct RawVector {
  std::vector<Bdd> outputs;
  Set range;
};

RawVector randomRaw(Manager& m, Rng& rng, unsigned n, unsigned np) {
  RawVector rv;
  std::vector<std::uint64_t> tts(n);
  std::vector<unsigned> pvars(kParams.begin(), kParams.begin() + np);
  for (unsigned i = 0; i < n; ++i) {
    tts[i] = test::randomTruth(rng, np);
    rv.outputs.push_back(test::bddFromTruth(m, pvars, tts[i]));
  }
  for (std::uint64_t a = 0; a < (std::uint64_t{1} << np); ++a) {
    std::uint64_t x = 0;
    for (unsigned i = 0; i < n; ++i) {
      if (((tts[i] >> a) & 1U) != 0) x |= std::uint64_t{1} << i;
    }
    rv.range.insert(x);
  }
  return rv;
}

class ReparamSweep : public ::testing::TestWithParam<int> {};

TEST_P(ReparamSweep, RangeIsPreservedAndCanonical) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  Manager m(8);
  const RawVector rv = randomRaw(m, rng, 4, 4);
  for (const QuantSchedule sched :
       {QuantSchedule::kStaticOrder, QuantSchedule::kSupportCost}) {
    ReparamOptions opts;
    opts.schedule = sched;
    const Bfv f = reparameterize(m, rv.outputs, kChoice, kParams, opts);
    std::string why;
    ASSERT_TRUE(f.checkCanonical(&why)) << why;
    EXPECT_EQ(test::setOf(f), rv.range);
  }
}

TEST_P(ReparamSweep, SchedulesAgreeOnTheCanonicalResult) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 271 + 5);
  Manager m(8);
  const RawVector rv = randomRaw(m, rng, 4, 3);
  ReparamOptions a;
  a.schedule = QuantSchedule::kStaticOrder;
  ReparamOptions b;
  b.schedule = QuantSchedule::kSupportCost;
  const std::vector<unsigned> params(kParams.begin(), kParams.begin() + 3);
  EXPECT_EQ(reparameterize(m, rv.outputs, kChoice, params, a),
            reparameterize(m, rv.outputs, kChoice, params, b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReparamSweep, ::testing::Range(0, 20));

TEST(BfvReparam, ConstantVectorBecomesPoint) {
  Manager m(8);
  std::vector<Bdd> outs{m.one(), m.zero(), m.one(), m.zero()};
  const Bfv f = reparameterize(m, outs, kChoice, kParams);
  EXPECT_EQ(f, Bfv::point(m, kChoice, {true, false, true, false}));
}

TEST(BfvReparam, NoParametersIsAlreadyDone) {
  // A vector that is constant per parameter slice and uses no parameters
  // must come back unchanged (it is a singleton's canonical form).
  Manager m(8);
  std::vector<Bdd> outs{m.zero(), m.zero(), m.zero(), m.zero()};
  const Bfv f = reparameterize(m, outs, kChoice, {});
  EXPECT_DOUBLE_EQ(f.countStates(), 1.0);
}

TEST(BfvReparam, IdentityVectorGivesUniverse) {
  Manager m(8);
  std::vector<Bdd> outs;
  for (unsigned p : kParams) outs.push_back(m.var(p));
  const Bfv f = reparameterize(m, outs, kChoice, kParams);
  EXPECT_EQ(f, Bfv::universe(m, kChoice));
}

TEST(BfvReparam, SharedParameterCouplesComponents) {
  // (p, p, ~p): range {110, 001} — strong coupling across components.
  Manager m(8);
  const Bdd p = m.var(4);
  std::vector<Bdd> outs{p, p, ~p};
  const std::vector<unsigned> choice{0, 1, 2};
  const std::vector<unsigned> params{4};
  const Bfv f = reparameterize(m, outs, choice, params);
  EXPECT_EQ(test::setOf(f), (Set{0b011, 0b100}));
}

TEST(BfvReparam, ArityMismatchThrows) {
  Manager m(8);
  std::vector<Bdd> outs{m.one()};
  EXPECT_THROW((void)reparameterize(m, outs, kChoice, kParams),
               std::invalid_argument);
}

TEST(BfvReparam, ManyParametersFewValues) {
  // 6 parameters collapsing to a 2-member range exercises the support
  // optimization (most components ignore most parameters).
  Manager m(16);
  const std::vector<unsigned> choice{0, 1, 2, 3};
  std::vector<unsigned> params{8, 9, 10, 11, 12, 13};
  const Bdd p = m.var(8);
  std::vector<Bdd> outs{p, m.zero(), p, m.one()};
  const Bfv f = reparameterize(m, outs, choice, params);
  EXPECT_EQ(test::setOf(f), (Set{0b1000, 0b1101}));
}

// ---------------------------------------------------------------------------
// Differential against the pre-overhaul quantification loop.
//
// `referenceQuantifyParams` is a verbatim copy of internal::quantifyParams
// before the incremental-support rewrite: it recomputes every component's
// support from scratch after each quantification and re-counts nodes inside
// the cost scan, and it unions the slices with test::referenceUnionCore,
// the sweep from before the region-split rewrite. Same math, brute force —
// the production loop must be bit-identical to it on real circuits, for
// both schedules.

struct RefQuantCost {
  std::size_t dependents = 0;
  std::size_t nodes = 0;

  bool operator<(const RefQuantCost& o) const {
    if (dependents != o.dependents) return dependents < o.dependents;
    return nodes < o.nodes;
  }
};

std::vector<Bdd> referenceQuantifyParams(Manager& m, std::vector<Bdd> cur,
                                         const std::vector<unsigned>& choice,
                                         std::span<const unsigned> param_vars,
                                         const ReparamOptions& opts) {
  std::vector<unsigned> pending(param_vars.begin(), param_vars.end());
  const std::size_t n = cur.size();
  std::vector<std::vector<unsigned>> supports(n);
  auto refresh = [&](std::size_t i) { supports[i] = m.support(cur[i]); };
  for (std::size_t i = 0; i < n; ++i) refresh(i);
  auto dependsOn = [&](std::size_t i, unsigned v) {
    return std::binary_search(supports[i].begin(), supports[i].end(), v);
  };
  while (!pending.empty()) {
    std::size_t pick = 0;
    if (opts.schedule == QuantSchedule::kSupportCost) {
      RefQuantCost best;
      bool have = false;
      for (std::size_t c = 0; c < pending.size(); ++c) {
        RefQuantCost cost;
        for (std::size_t i = 0; i < n; ++i) {
          if (dependsOn(i, pending[c])) {
            ++cost.dependents;
            cost.nodes += m.nodeCount(cur[i]);
          }
        }
        if (!have || cost < best) {
          best = cost;
          pick = c;
          have = true;
        }
      }
    }
    const unsigned v = pending[pick];
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
    bool touched = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (dependsOn(i, v)) {
        touched = true;
        break;
      }
    }
    if (!touched) continue;
    std::vector<Bdd> lo(n), hi(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (dependsOn(i, v)) {
        lo[i] = m.cofactor(cur[i], v, false);
        hi[i] = m.cofactor(cur[i], v, true);
      } else {
        lo[i] = cur[i];
        hi[i] = cur[i];
      }
    }
    cur = test::referenceUnionCore(m, choice, lo, hi);
    for (std::size_t i = 0; i < n; ++i) refresh(i);
    m.maybeGc();
  }
  return cur;
}

// Every slice pair quantifyParams hands its union: operands that still
// depend on the parameters not yet quantified, which UnionSweep's operands
// (canonical vectors over the choice variables alone) never do. An
// exclusion condition is read only past the first component where the
// operands differ, so only pairs that differ in two or more components
// test the exclusion updates.
struct SlicePairs {
  std::size_t calls = 0;
  std::size_t param_dependent = 0;
  std::size_t multi_diff = 0;
  std::vector<unsigned> choice;  // sorted
};
SlicePairs g_slice_pairs;

bool dependsOnlyOn(Manager& m, const std::vector<Bdd>& comps,
                   const std::vector<unsigned>& sorted_vars) {
  for (const Bdd& c : comps) {
    for (const unsigned v : m.support(c)) {
      if (!std::binary_search(sorted_vars.begin(), sorted_vars.end(), v)) {
        return false;
      }
    }
  }
  return true;
}

/// A SliceUnion that runs both cores and checks they return the same handles.
std::vector<Bdd> checkedUnionCore(Manager& m, const std::vector<unsigned>& vars,
                                  const std::vector<Bdd>& f,
                                  const std::vector<Bdd>& g) {
  std::vector<Bdd> got = internal::unionCore(m, vars, f, g);
  const std::vector<Bdd> want = test::referenceUnionCore(m, vars, f, g);
  ++g_slice_pairs.calls;
  if (!dependsOnlyOn(m, f, g_slice_pairs.choice) ||
      !dependsOnlyOn(m, g, g_slice_pairs.choice)) {
    ++g_slice_pairs.param_dependent;
  }
  std::size_t differing = 0;
  for (std::size_t i = 0; i < f.size(); ++i) differing += f[i] != g[i];
  if (differing >= 2) ++g_slice_pairs.multi_diff;
  EXPECT_EQ(got, want) << "slice pair " << g_slice_pairs.calls;
  return got;
}

class ReparamCircuitDiff : public ::testing::TestWithParam<const char*> {};

TEST_P(ReparamCircuitDiff, BitIdenticalToPreOverhaulLoop) {
  const std::string spec = GetParam();
  const circuit::Netlist n = run::resolveCircuit(
      spec.rfind("gen:", 0) == 0 ? spec
                                 : std::string(BFVR_DATA_DIR) + "/" + spec);
  Manager m(0);
  sym::StateSpace s(m, n,
                    circuit::makeOrder(n, {circuit::OrderKind::kTopo, 0}));
  std::vector<unsigned> params = s.currentVars();
  params.insert(params.end(), s.inputVars().begin(), s.inputVars().end());

  g_slice_pairs = SlicePairs{};
  g_slice_pairs.choice = s.paramVars();
  std::sort(g_slice_pairs.choice.begin(), g_slice_pairs.choice.end());

  // Walk up to ten image steps of the Fig. 2 flow; at each step compare
  // the rewritten quantification loop against the reference on the raw
  // simulated vector, its union core against the reference core on every
  // slice pair, and the step's reached-set union against the reference
  // core too. Same manager, deterministic kernels: identical handles, not
  // just identical sets. (crc8 unions no slices that differ in two
  // components within its first three steps.)
  Bfv from = Bfv::point(m, s.currentVars(), s.initialBits());
  for (int iter = 0; iter < 10; ++iter) {
    const sym::SimResult sim = sym::simulate(s, from.comps());
    for (const QuantSchedule sched :
         {QuantSchedule::kStaticOrder, QuantSchedule::kSupportCost}) {
      ReparamOptions opts;
      opts.schedule = sched;
      const std::vector<Bdd> got = internal::quantifyParams(
          m, sim.next_state, s.paramVars(), params, opts, &checkedUnionCore);
      const std::vector<Bdd> want = referenceQuantifyParams(
          m, sim.next_state, s.paramVars(), params, opts);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], want[i])
            << GetParam() << " iter " << iter << " component " << i
            << " differs under schedule "
            << (sched == QuantSchedule::kStaticOrder ? "static" : "dynamic");
      }
    }
    // Advance with the production path (dynamic schedule, like the engine).
    const Bfv img_u =
        reparameterize(m, sim.next_state, s.paramVars(), params, {});
    std::vector<Bdd> renamed(img_u.comps().size());
    for (std::size_t i = 0; i < renamed.size(); ++i) {
      renamed[i] = m.permute(img_u.comps()[i], s.permParamToCurrent());
    }
    const Bfv img = Bfv::fromComponents(m, s.currentVars(),
                                        std::move(renamed), /*trusted=*/true);
    const Bfv next = setUnion(from, img);
    EXPECT_EQ(next.comps(), test::referenceUnionCore(m, s.currentVars(),
                                                     from.comps(), img.comps()))
        << spec << " iter " << iter << ": reached-set union differs";
    if (next == from) break;
    from = next;
    m.maybeGc();
  }
  // arb4's one image is a constant vector (its fixpoint takes one step), so
  // nothing reaches the union there; every other circuit must exercise
  // parameter-dependent operands and exclusions that a later component
  // reads.
  if (spec != "arb4.bench") {
    EXPECT_GT(g_slice_pairs.param_dependent, 0U) << spec;
    EXPECT_GT(g_slice_pairs.multi_diff, 0U) << spec;
  }
}

INSTANTIATE_TEST_SUITE_P(Shipped, ReparamCircuitDiff,
                         ::testing::Values("arb4.bench", "cnt8m200.bench",
                                           "crc8.bench", "fifo3.bench",
                                           "johnson8.bench", "twin6.bench"));

// Generated circuits whose slice pairs differ in many components, so the
// exclusion conditions grow over long chains of choices.
INSTANTIATE_TEST_SUITE_P(Generated, ReparamCircuitDiff,
                         ::testing::Values("gen:random:14:4:80:11",
                                           "gen:lfsr:8"));

}  // namespace
}  // namespace bfvr::bfv

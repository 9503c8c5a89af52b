// Experiment: micro-benchmarks of the §2 set algorithms (google-benchmark).
// Union is linear in the vector width in BDD operations; intersection is
// quadratic (§2.4); the chi conversions bracket them. Counters report BDD
// operations ("ops") alongside wall time.
//
// On top of the google-benchmark tables, `--json[=path]` /
// `--trace[=path]` (stripped from argv before benchmark::Initialize sees
// it) write one deterministic counter sweep per (operation, width) — the
// same counter block as the reachability benches' rows (top-level ops,
// recursive steps, cache, GC and reorder counters, the per-op
// computed-cache hit/miss split) — so the perf trajectory of the set
// algorithms lands in the same BENCH_/TRACE_ artifact shape.
#include <benchmark/benchmark.h>

#include <cstring>

#include "bfv/bfv.hpp"
#include "obs/report.hpp"
#include "support.hpp"
#include "util/rng.hpp"

using namespace bfvr;
using bfv::Bfv;

namespace {

/// A pseudo-random non-empty set of width n as a characteristic function:
/// a conjunction of random parity/majority-ish constraints, which keeps
/// BDDs nontrivial but far from exponential.
bdd::Bdd randomChi(bdd::Manager& m, const std::vector<unsigned>& vars,
                   Rng& rng) {
  bdd::Bdd chi = m.one();
  const unsigned n = static_cast<unsigned>(vars.size());
  // Clauses draw their literals from a small window of adjacent variables:
  // random wide 3-CNF conjunctions have exponentially large BDDs under any
  // fixed order, which would benchmark the pathology instead of the
  // algorithms.
  for (unsigned c = 0; c < n / 2; ++c) {
    const unsigned base = rng.below(n);
    bdd::Bdd clause = m.zero();
    for (int lit = 0; lit < 3; ++lit) {
      const unsigned v = vars[(base + rng.below(5)) % n];
      clause |= rng.flip() ? m.var(v) : ~m.var(v);
    }
    chi &= clause;
  }
  if (chi.isFalse()) chi = m.var(vars[0]);
  return chi;
}

struct SetPair {
  bdd::Manager m;
  std::vector<unsigned> vars;
  Bfv a, b;

  explicit SetPair(unsigned n, std::uint64_t seed) : m(n) {
    Rng rng(seed);
    vars.resize(n);
    for (unsigned i = 0; i < n; ++i) vars[i] = i;
    a = bfv::fromChar(m, randomChi(m, vars, rng), vars);
    b = bfv::fromChar(m, randomChi(m, vars, rng), vars);
  }
};

void BM_Union(benchmark::State& state) {
  SetPair p(static_cast<unsigned>(state.range(0)), 42);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    p.m.resetStats();
    Bfv u = setUnion(p.a, p.b);
    benchmark::DoNotOptimize(u);
    ops += p.m.stats().top_ops;
    p.m.gc();
  }
  state.counters["ops"] =
      benchmark::Counter(static_cast<double>(ops) /
                         static_cast<double>(state.iterations()));
}

void BM_Intersect(benchmark::State& state) {
  SetPair p(static_cast<unsigned>(state.range(0)), 43);
  std::uint64_t ops = 0;
  std::uint64_t steps = 0;
  for (auto _ : state) {
    p.m.resetStats();
    Bfv i = setIntersect(p.a, p.b);
    benchmark::DoNotOptimize(i);
    ops += p.m.stats().top_ops;
    // The quadratic §2.4 cost shows up in the recursion of the final
    // substitution pass, not in the top-level call count.
    steps += p.m.stats().recursive_steps;
    p.m.gc();
  }
  state.counters["ops"] =
      benchmark::Counter(static_cast<double>(ops) /
                         static_cast<double>(state.iterations()));
  state.counters["steps"] =
      benchmark::Counter(static_cast<double>(steps) /
                         static_cast<double>(state.iterations()));
}

void BM_ToChar(benchmark::State& state) {
  SetPair p(static_cast<unsigned>(state.range(0)), 44);
  for (auto _ : state) {
    bdd::Bdd chi = p.a.toChar();
    benchmark::DoNotOptimize(chi);
  }
}

void BM_FromChar(benchmark::State& state) {
  SetPair p(static_cast<unsigned>(state.range(0)), 45);
  const bdd::Bdd chi = p.a.toChar();
  for (auto _ : state) {
    Bfv f = bfv::fromChar(p.m, chi, p.vars);
    benchmark::DoNotOptimize(f);
    p.m.gc();
  }
}

void BM_Reparam(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  bdd::Manager m(2 * n);
  Rng rng(46);
  std::vector<unsigned> choice(n);
  std::vector<unsigned> params(n);
  for (unsigned i = 0; i < n; ++i) {
    choice[i] = i;
    params[i] = n + i;
  }
  // Raw vector: each output a small random function of three parameters.
  std::vector<bdd::Bdd> outs(n);
  for (unsigned i = 0; i < n; ++i) {
    const bdd::Bdd x = m.var(params[rng.below(n)]);
    const bdd::Bdd y = m.var(params[rng.below(n)]);
    const bdd::Bdd z = m.var(params[rng.below(n)]);
    outs[i] = (x & y) | (~x & z);
  }
  for (auto _ : state) {
    Bfv f = bfv::reparameterize(m, outs, choice, params);
    benchmark::DoNotOptimize(f);
    m.gc();
  }
}

/// One sweep row: the counter block of a counter delta, as the
/// reachability benches publish it.
util::JsonObject statsRow(const char* op, unsigned width,
                          const bdd::OpStats& d) {
  util::JsonObject o;
  o.add("op", op).add("width", width);
  obs::addOpStats(o, d);
  return o;
}

/// Deterministic counter sweep behind `--json` / `--trace`: reruns each
/// set algorithm kSweepReps times without intermediate GC, logging the
/// whole-sweep counters (summary) and the per-repetition deltas (trace —
/// repetitions after the first show how much the computed cache retains).
void counterSweep(util::JsonLog& json, util::JsonLog& trace) {
  constexpr int kSweepReps = 5;
  const auto sweep = [&](const char* op, unsigned width, bdd::Manager& m,
                         auto&& body) {
    std::vector<std::string> reps;
    const bdd::OpStats start = m.stats();
    for (int rep = 0; rep < kSweepReps; ++rep) {
      const bdd::OpStats pre = m.stats();
      body();
      if (trace.enabled()) {
        reps.push_back(statsRow(op, width, m.stats().since(pre)).str());
      }
    }
    json.push(statsRow(op, width, m.stats().since(start))
                  .add("reps", kSweepReps));
    if (trace.enabled()) {
      util::JsonObject t;
      t.add("op", op).add("width", width).addRaw("reps",
                                                 util::jsonArray(reps));
      trace.push(t);
    }
  };

  for (unsigned n : {8U, 16U, 32U, 64U}) {
    {
      SetPair p(n, 42);
      sweep("union", n, p.m, [&] {
        Bfv u = setUnion(p.a, p.b);
        benchmark::DoNotOptimize(u);
      });
    }
    {
      SetPair p(n, 43);
      sweep("intersect", n, p.m, [&] {
        Bfv i = setIntersect(p.a, p.b);
        benchmark::DoNotOptimize(i);
      });
    }
    {
      SetPair p(n, 44);
      sweep("to_char", n, p.m, [&] {
        bdd::Bdd chi = p.a.toChar();
        benchmark::DoNotOptimize(chi);
      });
    }
    {
      SetPair p(n, 45);
      const bdd::Bdd chi = p.a.toChar();
      sweep("from_char", n, p.m, [&] {
        Bfv f = bfv::fromChar(p.m, chi, p.vars);
        benchmark::DoNotOptimize(f);
      });
    }
  }
  for (unsigned n : {4U, 8U, 16U}) {
    bdd::Manager m(2 * n);
    Rng rng(46);
    std::vector<unsigned> choice(n);
    std::vector<unsigned> params(n);
    for (unsigned i = 0; i < n; ++i) {
      choice[i] = i;
      params[i] = n + i;
    }
    std::vector<bdd::Bdd> outs(n);
    for (unsigned i = 0; i < n; ++i) {
      const bdd::Bdd x = m.var(params[rng.below(n)]);
      const bdd::Bdd y = m.var(params[rng.below(n)]);
      const bdd::Bdd z = m.var(params[rng.below(n)]);
      outs[i] = (x & y) | (~x & z);
    }
    sweep("reparam", n, m, [&] {
      Bfv f = bfv::reparameterize(m, outs, choice, params);
      benchmark::DoNotOptimize(f);
    });
  }
}

}  // namespace

BENCHMARK(BM_Union)->Arg(8)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_Intersect)->Arg(8)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_ToChar)->Arg(8)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_FromChar)->Arg(8)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_Reparam)->Arg(4)->Arg(8)->Arg(16);

// Custom main instead of BENCHMARK_MAIN(): the `--json` / `--trace` flags
// are ours, and google-benchmark aborts on flags it does not recognize, so
// they are parsed and stripped before benchmark::Initialize runs.
int main(int argc, char** argv) {
  util::JsonLog json = bench::jsonLogFromArgs(argc, argv, "setops");
  util::JsonLog trace = bench::traceLogFromArgs(argc, argv, "setops");
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json", 6) == 0 ||
        std::strncmp(argv[i], "--trace", 7) == 0) {
      continue;
    }
    args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  counterSweep(json, trace);
  return json.write() && trace.write() ? 0 : 1;
}

// Experiment: the §3 variable-ordering discussion, in two parts.
//
// Pair mode (default) — for chi = (v1 == v2) & (v3 == v4) & ... the
// characteristic function needs the paired variables adjacent, while the
// Boolean functional vector is small under EVERY order because the
// functional dependencies are factored out (Hu & Dill's observation, built
// into the representation).
//
// Circuit mode (--circuits) — ordering robustness on the shipped netlists:
// sweep the static order suite with the TR engine, pick the worst order by
// peak live nodes, then rerun that worst order with and without
// Config::auto_reorder (sifting). Demonstrates that dynamic reordering
// recovers from a bad static order: the auto-reorder run should complete
// with a lower peak.
//
// `--json[=path]` writes every run as a JSON record (BENCH_ordering.json by
// default in circuit mode).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bfv/bfv.hpp"
#include "circuit/bench_io.hpp"
#include "support.hpp"

#ifndef BFVR_DATA_DIR
#define BFVR_DATA_DIR "data"
#endif

using namespace bfvr;
using bfv::Bfv;

namespace {

struct Sizes {
  std::size_t chi;
  std::size_t bfv;
};

/// Build chi = AND_i (var(a_i) == var(b_i)) and the canonical BFV of its
/// set over the given (increasing) choice variables.
Sizes build(unsigned k, bool adjacent) {
  bdd::Manager m(2 * k);
  std::vector<unsigned> vars(2 * k);
  for (unsigned i = 0; i < 2 * k; ++i) vars[i] = i;
  bdd::Bdd chi = m.one();
  for (unsigned i = 0; i < k; ++i) {
    const unsigned a = adjacent ? 2 * i : i;
    const unsigned b = adjacent ? 2 * i + 1 : k + i;
    chi &= m.xnorB(m.var(a), m.var(b));
  }
  const Bfv f = bfv::fromChar(m, chi, vars);
  return Sizes{m.nodeCount(chi), f.sharedSize()};
}

int runPairs(bench::JsonLog& log) {
  std::printf(
      "Ordering sensitivity: chi = AND_i (v_a == v_b), k pairs\n"
      "%-4s | %14s %14s | %14s %14s\n",
      "k", "chi adjacent", "chi separated", "BFV adjacent", "BFV separated");
  for (unsigned k = 2; k <= 16; k += 2) {
    const Sizes adj = build(k, true);
    const Sizes sep = build(k, false);
    std::printf("%-4u | %14zu %14zu | %14zu %14zu\n", k, adj.chi, sep.chi,
                adj.bfv, sep.bfv);
    bench::JsonObject o;
    o.add("mode", "pairs")
        .add("k", k)
        .add("chi_adjacent", adj.chi)
        .add("chi_separated", sep.chi)
        .add("bfv_adjacent", adj.bfv)
        .add("bfv_separated", sep.bfv);
    log.push(o);
  }
  std::printf(
      "\nShape to compare with the paper: chi grows linearly under the\n"
      "paired order but exponentially when the pairs are separated; the\n"
      "BFV stays linear under both (\"with the Boolean functional vector,\n"
      "all orderings are good in this case\", §3).\n");
  return log.write() ? 0 : 1;
}

/// The static order suite swept to find each circuit's worst order.
std::vector<circuit::OrderSpec> orderSuite() {
  using circuit::OrderKind;
  return {{OrderKind::kTopo, 0},   {OrderKind::kNatural, 0},
          {OrderKind::kReverse, 0}, {OrderKind::kRandom, 1},
          {OrderKind::kRandom, 2},  {OrderKind::kRandom, 3}};
}

int runCircuits(bench::JsonLog& log, bench::JsonLog& trace) {
  const char* kCircuits[] = {"arb4",  "cnt8m200", "crc8",
                             "fifo3", "johnson8", "twin6"};
  // Small circuits never reach the default 8K trigger; a low threshold
  // makes the auto-reorder path actually fire here.
  bench::RunSpec baseline;
  baseline.engine = reach::Engine::kTr;
  bench::RunSpec reorder = baseline;
  reorder.mgr.auto_reorder = true;
  reorder.mgr.reorder_threshold = 512;

  // Only the two final worst-order runs are traced; the sweep probes stay
  // untraced to keep the sweep cheap.
  bench::RunSpec baseline_traced = baseline;
  baseline_traced.opts.trace = trace.enabled();
  bench::RunSpec reorder_traced = reorder;
  reorder_traced.opts.trace = trace.enabled();

  std::printf(
      "Ordering robustness: TR engine from each circuit's worst static "
      "order\n"
      "%-10s %-10s | %12s | %12s %12s | %s\n",
      "circuit", "worst", "sweep peaks", "peak base", "peak sift",
      "reorders");
  bench::hr(84);

  unsigned improved = 0;
  for (const char* name : kCircuits) {
    const circuit::Netlist n = circuit::parseBenchFile(
        std::string(BFVR_DATA_DIR) + "/" + name + ".bench");

    // Sweep: probe every static order, keep the worst by peak live nodes.
    circuit::OrderSpec worst;
    std::size_t worst_peak = 0, best_peak = 0;
    for (const circuit::OrderSpec& spec : orderSuite()) {
      const reach::ReachResult probe = bench::runOnce(n, spec, baseline);
      log.push(reach::runRow(name, spec.label(),
                             reach::label(baseline.engine), probe)
                   .add("mode", "sweep"));
      if (best_peak == 0 || probe.peak_live_nodes < best_peak) {
        best_peak = probe.peak_live_nodes;
      }
      if (probe.peak_live_nodes > worst_peak) {
        worst_peak = probe.peak_live_nodes;
        worst = spec;
      }
    }

    // Final comparison from the worst order: plain vs auto-reorder.
    const reach::ReachResult base = bench::runOnce(n, worst, baseline_traced);
    const reach::ReachResult sift = bench::runOnce(n, worst, reorder_traced);
    log.push(reach::runRow(name, worst.label(),
                           reach::label(baseline.engine), base)
                 .add("mode", "worst_baseline"));
    log.push(reach::runRow(name, worst.label(),
                           reach::label(reorder.engine), sift)
                 .add("mode", "worst_auto_reorder")
                 .add("reorder_threshold", reorder.mgr.reorder_threshold));
    bench::pushTrace(trace, name, worst.label(),
                     reach::label(baseline.engine), base);
    bench::pushTrace(trace, name, worst.label(),
                     reach::label(reorder.engine), sift);

    char sweep[32];
    std::snprintf(sweep, sizeof sweep, "%zu..%zu", best_peak, worst_peak);
    std::printf("%-10s %-10s | %12s | %12zu %12zu | %llu runs, %llu saved\n",
                name, worst.label().c_str(), sweep, base.peak_live_nodes,
                sift.peak_live_nodes,
                static_cast<unsigned long long>(sift.ops.reorder_runs),
                static_cast<unsigned long long>(sift.ops.reorder_nodes_saved));
    if (sift.status == RunStatus::kDone &&
        sift.peak_live_nodes < base.peak_live_nodes) {
      ++improved;
    }
  }
  bench::hr(84);
  std::printf(
      "auto-reorder (sift, threshold %zu) lowered the worst-order peak on "
      "%u/6 circuits\n",
      reorder.mgr.reorder_threshold, improved);
  if (!log.write() || !trace.write()) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool circuits = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--circuits") == 0) circuits = true;
  }
  bench::JsonLog log = bench::jsonLogFromArgs(argc, argv, "ordering");
  bench::JsonLog trace = bench::traceLogFromArgs(argc, argv, "ordering");
  return circuits ? runCircuits(log, trace) : runPairs(log);
}

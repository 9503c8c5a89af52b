// Drop-in runner for real ISCAS89 benchmarks: parse a .bench file (e.g.
// s1269.bench, s3271.bench from the original distribution) and run the
// engines under a time/node budget, printing a Table 2-style row.
//
//   ./examples/bench_runner <file.bench> [seconds] [node-budget]
#include <cstdio>
#include <cstdlib>

#include "circuit/bench_io.hpp"
#include "circuit/orders.hpp"
#include "reach/engine.hpp"

using namespace bfvr;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <file.bench> [seconds] [node-budget]\n",
                 argv[0]);
    return 2;
  }
  circuit::Netlist n = circuit::parseBenchFile(argv[1]);
  std::printf("%s: %zu inputs, %zu latches, %zu outputs, %zu signals\n",
              n.name().c_str(), n.inputs().size(), n.latches().size(),
              n.outputs().size(), n.numSignals());

  reach::ReachOptions opts;
  opts.budget.max_seconds = argc > 2 ? std::atof(argv[2]) : 60.0;
  opts.budget.max_live_nodes =
      argc > 3 ? static_cast<std::size_t>(std::atoll(argv[3])) : 2000000;

  const auto order = circuit::makeOrder(n, {circuit::OrderKind::kTopo, 0});
  std::printf("%-12s %10s %10s %6s %14s\n", "engine", "time(s)", "Peak(K)",
              "iters", "states");
  for (const reach::Engine e :
       {reach::Engine::kTr, reach::Engine::kCbm, reach::Engine::kBfv}) {
    // StateSpace construction precedes the engine's guarded loop; catch a
    // node-budget blowup there so one engine's M.O. doesn't abort the rest.
    reach::ReachResult r;
    try {
      bdd::Manager m(0);
      sym::StateSpace s(m, n, order);
      r = reach::runEngine(s, e, opts);
      r.reached_bfv.reset();  // handles die with the per-run manager
      r.reached_chi = bdd::Bdd();
    } catch (const bdd::NodeBudgetExceeded&) {
      r.status = RunStatus::kMemOut;
    }
    if (r.status == RunStatus::kDone) {
      std::printf("%-12s %10.3f %10.1f %6u %14.6g\n", reach::label(e),
                  r.seconds, r.peak_live_nodes / 1000.0, r.iterations,
                  r.states);
    } else {
      std::printf("%-12s %10s %10.1f %6u %14s\n", reach::label(e),
                  to_string(r.status).c_str(), r.peak_live_nodes / 1000.0,
                  r.iterations, "-");
    }
  }
  return 0;
}

// Experiment: Table 2 of the paper — reachability analysis with fixed
// variable orders: the characteristic-function baseline ("VIS - IWLS95")
// against the Boolean-functional-vector flow ("BFV"), reporting runtime and
// peak live BDD nodes, with T.O. / M.O. entries when a budget trips.
//
// The circuit suite stands in for the ISCAS89 benchmarks (see DESIGN.md §3):
//   twin16/twin20  - functional-dependency-rich (the s3271/s4863 role:
//                    BFV completes everywhere, chi blows up / M.O.s)
//   lfsr12, cnt10  - long-diameter shift/counter structures (the s1512
//                    role: the chi flow wins, BFV pays re-parameterization
//                    on every one of thousands of iterations)
//   fifo4          - redundant occupancy encoding (mixed)
//   arb12          - one-hot control (both easy; sanity row)
//   rnd_*          - random sequential logic (generic rows)
//
// The BFV-Fig2 column runs the paper's selection heuristic as published. A
// third column, BFV-Guarded, runs the same engine under the library's
// default reach::FrontierPolicy::kGuarded: the paper's heuristic plus a
// guarded chi frontier that simulates long-diameter circuits from their new
// states instead of from all of reached.
#include <cstring>

#include "support.hpp"

using namespace bfvr;
using namespace bfvr::bench;

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  JsonLog log = jsonLogFromArgs(argc, argv, "table2");
  JsonLog trace = traceLogFromArgs(argc, argv, "table2");

  struct Row {
    circuit::Netlist n;
    std::size_t node_budget;
  };
  std::vector<Row> rows;
  rows.push_back({circuit::makeTwinShift(16), 400000});
  if (!quick) rows.push_back({circuit::makeTwinShift(20), 400000});
  rows.push_back({circuit::makeLfsr(12), 400000});
  rows.push_back({circuit::makeCounter(10, 1000), 400000});
  rows.push_back({circuit::makeFifoCtrl(4), 400000});
  rows.push_back({circuit::makeArbiter(12), 400000});
  rows.push_back({circuit::makeRandomSeq(14, 4, 80, 11), 400000});
  rows.push_back({circuit::makeRandomSeq(16, 5, 100, 23), 400000});

  const circuit::OrderSpec orders[] = {
      {circuit::OrderKind::kTopo, 0},     // the paper's S2
      {circuit::OrderKind::kNatural, 0},  // declaration order
      {circuit::OrderKind::kRandom, 1},   // stand-in for external orders
  };

  std::printf("Table 2: reachability with fixed variable orders\n");
  std::printf("%-17s %-8s | %12s %9s | %12s %9s | %12s %9s | %10s %5s\n",
              "circuit", "order", "VIS-IWLS95 t", "Peak(K)", "BFV-Fig2 t",
              "Peak(K)", "Guarded t", "Peak(K)", "states", "iters");
  hr(121);
  for (const Row& row : rows) {
    for (const circuit::OrderSpec& order : orders) {
      RunSpec tr;
      tr.engine = reach::Engine::kTr;
      tr.opts.budget.max_seconds = quick ? 5.0 : 20.0;
      tr.opts.budget.max_live_nodes = row.node_budget;
      tr.opts.trace = trace.enabled();
      RunSpec bf = tr;
      bf.engine = reach::Engine::kBfv;
      RunSpec gd = bf;
      gd.opts.frontier = reach::FrontierPolicy::kGuarded;
      const std::string engines[] = {reach::label(tr.engine),
                                     reach::label(bf.engine), "BFV-Guarded"};
      const reach::ReachResult runs[] = {runOnce(row.n, order, tr),
                                         runOnce(row.n, order, bf),
                                         runOnce(row.n, order, gd)};
      const reach::ReachResult* done = &runs[0];
      for (std::size_t i = 0; i < 3; ++i) {
        log.push(
            reach::runRow(row.n.name(), order.label(), engines[i], runs[i]));
        pushTrace(trace, row.n.name(), order.label(), engines[i], runs[i]);
        if (done->status != RunStatus::kDone) done = &runs[i];
      }
      char states[32];
      if (done->status == RunStatus::kDone) {
        std::snprintf(states, sizeof states, "%.0f", done->states);
      } else {
        std::snprintf(states, sizeof states, "-");
      }
      std::printf(
          "%-17s %-8s | %12s %9s | %12s %9s | %12s %9s | %10s %5u\n",
          row.n.name().c_str(), order.label().c_str(),
          timeCell(runs[0]).c_str(), peakCell(runs[0]).c_str(),
          timeCell(runs[1]).c_str(), peakCell(runs[1]).c_str(),
          timeCell(runs[2]).c_str(), peakCell(runs[2]).c_str(), states,
          done->iterations);
    }
    // One order-free lz row per circuit: the zonotope representation has
    // no variable order, so it rides outside the per-order grid.
    const lz::LzResult z = runLzOnce(row.n, quick ? 5.0 : 20.0);
    log.push(lzRunObject(row.n.name(), z));
    std::printf("%-17s %-8s | %12s %9s | %12s %9s | %12s %9s | %10s %5u\n",
                row.n.name().c_str(), "n/a", "LZ:", lzTimeCell(z).c_str(),
                "-", "-", "-", "-", lzStatesCell(z).c_str(), z.iterations);
    hr(121);
  }
  std::printf(
      "\nShape to compare with the paper: the BFV flow completes the\n"
      "dependency-rich circuits (twin*) under every order while the chi\n"
      "flow exceeds its node budget; the chi flow wins the long-diameter\n"
      "rows (lfsr12, cnt10) where BFV re-parameterizes on every of\n"
      "thousands of iterations — the s3271/s4863 vs s1512/s3330 split of\n"
      "Table 2. The Guarded column is not in the paper: its chi frontier\n"
      "simulates those rows from their new states, not from all of reached.\n");
  return log.write() && trace.write() ? 0 : 1;
}

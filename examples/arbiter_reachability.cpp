// Reachability analysis of a round-robin arbiter with all three engines —
// the paper's Fig. 2 flow against the Fig. 1 flow and the VIS-style
// transition-relation baseline — plus an invariant check on the result.
//
//   ./examples/arbiter_reachability [clients]
#include <cstdio>
#include <cstdlib>

#include "circuit/generators.hpp"
#include "reach/engine.hpp"

using namespace bfvr;

int main(int argc, char** argv) {
  const unsigned clients =
      argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 8;
  const circuit::Netlist n = circuit::makeArbiter(clients);
  std::printf("circuit %s: %zu latches, %zu inputs, %zu signals\n\n",
              n.name().c_str(), n.latches().size(), n.inputs().size(),
              n.numSignals());

  const auto order = circuit::makeOrder(n, {circuit::OrderKind::kTopo, 0});

  // Each engine returns its reached set in its own representation; the
  // sizes of both are taken while the run's manager is alive.
  struct Row {
    const char* name;
    reach::ReachResult r;
    reach::ReachedSizes sizes;
  };
  auto withSizes = [](const char* name, const sym::StateSpace& s,
                      reach::ReachResult r) {
    const reach::ReachedSizes sizes = reach::reachedSizes(s, r);
    return Row{name, std::move(r), sizes};
  };
  std::vector<Row> rows;
  {
    bdd::Manager m(0);
    sym::StateSpace s(m, n, order);
    rows.push_back(withSizes("TR-IWLS95 (chi)", s, reach::reachTr(s, {})));
  }
  {
    bdd::Manager m(0);
    sym::StateSpace s(m, n, order);
    rows.push_back(withSizes("CBM (Fig. 1)", s, reach::reachCbm(s, {})));
  }

  // Keep the BFV run's manager alive: we reuse its reached set below.
  bdd::Manager m(0);
  sym::StateSpace s(m, n, order);
  rows.push_back(withSizes("BFV (Fig. 2)", s, reach::reachBfv(s, {})));
  const bfv::Bfv& reached = *rows.back().r.reached_bfv;

  std::printf("%-16s %10s %9s %6s %8s %8s %8s\n", "engine", "time(s)",
              "Peak(K)", "iters", "states", "chi sz", "bfv sz");
  for (const Row& row : rows) {
    std::printf("%-16s %10.4f %9.1f %6u %8.0f %8zu %8zu\n", row.name,
                row.r.seconds, row.r.peak_live_nodes / 1000.0,
                row.r.iterations, row.r.states, row.sizes.chi_nodes,
                row.sizes.bfv_nodes);
  }

  // Invariant: the priority pointer stays one-hot. The bad set is built
  // from a predicate and intersected with the reached BFV (§2.4) — the
  // paper's algebra needs no set complement on the vector side.
  bdd::Bdd one_hot = m.zero();
  for (unsigned i = 0; i < clients; ++i) {
    bdd::Bdd cube = m.one();
    for (unsigned j = 0; j < clients; ++j) {
      const bdd::Bdd v = m.var(s.currentVar(j));
      cube &= i == j ? v : ~v;
    }
    one_hot |= cube;
  }
  const bfv::Bfv bad = bfv::fromChar(m, ~one_hot, s.currentVars());
  const bfv::Bfv violations = setIntersect(reached, bad);
  std::printf("\nAG one-hot(pointer): %s\n",
              violations.isEmpty() ? "HOLDS (no reachable violation)"
                                   : "VIOLATED");
  return violations.isEmpty() ? 0 : 1;
}

// Experiment: Table 1 of the paper — the example set
// S = {000, 001, 010, 011, 100, 101} as a characteristic function and as a
// canonical Boolean functional vector, plus the full selection table.
#include <cstdio>

#include "bfv/bfv.hpp"
#include "support.hpp"

using namespace bfvr;
using bfv::Bfv;

int main(int argc, char** argv) {
  bench::JsonLog log = bench::jsonLogFromArgs(argc, argv, "table1");
  bench::JsonLog trace = bench::traceLogFromArgs(argc, argv, "table1");
  bdd::Manager m(3);
  // No reach run here, so the trace report is events-only: record manager
  // lifecycle events (a forced GC at the end guarantees at least one).
  reach::ReachResult construct;
  construct.trace.emplace();
  obs::ScopedEventRecorder recorder(m, construct.trace->events);
  const std::vector<unsigned> vars{0, 1, 2};
  // Members as component masks (bit i = component i, component 0 is the
  // paper's first / highest-weighted bit).
  const std::uint64_t members[] = {0b000, 0b100, 0b010, 0b110, 0b001, 0b101};
  const Bfv f = Bfv::fromMembers(m, vars, members);
  const bdd::Bdd chi = f.toChar();

  std::printf("Table 1: S = {000,001,010,011,100,101}\n");
  std::printf("%-10s %-6s %-22s\n", "v1 v2 v3", "chi_S", "F(v) = (f1 f2 f3)");
  for (unsigned v = 0; v < 8; ++v) {
    // Paper lists v1 as the leftmost column bit.
    const bool v1 = (v >> 2) & 1U;
    const bool v2 = (v >> 1) & 1U;
    const bool v3 = v & 1U;
    const std::vector<bool> choices{v1, v2, v3};
    std::vector<bool> assignment(3);
    assignment[0] = v1;
    assignment[1] = v2;
    assignment[2] = v3;
    const auto sel = f.select(choices);
    std::printf(" %d  %d  %d   %-6d %d%d%d\n", v1, v2, v3,
                m.eval(chi, assignment) ? 1 : 0, sel[0] ? 1 : 0,
                sel[1] ? 1 : 0, sel[2] ? 1 : 0);
  }
  std::printf("\ncanonical components: f1 = v1, f2 = ~v1 & v2, f3 = v3\n");
  std::printf("  f1 == v1        : %s\n",
              f.comps()[0] == m.var(0) ? "yes" : "NO");
  std::printf("  f2 == ~v1 & v2  : %s\n",
              f.comps()[1] == (~m.var(0) & m.var(1)) ? "yes" : "NO");
  std::printf("  f3 == v3        : %s\n",
              f.comps()[2] == m.var(2) ? "yes" : "NO");
  std::printf("  chi == ~(v1&v2) : %s\n",
              chi == ~(m.var(0) & m.var(1)) ? "yes" : "NO");
  std::printf("chi BDD nodes: %zu, BFV shared nodes: %zu, |S| = %.0f\n",
              m.nodeCount(chi), f.sharedSize(), f.countStates());
  bench::JsonObject o;
  o.add("table", "table1")
      .add("set", "{000,001,010,011,100,101}")
      .add("chi_nodes", static_cast<std::uint64_t>(m.nodeCount(chi)))
      .add("bfv_shared_nodes", static_cast<std::uint64_t>(f.sharedSize()))
      .add("states", f.countStates());
  log.push(o);
  if (trace.enabled()) {
    m.gc();
    construct.states = f.countStates();
    construct.peak_live_nodes = m.peakNodes();
    construct.ops = m.stats();
    bench::pushTrace(trace, "table1-example", "natural", "BFV-construct",
                     construct);
  }
  return log.write() && trace.write() ? 0 : 1;
}

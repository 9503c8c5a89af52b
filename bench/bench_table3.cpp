// Experiment: Table 3 of the paper — size of the reached set's
// characteristic function vs the shared size of its Boolean functional
// vector, across variable orders, on a dependency-rich circuit (the s4863
// role is played by the twin shift register, whose reachable set is the
// paper's own chi = AND_i (a_i == b_i) example; a FIFO controller gives a
// second, less extreme instance).
#include "support.hpp"
#include "sym/ordersearch.hpp"

using namespace bfvr;
using namespace bfvr::bench;

namespace {

struct Row {
  reach::ReachResult r;
  reach::ReachedSizes sizes;
};

Row runOrder(const circuit::Netlist& n,
             const std::vector<circuit::ObjRef>& order, bool trace) {
  bdd::Manager m(0);
  sym::StateSpace s(m, n, order);
  reach::ReachOptions opts = paperOptions();
  opts.budget.max_seconds = 30.0;
  opts.trace = trace;
  Row row{reach::reachBfv(s, opts), {}};
  // The reached set's chi is built here, after the measured run.
  row.sizes = reach::reachedSizes(s, row.r);
  row.r.reached_bfv.reset();  // its handles die with this manager
  return row;
}

void printRow(const char* label, const Row& row) {
  const reach::ReachResult& r = row.r;
  if (r.status != RunStatus::kDone) {
    std::printf("%-10s %14s %14s %10s\n", label, to_string(r.status).c_str(),
                "-", "-");
    return;
  }
  std::printf("%-10s %14zu %14zu %10.0f\n", label, row.sizes.chi_nodes,
              row.sizes.bfv_nodes, r.states);
}

/// reach::runRow() plus the two sizes only this table prints.
void pushRow(JsonLog& log, JsonLog& trace, const circuit::Netlist& n,
             const std::string& order, const Row& row) {
  const char* engine = reach::label(reach::Engine::kBfv);
  log.push(reach::runRow(n.name(), order, engine, row.r)
               .add("chi_nodes", row.sizes.chi_nodes)
               .add("bfv_nodes", row.sizes.bfv_nodes));
  pushTrace(trace, n.name(), order, engine, row.r);
}

void table(const circuit::Netlist& n, JsonLog& log, JsonLog& trace) {
  std::printf("Table 3 (%s): reached-set sizes per order\n",
              n.name().c_str());
  std::printf("%-10s %14s %14s %10s\n", "order", "Char.Fn nodes",
              "BFV shared", "states");
  hr(52);
  const circuit::OrderSpec orders[] = {
      {circuit::OrderKind::kTopo, 0},    {circuit::OrderKind::kNatural, 0},
      {circuit::OrderKind::kReverse, 0}, {circuit::OrderKind::kRandom, 1},
      {circuit::OrderKind::kRandom, 2},
  };
  for (const circuit::OrderSpec& order : orders) {
    const Row row = runOrder(n, circuit::makeOrder(n, order), trace.enabled());
    printRow(order.label().c_str(), row);
    pushRow(log, trace, n, order.label(), row);
  }
  // The paper's better external orders (D/P) are stand-ins for "a search
  // found something good": reproduce with the offline hill-climb.
  const auto searched = sym::searchOrder(
      n, circuit::makeOrder(n, {circuit::OrderKind::kRandom, 1}), {});
  const Row row = runOrder(n, searched, trace.enabled());
  printRow("searched", row);
  pushRow(log, trace, n, "searched", row);
  hr(52);
}

}  // namespace

int main(int argc, char** argv) {
  JsonLog log = jsonLogFromArgs(argc, argv, "table3");
  JsonLog trace = traceLogFromArgs(argc, argv, "table3");
  table(circuit::makeTwinShift(14), log, trace);
  std::printf("\n");
  table(circuit::makeFifoCtrl(4), log, trace);
  std::printf(
      "\nShape to compare with the paper: the BFV shared size stays small\n"
      "and nearly order-independent, while the characteristic function is\n"
      "orders of magnitude larger under unlucky orders (Table 3's 4.5x-9x\n"
      "gap, amplified here by the twin circuit's pairing structure).\n");
  return log.write() && trace.write() ? 0 : 1;
}

// Experiment: the §2.7 claim — with component order equal to the BDD
// order, the conjunctive-decomposition algorithms (constrain-based) need
// fewer BDD operations than the BFV exclusion-condition algorithms. The
// flip side (also §2.7 / Table 3): the decomposition materializes prefix
// projections, whose last element is the full characteristic function, so
// on dependency-rich sets its peak size is worse. Both effects measured.
#include "cdec/cdec.hpp"
#include "support.hpp"
#include "util/rng.hpp"

using namespace bfvr;
using namespace bfvr::bench;
using bfv::Bfv;
using cdec::Cdec;

namespace {

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

void unionOps(JsonLog& log) {
  std::printf(
      "Set union, random sets: BDD operations and wall time per call\n"
      "%-6s | %10s %10s %9s | %10s %10s %9s\n",
      "width", "BFV ops", "BFV steps", "BFV ms", "CDEC ops", "CDEC steps",
      "CDEC ms");
  hr(78);
  for (unsigned n : {8U, 16U, 32U, 64U}) {
    bdd::Manager m(n);
    Rng rng(n * 7 + 1);
    std::vector<unsigned> vars(n);
    for (unsigned i = 0; i < n; ++i) vars[i] = i;
    const Bfv fa = bfv::fromChar(m, randomChi(m, vars, rng), vars);
    const Bfv fb = bfv::fromChar(m, randomChi(m, vars, rng), vars);
    const Cdec ca = Cdec::fromBfv(fa);
    const Cdec cb = Cdec::fromBfv(fb);
    constexpr int kReps = 20;

    m.resetStats();
    Timer t1;
    Bfv fu;
    for (int i = 0; i < kReps; ++i) {
      fu = setUnion(fa, fb);
      m.gc();
    }
    const double bfv_ms = t1.seconds() * 1000 / kReps;
    const auto bfv_ops = m.stats().top_ops / kReps;
    const auto bfv_steps = m.stats().recursive_steps / kReps;

    m.resetStats();
    Timer t2;
    Cdec cu;
    for (int i = 0; i < kReps; ++i) {
      cu = setUnion(ca, cb);
      m.gc();
    }
    const double cdec_ms = t2.seconds() * 1000 / kReps;
    const auto cdec_ops = m.stats().top_ops / kReps;
    const auto cdec_steps = m.stats().recursive_steps / kReps;

    if (cu.toBfv() != fu) {
      std::printf("!! representations disagree at width %u\n", n);
      return;
    }
    log.push(JsonObject{}
                 .add("section", "union_ops")
                 .add("width", n)
                 .add("bfv_ops", bfv_ops)
                 .add("bfv_steps", bfv_steps)
                 .add("bfv_ms", bfv_ms)
                 .add("cdec_ops", cdec_ops)
                 .add("cdec_steps", cdec_steps)
                 .add("cdec_ms", cdec_ms));
    std::printf("%-6u | %10llu %10llu %9.3f | %10llu %10llu %9.3f\n", n,
                static_cast<unsigned long long>(bfv_ops),
                static_cast<unsigned long long>(bfv_steps), bfv_ms,
                static_cast<unsigned long long>(cdec_ops),
                static_cast<unsigned long long>(cdec_steps), cdec_ms);
  }
  hr(78);
}

void reachBackends(JsonLog& log, JsonLog& trace) {
  std::printf(
      "\nFig. 2 reachability, BFV backend vs conjunctive-decomposition "
      "backend\n"
      "%-10s | %10s %9s | %10s %9s\n",
      "circuit", "BFV t(s)", "Peak(K)", "CDEC t(s)", "Peak(K)");
  hr(60);
  const circuit::Netlist circuits[] = {
      circuit::makeTwinShift(12), circuit::makeFifoCtrl(3),
      circuit::makeJohnson(16), circuit::makeRandomSeq(12, 4, 60, 3)};
  for (const auto& n : circuits) {
    RunSpec a;
    a.engine = reach::Engine::kBfv;
    a.opts.budget.max_seconds = 20.0;
    a.opts.trace = trace.enabled();
    RunSpec b = a;
    b.engine = reach::Engine::kCdec;
    const circuit::OrderSpec order{circuit::OrderKind::kTopo, 0};
    const reach::ReachResult ra = runOnce(n, order, a);
    const reach::ReachResult rb = runOnce(n, order, b);
    log.push(reach::runRow(n.name(), order.label(), reach::label(a.engine),
                           ra));
    log.push(reach::runRow(n.name(), order.label(), reach::label(b.engine),
                           rb));
    pushTrace(trace, n.name(), order.label(), reach::label(a.engine), ra);
    pushTrace(trace, n.name(), order.label(), reach::label(b.engine), rb);
    std::printf("%-10s | %10s %9s | %10s %9s\n", n.name().c_str(),
                timeCell(ra).c_str(), peakCell(ra).c_str(),
                timeCell(rb).c_str(), peakCell(rb).c_str());
  }
  hr(60);
  std::printf(
      "\nShape to compare with the paper: CDEC uses fewer operations per\n"
      "union (the §2.7 efficiency note) but carries the characteristic-\n"
      "function-sized prefix projections, so BFV wins peak size on the\n"
      "dependency-rich rows.\n");
}

}  // namespace

int main(int argc, char** argv) {
  JsonLog log = jsonLogFromArgs(argc, argv, "cdec_ablation");
  JsonLog trace = traceLogFromArgs(argc, argv, "cdec_ablation");
  unionOps(log);
  reachBackends(log, trace);
  return log.write() && trace.write() ? 0 : 1;
}

// Structural queries: support, node counts, minterm counting, evaluation,
// and satisfying-cube extraction.
#include <bit>
#include <cmath>

#include "bdd/bdd.hpp"
#include "bdd/memo.hpp"

namespace bfvr::bdd {

std::size_t Manager::supportBits(const Bdd& f,
                                 std::span<std::uint64_t> bits) {
  const Edge root = requireSameManager(f);
  ++mark_epoch_;
  if (mark_epoch_ == 0) {
    for (Node& n : nodes_) n.mark = 0;
    mark_epoch_ = 1;
  }
  // The terminal is pre-marked (it has no variable) and counted up front:
  // every diagram reaches it.
  nodes_[0].mark = mark_epoch_;
  std::size_t count = 1;
  mark_stack_.clear();
  mark_stack_.push_back(index(root));
  while (!mark_stack_.empty()) {
    const std::uint32_t i = mark_stack_.back();
    mark_stack_.pop_back();
    Node& n = nodes_[i];
    if (n.mark == mark_epoch_) continue;
    n.mark = mark_epoch_;
    ++count;
    bits[n.var >> 6] |= std::uint64_t{1} << (n.var & 63);
    mark_stack_.push_back(index(n.high));
    mark_stack_.push_back(index(n.low));
  }
  return count;
}

std::vector<unsigned> Manager::support(const Bdd& f) {
  std::vector<std::uint64_t> bits((num_vars_ + 63) / 64, 0);
  supportBits(f, bits);
  std::vector<unsigned> vars;
  for (std::size_t w = 0; w < bits.size(); ++w) {
    for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
      vars.push_back(static_cast<unsigned>(w * 64) +
                     static_cast<unsigned>(std::countr_zero(word)));
    }
  }
  return vars;
}

Bdd Manager::supportCube(const Bdd& f) {
  const std::vector<unsigned> vars = support(f);
  return cube(vars);
}

double Manager::satCount(const Bdd& f, unsigned num_vars) {
  const Edge root = requireSameManager(f);
  detail::EdgeMemo<long double> memo(nodeCount(f));
  // Satisfying fraction, memoized on regular edges (complements are 1-p).
  // Every fraction of a function of d variables is k / 2^d, exact in a d-bit
  // significand, and so is 1 - p. A long double (64-bit significand on
  // x86-64) keeps that up to 64 variables, where a double's 1 - p would
  // cancel (a one-state set of 64 variables would count 0); the count is
  // rounded once, at the end.
  auto prob = [&](auto&& self, Edge e) -> long double {
    if (e == kTrueEdge) return 1.0L;
    if (e == kFalseEdge) return 0.0L;
    const Edge reg = regular(e);
    long double p;
    if (const long double* hit = memo.find(reg)) {
      p = *hit;
    } else {
      const long double ph = self(self, highOf(reg));
      const long double pl = self(self, lowOf(reg));
      p = 0.5L * ph + 0.5L * pl;
      memo.insert(reg, p);
    }
    return isCompl(e) ? 1.0L - p : p;
  };
  return static_cast<double>(
      std::ldexp(prob(prob, root), static_cast<int>(num_vars)));
}

std::size_t Manager::nodeCount(const Bdd& f) {
  const Bdd fs[] = {f};
  return sharedNodeCount(fs);
}

std::size_t Manager::sharedNodeCount(std::span<const Bdd> fs) {
  ++mark_epoch_;
  if (mark_epoch_ == 0) {
    for (Node& n : nodes_) n.mark = 0;
    mark_epoch_ = 1;
  }
  std::size_t count = 0;
  for (const Bdd& f : fs) {
    if (f.isNull()) continue;
    requireSameManager(f);
    mark_stack_.clear();
    mark_stack_.push_back(index(f.raw()));
    while (!mark_stack_.empty()) {
      const std::uint32_t i = mark_stack_.back();
      mark_stack_.pop_back();
      Node& n = nodes_[i];
      if (n.mark == mark_epoch_) continue;
      n.mark = mark_epoch_;
      ++count;
      if (n.var != kTermVar) {
        mark_stack_.push_back(index(n.high));
        mark_stack_.push_back(index(n.low));
      }
    }
  }
  return count;
}

bool Manager::eval(const Bdd& f, const std::vector<bool>& values) {
  Edge e = requireSameManager(f);
  while (!isConstEdge(e)) {
    // Assignments are indexed by variable, not by level, so reordering does
    // not change what eval() computes.
    const std::uint32_t v = varOf(e);
    if (v >= values.size()) {
      throw std::out_of_range("eval: assignment shorter than support");
    }
    e = values[v] ? highOf(e) : lowOf(e);
  }
  return e == kTrueEdge;
}

std::vector<signed char> Manager::pickCube(const Bdd& f) {
  Edge e = requireSameManager(f);
  if (e == kFalseEdge) {
    throw std::invalid_argument("pickCube of the zero BDD");
  }
  std::vector<signed char> cube(num_vars_, -1);
  while (!isConstEdge(e)) {
    const std::uint32_t v = varOf(e);
    const Edge h = highOf(e);
    if (h != kFalseEdge) {
      cube[v] = 1;
      e = h;
    } else {
      cube[v] = 0;
      e = lowOf(e);
    }
  }
  return cube;
}

}  // namespace bfvr::bdd

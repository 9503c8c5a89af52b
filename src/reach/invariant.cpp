#include "reach/invariant.hpp"

#include "reach/internal.hpp"
#include "sym/simulate.hpp"

namespace bfvr::reach {

namespace {

/// Predecessor extraction: a (state, input) pair with state in `within`
/// (chi over v) whose successor under the transition functions is exactly
/// `target` (latch order). Returns false if none exists.
bool pickPredecessor(sym::StateSpace& s, const std::vector<Bdd>& delta,
                     const Bdd& within, const std::vector<bool>& target,
                     std::vector<bool>& state, std::vector<bool>& inputs) {
  Manager& m = s.manager();
  Bdd cond = within;
  for (std::size_t c = 0; c < delta.size(); ++c) {
    const bool bit = target[s.latchOfComponent(c)];
    cond &= bit ? delta[c] : ~delta[c];
    if (cond.isFalse()) return false;
  }
  const std::vector<signed char> cube = m.pickCube(cond);
  auto bitOf = [&cube](unsigned var) { return cube[var] == 1; };
  state.resize(s.numLatches());
  for (std::size_t p = 0; p < s.numLatches(); ++p) {
    state[p] = bitOf(s.currentVar(p));
  }
  inputs.resize(s.inputVars().size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    inputs[i] = bitOf(s.inputVar(i));
  }
  return true;
}

/// Latch-order bits of one member of a non-empty Bfv (components are in
/// component order).
std::vector<bool> memberLatchOrder(const sym::StateSpace& s, const Bfv& f) {
  const std::vector<bool> comp_bits = f.enumerate(1).front();
  std::vector<bool> latch_bits(comp_bits.size());
  for (std::size_t c = 0; c < comp_bits.size(); ++c) {
    latch_bits[s.latchOfComponent(c)] = comp_bits[c];
  }
  return latch_bits;
}

}  // namespace

InvariantResult checkInvariant(sym::StateSpace& s, const Bdd& bad,
                               const ReachOptions& opts) {
  Manager& m = s.manager();
  InvariantResult out;
  internal::RunGuard guard(m, opts.budget);
  const ReachOptions untraced;  // InvariantResult carries no trace
  internal::Tracer tracer(m, untraced, guard);
  try {
    const Bfv bad_set = bfv::fromChar(m, bad, s.currentVars());
    const internal::BfvOps ops(s, opts, guard);

    // Onion rings: rings[i] = set reached within i steps (monotone), kept
    // for counterexample reconstruction.
    std::vector<Bfv> rings;
    Bfv reached = Bfv::point(m, s.currentVars(), s.initialBits());
    rings.push_back(reached);

    Bfv violating = bad_set.isEmpty()
                        ? Bfv::emptySet(m, s.currentVars())
                        : setIntersect(reached, bad_set);
    bool found = !violating.isEmpty();

    while (!found) {
      ++out.iterations;
      // The Fig. 2 engine's image step. It samples the peak after
      // simulation and after re-parameterization; the post-union sample
      // below covers the rest of the iteration.
      const internal::BfvOps::Step step = ops.image(reached, guard, tracer);
      const Bfv& img = step.img;
      const Bfv next = setUnion(reached, img);
      if (!bad_set.isEmpty()) {
        violating = setIntersect(img, bad_set);
        if (!violating.isEmpty()) found = true;
      }
      guard.sample();
      if (!found && next == reached) break;  // fixpoint, invariant holds
      reached = next;
      rings.push_back(reached);
      m.maybeGc();
      if (!found && opts.max_iterations != 0 &&
          out.iterations >= opts.max_iterations) {
        break;
      }
    }

    out.holds = !found;
    if (found) {
      // Reconstruct a (shortest) concrete trace by walking the rings
      // backwards: a state whose minimal ring is d was first produced by
      // the image of ring d-1, so a predecessor is guaranteed there.
      const std::vector<Bdd> delta = sym::transitionFunctions(s);
      std::vector<bool> cur = memberLatchOrder(s, violating);
      out.bad_state = cur;
      auto minimalRing = [&](const std::vector<bool>& latch_bits) {
        std::vector<bool> comp_bits(latch_bits.size());
        for (std::size_t c = 0; c < comp_bits.size(); ++c) {
          comp_bits[c] = latch_bits[s.latchOfComponent(c)];
        }
        for (std::size_t i = 0; i < rings.size(); ++i) {
          if (rings[i].contains(comp_bits)) return i;
        }
        throw std::logic_error("trace state not in any ring");
      };
      std::vector<TraceStep> rev;
      for (std::size_t d = minimalRing(cur); d > 0; d = minimalRing(cur)) {
        TraceStep step;
        if (!pickPredecessor(s, delta, rings[d - 1].toChar(), cur,
                             step.state, step.inputs)) {
          throw std::logic_error(
              "trace reconstruction failed: no predecessor in ring");
        }
        cur = step.state;
        rev.push_back(std::move(step));
      }
      out.trace.assign(rev.rbegin(), rev.rend());
    }
    out.status = RunStatus::kDone;
  } catch (const bdd::NodeBudgetExceeded&) {
    out.status = RunStatus::kMemOut;
  } catch (const internal::TimeBudgetExceeded&) {
    out.status = RunStatus::kTimeOut;
  } catch (const bdd::Interrupted& e) {
    out.status = e.reason() == bdd::Interrupted::Reason::kDeadline
                     ? RunStatus::kTimeOut
                     : RunStatus::kCancelled;
  }
  out.seconds = guard.seconds();
  out.peak_live_nodes = guard.peak();
  return out;
}

}  // namespace bfvr::reach

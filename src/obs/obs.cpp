#include "obs/obs.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace bfvr::obs {

const char* to_string(Phase p) noexcept {
  switch (p) {
    case Phase::kImage:
      return "image";
    case Phase::kReparam:
      return "reparam";
    case Phase::kUnion:
      return "union";
    case Phase::kCheck:
      return "check";
    case Phase::kConvert:
      return "convert";
    case Phase::kOther:
      return "other";
  }
  return "?";
}

const char* to_string(FromSet f) noexcept {
  switch (f) {
    case FromSet::kReached:
      return "reached";
    case FromSet::kImage:
      return "image";
    case FromSet::kChi:
      return "chi";
    case FromSet::kCheckpoint:
      return "checkpoint";
  }
  return "?";
}

double PhaseSeconds::total() const noexcept {
  double t = 0.0;
  for (const double s : seconds) t += s;
  return t;
}

PhaseSeconds PhaseSeconds::since(const PhaseSeconds& before) const noexcept {
  PhaseSeconds d;
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    d.seconds[i] = seconds[i] - before.seconds[i];
  }
  return d;
}

void PhaseTimer::push(Phase p) {
  const double t = now();
  if (!stack_.empty()) totals_[stack_.back()] += t - mark_;
  stack_.push_back(p);
  mark_ = t;
}

void PhaseTimer::popTopLocked(double t) {
  totals_[stack_.back()] += t - mark_;
  stack_.pop_back();
  mark_ = t;  // the parent scope (if any) resumes from here
}

void PhaseTimer::pop() {
  if (stack_.empty()) {
    throw std::logic_error("PhaseTimer::pop: no phase is open");
  }
  popTopLocked(now());
}

void PhaseTimer::pop(Phase expected) {
  if (stack_.empty()) {
    throw std::logic_error(std::string("PhaseTimer::pop(") +
                           to_string(expected) + "): no phase is open");
  }
  if (stack_.back() != expected) {
    // Overlapping (non-LIFO) begin/end: attributing the interval to either
    // phase would be wrong, so refuse loudly instead of guessing.
    throw std::logic_error(std::string("PhaseTimer::pop(") +
                           to_string(expected) +
                           "): phases overlap — innermost open phase is " +
                           to_string(stack_.back()));
  }
  popTopLocked(now());
}

void PhaseTimer::popScope(Phase expected) noexcept {
  assert(!stack_.empty() && "PhaseTimer scope closed with no phase open");
  assert(stack_.back() == expected &&
         "PhaseTimer scopes closed out of order (overlapping phases)");
  if (stack_.empty()) return;  // release-mode recovery: nothing to close
  (void)expected;
  popTopLocked(now());
}

}  // namespace bfvr::obs

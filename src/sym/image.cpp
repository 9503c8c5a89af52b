#include "sym/image.hpp"

#include <stdexcept>

namespace bfvr::sym {

Bdd rangeChar(const StateSpace& s, std::span<const Bdd> deltas,
              const Bdd& care) {
  Manager& m = s.manager();
  if (care.isFalse()) return m.zero();
  const std::span<const unsigned> u(s.paramVars());
  if (deltas.size() > u.size()) {
    throw std::invalid_argument("rangeChar: more components than latches");
  }
  std::vector<Bdd> vec(deltas.begin(), deltas.end());
  for (Bdd& d : vec) d = m.constrain(d, care);
  return m.range(vec, u.first(vec.size()));
}

}  // namespace bfvr::sym

// Transition-function image by recursive range splitting (Coudert & Madre):
// the "Boolean functional vector -> characteristic function" conversion the
// Fig. 1 flow pays for on every iteration. The splitting itself is one BDD
// kernel, bdd::Manager::range; this layer names the range variables.
#pragma once

#include "sym/space.hpp"

namespace bfvr::sym {

/// Characteristic function, over the param (u) bank, of the range of the
/// next-state functions `deltas` (component order, over v and x) restricted
/// to the care set `care` (over v and x). Constrains each function by the
/// care set, then splits the range with Manager::range:
///   Range(D) = u_1 & Range(D' |> d_1)  |  ~u_1 & Range(D' |> ~d_1)
/// (the generalized cofactor `constrain`, memoized on the remaining
/// vector).
Bdd rangeChar(const StateSpace& s, std::span<const Bdd> deltas,
              const Bdd& care);

}  // namespace bfvr::sym

// The sets the state-count property tests run over (Bfv::countStates and
// Cdec::countStates against satCount of the characteristic function).
#pragma once

#include <functional>
#include <string>

#include "bfv/bfv.hpp"

namespace bfvr::test {

/// Calls `check(f, label)` on every count case, each a canonical BFV:
///  * unions of random cubes at every width 1..64, with don't-care densities
///    from sparse to dense, so counts run from 1 to well past 2^53;
///  * the empty set and random singletons at every width;
///  * the width-64 universe (2^64 states);
///  * the reached set of every shipped data/*.bench circuit (Fig. 2 engine,
///    topological order, capped at 64 iterations for the long-diameter
///    ones).
/// Every case lives in a manager of its own that dies after `check`.
void forEachCountCase(
    const std::function<void(const bfv::Bfv&, const std::string&)>& check);

/// The count contract: `got` equals `want` below 2^53 and is at most one
/// ulp from it above.
void expectCountAgrees(double got, double want, const std::string& label);

}  // namespace bfvr::test

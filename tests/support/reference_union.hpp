// The §2.3 union core as it stood before the region-split rewrite of
// src/bfv/union.cpp: the exclusion-condition sweep with four cofactor()
// walks and the forced-condition formulas per component. Kept as the
// differential reference for bfv::internal::unionCore, the way
// referenceQuantifyParams keeps the pre-overhaul quantification loop. It
// also checks the invariant the rewrite relies on: the two exclusion
// conditions stay disjoint after every component.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "bdd/bdd.hpp"

namespace bfvr::test {

inline std::vector<bdd::Bdd> referenceUnionCore(
    bdd::Manager& m, const std::vector<unsigned>& vars,
    const std::vector<bdd::Bdd>& f, const std::vector<bdd::Bdd>& g) {
  using bdd::Bdd;
  const std::size_t n = vars.size();
  std::vector<Bdd> h(n);
  Bdd fx = m.zero();  // F excluded by the choices made so far
  Bdd gx = m.zero();  // G excluded by the choices made so far
  for (std::size_t i = 0; i < n; ++i) {
    if (fx.isFalse() && gx.isFalse() && f[i] == g[i]) {
      h[i] = f[i];
      continue;
    }
    const Bdd v = m.var(vars[i]);
    // f_i = f1 | fc & v_i  =>  f_i|v=0 = f1,  ~(f_i|v=1) = f0.
    const Bdd f1 = m.cofactor(f[i], vars[i], false);
    const Bdd f0 = ~m.cofactor(f[i], vars[i], true);
    const Bdd g1 = m.cofactor(g[i], vars[i], false);
    const Bdd g0 = ~m.cofactor(g[i], vars[i], true);
    // Forced in the union: forced in both, or forced in the sole remaining
    // operand.
    const Bdd h1 = (f1 & g1) | (f1 & gx) | (fx & g1);
    const Bdd h0 = (f0 & g0) | (f0 & gx) | (fx & g0);
    h[i] = h1 | (~h0 & v);
    // A choice against an operand's forced value excludes that operand.
    fx = fx | (f0 & h[i]) | (f1 & ~h[i]);
    gx = gx | (g0 & h[i]) | (g1 & ~h[i]);
    EXPECT_TRUE((fx & gx).isFalse())
        << "both operands excluded after component " << i;
  }
  return h;
}

}  // namespace bfvr::test

// Set union on canonical Boolean functional vectors (§2.3).
//
// Selecting a vector from the union chooses from either operand set. A bit
// is forced in the union only when it is forced to that value in both sets,
// or when one set has been *excluded* by an earlier choice and the bit is
// forced in the other. The exclusion conditions fx/gx track, per prefix of
// choices, which operand can no longer supply the selected vector — this is
// what the naive "free choice if either allows it" rule misses (the paper's
// over-approximation example).
//
// The sweep is evaluated region by region. The union never chooses against
// both operands' forced values at once, and where one operand is already
// excluded it follows the other exactly, so the two are never excluded
// together: fx & gx == 0 after every component. That splits the choice
// space into three disjoint regions, and in each the union component is one
// of three known functions:
//   fx         -> g_i (only G can still supply the vector)
//   gx         -> f_i (only F can)
//   neither    -> ITE(v_i, f_i | g_i, f_i & g_i)
//                 (forced 1 where both force 1, forced 0 where both force 0,
//                 free otherwise)
// and the exclusion update "chose against the operand's forced value" is
// ITE(h_i, forced0, forced1). Equal components need no work at all: the
// result is the shared function and neither exclusion grows (a canonical
// component never chooses against its own forced values).
#include "bfv/internal.hpp"

namespace bfvr::bfv {

namespace internal {

std::vector<Bdd> unionCore(Manager& m, const std::vector<unsigned>& vars,
                           const std::vector<Bdd>& f,
                           const std::vector<Bdd>& g) {
  const std::size_t n = vars.size();
  std::vector<Bdd> h(n);
  Bdd fx = m.zero();  // F excluded by the choices made so far
  Bdd gx = m.zero();  // G excluded by the choices made so far
  for (std::size_t i = 0; i < n; ++i) {
    if (f[i] == g[i]) {
      h[i] = f[i];
      continue;
    }
    h[i] = m.ite(m.var(vars[i]), f[i] | g[i], f[i] & g[i]);
    if (!gx.isFalse()) h[i] = m.ite(gx, f[i], h[i]);
    if (!fx.isFalse()) h[i] = m.ite(fx, g[i], h[i]);
    // f_i = f1 | fc & v_i  =>  f_i|v=0 = f1 (forced 1), ~(f_i|v=1) = f0
    // (forced 0); one cofactor2 walk gives both.
    const auto [f_lo, f_hi] = m.cofactor2(f[i], vars[i]);
    const auto [g_lo, g_hi] = m.cofactor2(g[i], vars[i]);
    fx = fx | m.ite(h[i], ~f_hi, f_lo);
    gx = gx | m.ite(h[i], ~g_hi, g_lo);
  }
  return h;
}

}  // namespace internal

Bfv setUnion(const Bfv& a, const Bfv& b) {
  a.requireCompatible(b);
  if (a.isEmpty()) return b;
  if (b.isEmpty()) return a;
  Manager& m = *a.manager();
  std::vector<Bdd> h = internal::unionCore(m, a.vars_, a.comps_, b.comps_);
  return Bfv(&m, a.vars_, std::move(h), /*empty=*/false);
}

}  // namespace bfvr::bfv

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
//   neither    -> ITE(f_i ^ g_i, v_i, f_i)
//                 (the shared value where f_i and g_i agree; free where they
//                 differ, which is where one of them is free or the two
//                 force opposite bits)
//
// The exclusion update "chose against F's forced value" is
// fx | (h_i ^ f_i), and likewise for G. This holds because the operands are
// (slice-)canonical: f_i = f1 | fc & v_i with f1 (forced 1), fc (free) and
// f0 (forced 0) a partition of the prefix space. Where F forces b, f_i = b,
// and choosing against it is h_i != b, i.e. h_i ^ f_i. Where F is free,
// f_i = v_i, and outside fx so is h_i: in the gx region h_i = f_i, and in
// the neither region h_i = v_i wherever f_i = v_i. There h_i ^ f_i = 0, as
// it must be. Inside fx the OR absorbs whatever the term says. So the
// update reads no cofactor of f_i, only f_i itself.
//
// Equal components need no work at all: the result is the shared function
// and neither exclusion grows (a canonical component never chooses against
// its own forced values). Past the last differing component nothing reads
// the exclusions, so the last differing component does not update them.
#include "bfv/internal.hpp"

namespace bfvr::bfv {

namespace internal {

std::vector<Bdd> unionCore(Manager& m, const std::vector<unsigned>& vars,
                           const std::vector<Bdd>& f,
                           const std::vector<Bdd>& g) {
  std::size_t last = vars.size();  // one past the last differing component
  while (last > 0 && f[last - 1] == g[last - 1]) --last;
  std::vector<Bdd> h = f;  // equal components keep the shared function
  Bdd fx = m.zero();  // F excluded by the choices made so far
  Bdd gx = m.zero();  // G excluded by the choices made so far
  for (std::size_t i = 0; i < last; ++i) {
    if (f[i] == g[i]) continue;
    h[i] = m.ite(f[i] ^ g[i], m.var(vars[i]), f[i]);
    if (!gx.isFalse()) h[i] = m.ite(gx, f[i], h[i]);
    if (!fx.isFalse()) h[i] = m.ite(fx, g[i], h[i]);
    if (i + 1 == last) break;  // no later component reads fx or gx
    fx = fx | (h[i] ^ f[i]);
    gx = gx | (h[i] ^ g[i]);
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

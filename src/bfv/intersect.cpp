// Set intersection on canonical Boolean functional vectors (§2.4).
//
// A conflict arises when a bit is forced to one in one operand and to zero
// in the other. The backward sweep computes elimination conditions e_i: the
// prefixes of choices that lead to an unavoidable conflict downstream. The
// forward pass then builds an approximation K that forces choices away from
// eliminated branches, and the final normalization substitutes the actual
// selected bits for the choice variables (h_i = k_i[v_j <- h_j, j < i]),
// which propagates the restricted choices through components that had a
// free choice in one operand but are constrained by the other.
//
// The paper notes this costs a quadratic number of BDD operations in the
// vector width — bench_setops measures exactly that.
#include "bfv/internal.hpp"

namespace bfvr::bfv {

namespace internal {

bool intersectCore(Manager& m, const std::vector<unsigned>& vars,
                   const std::vector<Bdd>& f, const std::vector<Bdd>& g,
                   std::vector<Bdd>& out) {
  const std::size_t n = vars.size();
  out.clear();
  if (n == 0) return true;  // both are the 0-width universe {()}

  // Selection conditions of every component of both operands.
  std::vector<Bdd> f1(n), f0(n), g1(n), g0(n);
  for (std::size_t i = 0; i < n; ++i) {
    f1[i] = m.cofactor(f[i], vars[i], false);
    f0[i] = ~m.cofactor(f[i], vars[i], true);
    g1[i] = m.cofactor(g[i], vars[i], false);
    g0[i] = ~m.cofactor(g[i], vars[i], true);
  }

  // Backward sweep: e[i] = elimination condition after components 0..i-1
  // have been chosen (a function of v_0..v_{i-1}); e[n] = 0. Taking bit i
  // as 1 is doomed when either operand forces it to 0 or the downstream
  // elimination fires for v_i = 1 (k0); dually for k1. A prefix is
  // eliminated when both values are doomed: e[i] = k1[i] & k0[i]. (This is
  // the closed form of the paper's "normalize the operands by propagating
  // the elimination constraints" remark; the simpler recurrence
  // f0 g1 | f1 g0 | forall v_i e misses dooms reached through a *forced*
  // bit whose opposite-choice branch is clean.)
  std::vector<Bdd> k1(n), k0(n), e(n + 1);
  e[n] = m.zero();
  for (std::size_t i = n; i-- > 0;) {
    k1[i] = f1[i] | g1[i] | m.cofactor(e[i + 1], vars[i], false);
    k0[i] = f0[i] | g0[i] | m.cofactor(e[i + 1], vars[i], true);
    e[i] = k1[i] & k0[i];
  }
  if (e[0].isTrue()) return false;  // every selection conflicts: empty set

  // Forward pass: force choices away from conflicts (approximation K), then
  // substitute the selected bits for the choice variables of earlier
  // components — h_i = k_i[v_j <- h_j, j < i] — which both restricts free
  // choices constrained by the other operand and keeps every selected
  // prefix viable (k1 and k0 are disjoint on viable prefixes).
  std::vector<Bdd> subst(m.numVars());
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Bdd k = k1[i] | (~k0[i] & m.var(vars[i]));
    out[i] = i == 0 ? k : m.vectorCompose(k, subst);
    subst[vars[i]] = out[i];
  }
  return true;
}

}  // namespace internal

Bfv setIntersect(const Bfv& a, const Bfv& b) {
  a.requireCompatible(b);
  if (a.isEmpty()) return a;
  if (b.isEmpty()) return b;
  Manager& m = *a.manager();
  std::vector<Bdd> h;
  if (!internal::intersectCore(m, a.vars_, a.comps_, b.comps_, h)) {
    return Bfv::emptySet(m, a.vars_);
  }
  return Bfv(&m, a.vars_, std::move(h), /*empty=*/false);
}

}  // namespace bfvr::bfv

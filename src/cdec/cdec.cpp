#include "cdec/cdec.hpp"

#include <stdexcept>

#include "bfv/internal.hpp"

namespace bfvr::cdec {

namespace {

/// `constrain` follows levels, so the components must sit at increasing
/// levels, not merely increasing variable indices: a reorder that moves
/// them fails here rather than giving a wrong set.
void requireIncreasing(const Manager& m, const std::vector<unsigned>& vars) {
  for (std::size_t i = 1; i < vars.size(); ++i) {
    if (m.levelOfVar(vars[i - 1]) >= m.levelOfVar(vars[i])) {
      throw std::invalid_argument(
          "conjunctive decomposition requires component order == BDD order");
    }
  }
}

/// Constrain-based union on raw constraint vectors. Keeps the invariant
/// AND_{j<=i} h_j == PF_i | PG_i (projections distribute over disjunction),
/// and canonicalizes each component with the generalized cofactor of the
/// previous projection: h_i = (PF_i | PG_i) |> PH_{i-1}.
std::vector<bdd::Bdd> unionCoreCdec(Manager& m,
                                    const std::vector<unsigned>& vars,
                                    const std::vector<Bdd>& f,
                                    const std::vector<Bdd>& g) {
  (void)vars;
  const std::size_t n = f.size();
  std::vector<Bdd> h(n);
  Bdd pf = m.one();       // running projection of F: AND_{j<=i} f_j
  Bdd pg = m.one();       // running projection of G
  Bdd ph_prev = m.one();  // PH_{i-1} = PF_{i-1} | PG_{i-1}
  for (std::size_t i = 0; i < n; ++i) {
    pf &= f[i];
    pg &= g[i];
    const Bdd ph = pf | pg;
    h[i] = m.constrain(ph, ph_prev);
    ph_prev = ph;
    m.maybeGc();
  }
  return h;
}

}  // namespace

Cdec Cdec::emptySet(Manager& m, std::vector<unsigned> vars) {
  requireIncreasing(m, vars);
  return Cdec(&m, std::move(vars), {}, /*empty=*/true);
}

Cdec Cdec::universe(Manager& m, std::vector<unsigned> vars) {
  requireIncreasing(m, vars);
  std::vector<Bdd> comps(vars.size(), m.one());
  return Cdec(&m, std::move(vars), std::move(comps), false);
}

Cdec Cdec::fromChar(Manager& m, const Bdd& chi, std::vector<unsigned> vars) {
  requireIncreasing(m, vars);
  if (chi.isFalse()) return emptySet(m, std::move(vars));
  const std::size_t n = vars.size();
  // Suffix projections P_i = exists v_{i+1..n} chi, then the canonical
  // component c_i = constrain(P_i, P_{i-1}).
  std::vector<Bdd> proj(n);
  if (n > 0) {
    proj[n - 1] = chi;
    for (std::size_t i = n - 1; i-- > 0;) {
      const unsigned var[] = {vars[i + 1]};
      proj[i] = m.exists(proj[i + 1], m.cube(var));
    }
  }
  std::vector<Bdd> comps(n);
  Bdd prev = m.one();
  for (std::size_t i = 0; i < n; ++i) {
    comps[i] = m.constrain(proj[i], prev);
    prev = proj[i];
  }
  return Cdec(&m, std::move(vars), std::move(comps), false);
}

Cdec Cdec::fromBfv(const Bfv& f) {
  if (f.isNull()) throw std::logic_error("fromBfv of null Bfv");
  Manager& m = *f.manager();
  if (f.isEmpty()) return emptySet(m, f.choiceVars());
  std::vector<Bdd> comps(f.width());
  for (unsigned i = 0; i < f.width(); ++i) {
    comps[i] = m.xnorB(m.var(f.choiceVars()[i]), f.comps()[i]);
  }
  return Cdec(&m, f.choiceVars(), std::move(comps), false);
}

Cdec Cdec::fromConstraints(Manager& m, std::vector<unsigned> vars,
                           std::vector<Bdd> comps) {
  requireIncreasing(m, vars);
  if (comps.size() != vars.size()) {
    throw std::invalid_argument("fromConstraints: arity mismatch");
  }
  return Cdec(&m, std::move(vars), std::move(comps), false);
}

bool Cdec::operator==(const Cdec& o) const {
  if (mgr_ != o.mgr_ || vars_ != o.vars_) return false;
  if (empty_ || o.empty_) return empty_ == o.empty_;
  return comps_ == o.comps_;
}

Bdd Cdec::toChar() const {
  if (isNull()) throw std::logic_error("toChar on null Cdec");
  if (empty_) return mgr_->zero();
  Bdd chi = mgr_->one();
  for (const Bdd& c : comps_) chi &= c;
  return chi;
}

Bfv Cdec::toBfv() const {
  if (isNull()) throw std::logic_error("toBfv on null Cdec");
  if (empty_) return Bfv::emptySet(*mgr_, vars_);
  std::vector<Bdd> comps(vars_.size());
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    // f_i = c_i|v=1 & (~c_i|v=0 | v_i): forced-1 where only 1 satisfies the
    // constraint, the choice variable where both do.
    const Bdd c1 = mgr_->cofactor(comps_[i], vars_[i], true);
    const Bdd c0 = mgr_->cofactor(comps_[i], vars_[i], false);
    comps[i] = c1 & (~c0 | mgr_->var(vars_[i]));
  }
  return Bfv::fromComponents(*mgr_, vars_, std::move(comps), /*trusted=*/true);
}

double Cdec::countStates() const {
  if (isNull()) throw std::logic_error("countStates on null Cdec");
  if (empty_) return 0.0;
  return bfv::internal::countMembers(*mgr_, vars_, comps_,
                                     /*constraints=*/true);
}

std::size_t Cdec::sharedSize() const {
  if (isNull() || empty_) return 0;
  return mgr_->sharedNodeCount(comps_);
}

Cdec setUnion(const Cdec& a, const Cdec& b) {
  if (a.isNull() || b.isNull()) throw std::logic_error("union on null Cdec");
  if (a.mgr_ != b.mgr_ || a.vars_ != b.vars_) {
    throw std::invalid_argument("Cdec operands incompatible");
  }
  if (a.isEmpty()) return b;
  if (b.isEmpty()) return a;
  std::vector<Bdd> h = unionCoreCdec(*a.mgr_, a.vars_, a.comps_, b.comps_);
  return Cdec(a.mgr_, a.vars_, std::move(h), false);
}

Cdec setIntersect(const Cdec& a, const Cdec& b) {
  if (a.isNull() || b.isNull()) {
    throw std::logic_error("intersect on null Cdec");
  }
  if (a.mgr_ != b.mgr_ || a.vars_ != b.vars_) {
    throw std::invalid_argument("Cdec operands incompatible");
  }
  if (a.isEmpty()) return a;
  if (b.isEmpty()) return b;
  // Projection does not distribute over conjunction; go through chi.
  return Cdec::fromChar(*a.mgr_, a.toChar() & b.toChar(), a.vars_);
}

Cdec reparameterizeCdec(Manager& m, std::span<const Bdd> outputs,
                        std::vector<unsigned> choice_vars,
                        std::span<const unsigned> param_vars,
                        const bfv::ReparamOptions& opts) {
  requireIncreasing(m, choice_vars);
  if (outputs.size() != choice_vars.size()) {
    throw std::invalid_argument("reparameterizeCdec: arity mismatch");
  }
  // Initial constraints of the raw vector: c_i = v_i XNOR g_i. Per fixed
  // parameter assignment this is the canonical decomposition of a
  // singleton, so the slice-union loop applies unchanged.
  std::vector<Bdd> cur(outputs.size());
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    cur[i] = m.xnorB(m.var(choice_vars[i]), outputs[i]);
  }
  cur = bfv::internal::quantifyParams(m, std::move(cur), choice_vars,
                                      param_vars, opts, &unionCoreCdec);
  return Cdec(&m, std::move(choice_vars), std::move(cur), false);
}

}  // namespace bfvr::cdec

// Bfv basics: elementary-set constructors, observers, characteristic
// function (§2.7 identity), the chi-free state count, canonicity checking.
#include "bfv/bfv.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "bfv/internal.hpp"

namespace bfvr::bfv {

namespace {

void requireIncreasing(const std::vector<unsigned>& vars) {
  for (std::size_t i = 1; i < vars.size(); ++i) {
    if (vars[i - 1] >= vars[i]) {
      throw std::invalid_argument(
          "choice variables must be strictly increasing (component order == "
          "BDD order)");
    }
  }
}

}  // namespace

namespace internal {

double countMembers(Manager& m, const std::vector<unsigned>& vars,
                    const std::vector<Bdd>& comps, bool constraints) {
  // w holds W_i, the number of completions v_{i+1..n} of a prefix v_1..v_i,
  // as binary digits (BDDs over the prefix, least significant first):
  //   W_n = 1,   W_{i-1} = c_i|v_i=0 * W_i|v_i=0 + c_i|v_i=1 * W_i|v_i=1,
  // the sum by ripple-carry addition. W_0 depends on no variable: the count.
  std::vector<Bdd> w{m.one()};
  std::vector<Bdd> lo, hi;
  for (std::size_t i = vars.size(); i-- > 0;) {
    auto [c0, c1] = m.cofactor2(comps[i], vars[i]);
    // For c_i = v_i XNOR f_i: c_i|v_i=0 = ~f_i|v_i=0, c_i|v_i=1 = f_i|v_i=1.
    if (!constraints) c0 = ~c0;
    lo.resize(w.size());
    hi.resize(w.size());
    for (std::size_t k = 0; k < w.size(); ++k) {
      const auto [w0, w1] = m.cofactor2(w[k], vars[i]);
      lo[k] = c0 & w0;
      hi[k] = c1 & w1;
    }
    Bdd carry = m.zero();
    for (std::size_t k = 0; k < w.size(); ++k) {
      const Bdd t = lo[k] ^ hi[k];
      w[k] = t ^ carry;
      carry = m.ite(t, carry, lo[k]);
    }
    w.push_back(carry);
    while (w.size() > 1 && w.back().isFalse()) w.pop_back();
  }
  for (const Bdd& digit : w) {
    if (!digit.isConst()) {
      throw std::logic_error(
          "countMembers: a component depends on a later choice variable");
    }
  }
  if (w.back().isFalse()) return 0.0;
  // Round to nearest: the top 64 digits, with every lower digit folded into
  // a sticky bit 0, convert like the exact integer would (the sticky bit sits
  // far below the 53-bit rounding position).
  const std::size_t low = w.size() > 64 ? w.size() - 64 : 0;
  std::uint64_t top = 0;
  for (std::size_t k = w.size(); k-- > low;) {
    top = (top << 1) | (w[k].isTrue() ? 1U : 0U);
  }
  for (std::size_t k = 0; k < low; ++k) {
    if (w[k].isTrue()) {
      top |= 1U;
      break;
    }
  }
  return std::ldexp(static_cast<double>(top), static_cast<int>(low));
}

}  // namespace internal

Bfv Bfv::emptySet(Manager& m, std::vector<unsigned> choice_vars) {
  requireIncreasing(choice_vars);
  return Bfv(&m, std::move(choice_vars), {}, /*empty=*/true);
}

Bfv Bfv::universe(Manager& m, std::vector<unsigned> choice_vars) {
  requireIncreasing(choice_vars);
  std::vector<Bdd> comps;
  comps.reserve(choice_vars.size());
  for (unsigned v : choice_vars) comps.push_back(m.var(v));
  return Bfv(&m, std::move(choice_vars), std::move(comps), false);
}

Bfv Bfv::point(Manager& m, std::vector<unsigned> choice_vars,
               const std::vector<bool>& bits) {
  requireIncreasing(choice_vars);
  if (bits.size() != choice_vars.size()) {
    throw std::invalid_argument("point: wrong number of bits");
  }
  std::vector<Bdd> comps;
  comps.reserve(bits.size());
  for (bool b : bits) comps.push_back(b ? m.one() : m.zero());
  return Bfv(&m, std::move(choice_vars), std::move(comps), false);
}

Bfv Bfv::cubeSet(Manager& m, std::vector<unsigned> choice_vars,
                 std::span<const signed char> values) {
  requireIncreasing(choice_vars);
  if (values.size() != choice_vars.size()) {
    throw std::invalid_argument("cubeSet: wrong number of values");
  }
  std::vector<Bdd> comps;
  comps.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] < 0) {
      comps.push_back(m.var(choice_vars[i]));
    } else {
      comps.push_back(values[i] != 0 ? m.one() : m.zero());
    }
  }
  return Bfv(&m, std::move(choice_vars), std::move(comps), false);
}

Bfv Bfv::fromMembers(Manager& m, std::vector<unsigned> choice_vars,
                     std::span<const std::uint64_t> members) {
  const unsigned n = static_cast<unsigned>(choice_vars.size());
  Bfv acc = emptySet(m, choice_vars);
  std::vector<bool> bits(n);
  for (std::uint64_t mem : members) {
    for (unsigned i = 0; i < n; ++i) bits[i] = ((mem >> i) & 1U) != 0;
    acc = setUnion(acc, point(m, choice_vars, bits));
  }
  return acc;
}

Bfv Bfv::fromComponents(Manager& m, std::vector<unsigned> choice_vars,
                        std::vector<Bdd> comps, bool trusted) {
  requireIncreasing(choice_vars);
  if (comps.size() != choice_vars.size()) {
    throw std::invalid_argument("fromComponents: arity mismatch");
  }
  Bfv r(&m, std::move(choice_vars), std::move(comps), false);
  if (!trusted) {
    std::string why;
    if (!r.checkCanonical(&why)) {
      throw std::invalid_argument("fromComponents: not canonical: " + why);
    }
  }
  return r;
}

bool Bfv::operator==(const Bfv& o) const {
  if (mgr_ != o.mgr_ || vars_ != o.vars_) return false;
  if (empty_ || o.empty_) return empty_ == o.empty_;
  return comps_ == o.comps_;
}

bool Bfv::contains(const std::vector<bool>& bits) const {
  if (isNull()) throw std::logic_error("contains on null Bfv");
  if (empty_) return false;
  if (bits.size() != vars_.size()) {
    throw std::invalid_argument("contains: wrong number of bits");
  }
  std::vector<bool> assignment(mgr_->numVars(), false);
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    assignment[vars_[i]] = bits[i];
  }
  for (std::size_t i = 0; i < comps_.size(); ++i) {
    if (mgr_->eval(comps_[i], assignment) != bits[i]) return false;
  }
  return true;
}

Bdd Bfv::toChar() const {
  if (isNull()) throw std::logic_error("toChar on null Bfv");
  if (empty_) return mgr_->zero();
  // chi = AND_i (v_i XNOR f_i): the conjunctive-decomposition identity of
  // §2.7 — valid because canonical sets satisfy "X in S iff F(X) == X".
  Bdd chi = mgr_->one();
  for (std::size_t i = 0; i < comps_.size(); ++i) {
    chi &= mgr_->xnorB(mgr_->var(vars_[i]), comps_[i]);
  }
  return chi;
}

double Bfv::countStates() const {
  if (isNull()) throw std::logic_error("countStates on null Bfv");
  if (empty_) return 0.0;
  return internal::countMembers(*mgr_, vars_, comps_, /*constraints=*/false);
}

std::size_t Bfv::sharedSize() const {
  if (isNull() || empty_) return 0;
  return mgr_->sharedNodeCount(comps_);
}

ComponentConditions Bfv::conditions(unsigned i) const {
  if (isNull() || empty_) throw std::logic_error("conditions of empty Bfv");
  const Bdd hi = mgr_->cofactor(comps_[i], vars_[i], true);
  const Bdd lo = mgr_->cofactor(comps_[i], vars_[i], false);
  // f = f1 | fc & v  =>  f|v=0 = f1, f|v=1 = f1 | fc.
  ComponentConditions c;
  c.forced1 = lo;
  c.choice = hi & ~lo;
  c.forced0 = ~hi;
  return c;
}

std::vector<bool> Bfv::select(const std::vector<bool>& choices) const {
  if (isNull() || empty_) throw std::logic_error("select on empty Bfv");
  if (choices.size() != vars_.size()) {
    throw std::invalid_argument("select: wrong number of choices");
  }
  std::vector<bool> assignment(mgr_->numVars(), false);
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    assignment[vars_[i]] = choices[i];
  }
  std::vector<bool> out(comps_.size());
  for (std::size_t i = 0; i < comps_.size(); ++i) {
    out[i] = mgr_->eval(comps_[i], assignment);
  }
  return out;
}

std::vector<std::vector<bool>> Bfv::enumerate(std::size_t limit) const {
  std::vector<std::vector<bool>> out;
  if (isNull() || empty_ || limit == 0) return out;
  const Bdd chi = toChar();
  std::vector<bool> bits(vars_.size(), false);
  // Depth-first over the components in order, 0 branch first: members come
  // out ascending in the paper's weighted order.
  auto rec = [&](auto&& self, std::size_t i, const Bdd& rest) -> void {
    if (out.size() >= limit || rest.isFalse()) return;
    if (i == vars_.size()) {
      out.push_back(bits);
      return;
    }
    bits[i] = false;
    self(self, i + 1, mgr_->cofactor(rest, vars_[i], false));
    bits[i] = true;
    self(self, i + 1, mgr_->cofactor(rest, vars_[i], true));
  };
  rec(rec, 0, chi);
  return out;
}

bool Bfv::checkCanonical(std::string* why) const {
  auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  if (isNull()) return fail("null");
  if (empty_) return true;
  for (std::size_t i = 1; i < vars_.size(); ++i) {
    if (vars_[i - 1] >= vars_[i]) return fail("choice vars not increasing");
  }
  // Support containment and positive unateness.
  for (std::size_t i = 0; i < comps_.size(); ++i) {
    for (unsigned v : mgr_->support(comps_[i])) {
      const auto it = std::find(vars_.begin(), vars_.end(), v);
      if (it == vars_.end() ||
          static_cast<std::size_t>(it - vars_.begin()) > i) {
        return fail("component " + std::to_string(i) +
                    " depends on variable v" + std::to_string(v) +
                    " outside its prefix");
      }
    }
    const Bdd lo = mgr_->cofactor(comps_[i], vars_[i], false);
    const Bdd hi = mgr_->cofactor(comps_[i], vars_[i], true);
    if (!lo.implies(hi)) {
      return fail("component " + std::to_string(i) +
                  " not positive unate in its choice variable");
    }
  }
  // Idempotence: F(F(v)) == F(v).
  std::vector<Bdd> map(mgr_->numVars());
  for (std::size_t i = 0; i < vars_.size(); ++i) map[vars_[i]] = comps_[i];
  for (std::size_t i = 0; i < comps_.size(); ++i) {
    if (mgr_->vectorCompose(comps_[i], map) != comps_[i]) {
      return fail("component " + std::to_string(i) + " not idempotent");
    }
  }
  return true;
}

void Bfv::requireCompatible(const Bfv& o) const {
  if (isNull() || o.isNull()) {
    throw std::logic_error("operation on null Bfv");
  }
  if (mgr_ != o.mgr_) {
    throw std::logic_error("Bfv operands from different managers");
  }
  if (vars_ != o.vars_) {
    throw std::invalid_argument(
        "Bfv operands must share choice variables and component order");
  }
}

}  // namespace bfvr::bfv

// The zonotope fixpoint engine. Shape of the loop mirrors the BDD engines
// (expand the frontier, union into the reached set, stop when nothing new),
// but every set is a GeneratorSet and every image is an affine-form
// symbolic simulation — see lz_reach.hpp for the representation story.
#include "lz/lz_reach.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace bfvr::lz {

namespace {

/// Explicit points tracked before they too fold into the hull.
constexpr std::size_t kMaxPoints = std::size_t{1} << 20;
/// Exact-count budget: when points + sum 2^rank at the end of the run is at
/// most this, the members are enumerated (deduplicated) for an exact state
/// count; above it the count degrades to an upper bound.
constexpr std::size_t kEnumCap = std::size_t{1} << 22;

// ---- affine forms ----------------------------------------------------------
// A form is a packed row over [bit 0 = constant | bit 1+k = coefficient of
// parameter k]. Rows have ragged widths (parameters are minted on demand);
// all operations treat missing tail words as zero.

/// Drop trailing zero words — canonical widths, so equal linear parts
/// compare equal and map keys dedupe.
void trimForm(Bits& f) {
  while (!f.empty() && f.back() == 0) f.pop_back();
}

void xorIntoWide(Bits& a, const Bits& b) {
  if (b.size() > a.size()) a.resize(b.size(), 0);
  xorInto(a, b);
}

bool formIsConst(const Bits& f) {
  if (f.empty()) return true;
  if ((f[0] >> 1) != 0) return false;
  for (std::size_t i = 1; i < f.size(); ++i) {
    if (f[i] != 0) return false;
  }
  return true;
}

bool formConstVal(const Bits& f) {
  return !f.empty() && (f[0] & 1u) != 0;
}

Bits formConst(bool v) { return v ? Bits{1} : Bits{}; }

Bits formParam(unsigned k) {
  Bits f(wordsFor(k + 2), 0);
  setBit(f, k + 1, true);
  return f;
}

Bits formXor(const Bits& a, const Bits& b) {
  Bits r = a;
  xorIntoWide(r, b);
  return r;
}

Bits formNot(Bits f) {
  if (f.empty()) f.assign(1, 0);
  f[0] ^= 1u;
  return f;
}

/// Shared evaluation state of one member expansion: the growing parameter
/// pool and the memo of AND cross-term parameters. Memoizing delta per
/// unordered (A, B) pair keeps identical products correlated, so e.g.
/// (s&a) XOR (s&a) still cancels exactly.
struct FormCtx {
  unsigned ngens = 0;
  bool exact = true;
  std::uint64_t lossy = 0;  ///< fresh deltas minted
  std::map<std::pair<Bits, Bits>, unsigned> products;
};

/// f AND g over affine forms. Writing f = a0 ^ A.beta and g = b0 ^ B.beta:
///   f&g = a0b0 ^ a0(B.beta) ^ b0(A.beta) ^ (A.beta)(B.beta)
/// The cross term is exact when A == B ((A.beta)^2 = A.beta over GF(2)) or
/// an operand is constant; otherwise it is a quadratic the affine form
/// cannot carry, over-approximated by a fresh (memoized) free parameter.
Bits formAnd(FormCtx& ctx, const Bits& a, const Bits& b) {
  if (formIsConst(a)) return formConstVal(a) ? b : formConst(false);
  if (formIsConst(b)) return formConstVal(b) ? a : formConst(false);
  const bool a0 = (a[0] & 1u) != 0;
  const bool b0 = (b[0] & 1u) != 0;
  Bits A = a;
  A[0] &= ~Word{1};
  trimForm(A);
  Bits B = b;
  B[0] &= ~Word{1};
  trimForm(B);
  Bits r;
  if (A == B) {
    r = A;  // (A.beta)^2 = A.beta
  } else {
    ctx.exact = false;
    auto key = A < B ? std::make_pair(A, B) : std::make_pair(B, A);
    auto [it, fresh] = ctx.products.try_emplace(std::move(key), 0u);
    if (fresh) {
      it->second = ctx.ngens++;
      ++ctx.lossy;
    }
    r = formParam(it->second);
  }
  if (a0) xorIntoWide(r, B);
  if (b0) xorIntoWide(r, A);
  if (a0 && b0) {
    if (r.empty()) r.assign(1, 0);
    r[0] ^= 1u;
  }
  return r;
}

Bits formOr(FormCtx& ctx, const Bits& a, const Bits& b) {
  return formNot(formAnd(ctx, formNot(a), formNot(b)));
}

// ---- member expansion ------------------------------------------------------

struct MemberImage {
  GeneratorSet img;
  bool exact = true;
  bool out_can_be_1 = false;  ///< target form is not identically false
  unsigned gens_used = 0;
  std::uint64_t lossy = 0;
};

MemberImage evalMember(const circuit::Netlist& n,
                       const std::vector<circuit::SignalId>& topo,
                       const GeneratorSet& member, int target_output) {
  const unsigned dims = static_cast<unsigned>(n.latches().size());
  FormCtx ctx;
  ctx.ngens = member.rank();
  std::vector<Bits> form(n.numSignals());

  // Sources: latches slice the member's column structure (parameter k of
  // latch p is bit p of generator k); each primary input is a fresh free
  // parameter — inputs re-randomize every step.
  for (std::size_t p = 0; p < n.latches().size(); ++p) {
    Bits f(wordsFor(member.rank() + 1), 0);
    setBit(f, 0, getBit(member.center(), static_cast<unsigned>(p)));
    for (unsigned k = 0; k < member.rank(); ++k) {
      if (getBit(member.generators()[k], static_cast<unsigned>(p))) {
        setBit(f, k + 1, true);
      }
    }
    trimForm(f);
    form[n.latches()[p]] = std::move(f);
  }
  for (circuit::SignalId in : n.inputs()) form[in] = formParam(ctx.ngens++);

  for (circuit::SignalId id : topo) {
    const circuit::Gate& g = n.gate(id);
    if (circuit::isSource(g.op)) continue;
    switch (g.op) {
      case circuit::GateOp::kConst0:
        form[id] = formConst(false);
        break;
      case circuit::GateOp::kConst1:
        form[id] = formConst(true);
        break;
      case circuit::GateOp::kBuf:
        form[id] = form[g.fanins[0]];
        break;
      case circuit::GateOp::kNot:
        form[id] = formNot(form[g.fanins[0]]);
        break;
      case circuit::GateOp::kAnd:
      case circuit::GateOp::kNand: {
        Bits acc = form[g.fanins[0]];
        for (std::size_t i = 1; i < g.fanins.size(); ++i) {
          acc = formAnd(ctx, acc, form[g.fanins[i]]);
        }
        form[id] = g.op == circuit::GateOp::kNand ? formNot(std::move(acc))
                                                  : std::move(acc);
        break;
      }
      case circuit::GateOp::kOr:
      case circuit::GateOp::kNor: {
        Bits acc = form[g.fanins[0]];
        for (std::size_t i = 1; i < g.fanins.size(); ++i) {
          acc = formOr(ctx, acc, form[g.fanins[i]]);
        }
        form[id] = g.op == circuit::GateOp::kNor ? formNot(std::move(acc))
                                                 : std::move(acc);
        break;
      }
      case circuit::GateOp::kXor:
      case circuit::GateOp::kXnor: {
        Bits acc = form[g.fanins[0]];
        for (std::size_t i = 1; i < g.fanins.size(); ++i) {
          acc = formXor(acc, form[g.fanins[i]]);
        }
        form[id] = g.op == circuit::GateOp::kXnor ? formNot(std::move(acc))
                                                  : std::move(acc);
        break;
      }
      default:
        break;  // sources filtered above
    }
  }

  MemberImage out{GeneratorSet(dims)};
  // Column-slice the latch-data forms into the image zonotope: latch bit p
  // of the center is the constant of form p, generator k is the column of
  // coefficient k across the latch-data forms. addGenerator drops zero and
  // dependent columns, so the image arrives already reduced.
  Bits center(wordsFor(dims), 0);
  for (std::size_t p = 0; p < n.latches().size(); ++p) {
    const Bits& f = form[n.latchData(p)];
    if (!f.empty() && (f[0] & 1u) != 0) {
      setBit(center, static_cast<unsigned>(p), true);
    }
  }
  out.img = GeneratorSet(dims, std::move(center));
  for (unsigned k = 0; k < ctx.ngens; ++k) {
    Bits col(wordsFor(dims), 0);
    bool any = false;
    for (std::size_t p = 0; p < n.latches().size(); ++p) {
      const Bits& f = form[n.latchData(p)];
      const unsigned bit = k + 1;
      if (bit / 64 < f.size() && getBit(f, bit)) {
        setBit(col, static_cast<unsigned>(p), true);
        any = true;
      }
    }
    if (any) out.img.addGenerator(std::move(col));
  }
  if (target_output >= 0 &&
      static_cast<std::size_t>(target_output) < n.outputs().size()) {
    const Bits& f = form[n.outputs()[static_cast<std::size_t>(target_output)]];
    // A non-constant affine form attains both values; constant-true always
    // does. Only the identically-false form can never assert the output.
    out.out_can_be_1 = !(formIsConst(f) && !formConstVal(f));
  }
  out.exact = ctx.exact;
  out.gens_used = ctx.ngens;
  out.lossy = ctx.lossy;
  return out;
}

// ---- reached-set bookkeeping ----------------------------------------------

Bits unpack(std::uint64_t v, unsigned dims) {
  Bits b(wordsFor(dims), 0);
  if (!b.empty()) b[0] = v;
  return b;
}

void addPoint(StateSet& s, const Bits& p) {
  if (s.dims <= 64) {
    s.points.insert(packLow(p));
  } else {
    s.wide_points.insert(p);
  }
}

}  // namespace

bool StateSet::containsPoint(const Bits& p) const {
  if (dims <= 64) {
    if (points.contains(packLow(p))) return true;
  } else if (wide_points.contains(p)) {
    return true;
  }
  for (const GeneratorSet& z : zonos) {
    if (z.contains(p)) return true;
  }
  return false;
}

double StateSet::upperBound() const noexcept {
  double total = static_cast<double>(pointCount());
  for (const GeneratorSet& z : zonos) total += z.count();
  return total;
}

LzResult lzReach(const circuit::Netlist& n, const LzOptions& opts) {
  const Timer timer;
  LzResult res;
  if (opts.target_output >= 0 &&
      static_cast<std::size_t>(opts.target_output) >= n.outputs().size()) {
    throw std::invalid_argument("lzReach: target output out of range");
  }
  const unsigned dims = static_cast<unsigned>(n.latches().size());
  const std::vector<circuit::SignalId> topo = n.topoOrder();
  res.reached = StateSet(dims);
  std::vector<std::string> caveats;

  Bits init(wordsFor(dims), 0);
  for (std::size_t p = 0; p < n.latches().size(); ++p) {
    if (n.latchInit(p)) setBit(init, static_cast<unsigned>(p), true);
  }
  addPoint(res.reached, init);
  std::vector<GeneratorSet> frontier;
  frontier.emplace_back(dims, init);

  bool all_exact = true;
  bool capped = false;
  bool hit = false;        // target output seen attainable
  bool hit_exact = false;  // ...while the run was still exact
  bool stopped = false;    // cancelled / timed out mid-iteration

  while (!frontier.empty() && !stopped) {
    ++res.iterations;
    double frontier_upper = 0.0;
    for (const GeneratorSet& m : frontier) frontier_upper += m.count();
    std::vector<GeneratorSet> next;

    for (const GeneratorSet& member : frontier) {
      if (opts.cancelled && opts.cancelled()) {
        res.status = RunStatus::kCancelled;
        res.message = "cancelled";
        stopped = true;
        break;
      }
      if (opts.budget.max_seconds > 0.0 &&
          timer.seconds() > opts.budget.max_seconds) {
        res.status = RunStatus::kTimeOut;
        std::ostringstream os;
        os << "time budget " << opts.budget.max_seconds << "s exceeded";
        res.message = os.str();
        stopped = true;
        break;
      }
      MemberImage mi = evalMember(n, topo, member, opts.target_output);
      res.peak_generators = std::max(res.peak_generators, mi.gens_used);
      res.lossy_products += mi.lossy;
      if (!mi.exact) all_exact = false;
      if (opts.target_output >= 0 && mi.out_can_be_1 && !hit) {
        hit = true;
        hit_exact = all_exact;
      }
      if (mi.img.rank() == 0) {
        if (!res.reached.containsPoint(mi.img.center())) {
          addPoint(res.reached, mi.img.center());
          next.push_back(std::move(mi.img));
        }
      } else {
        bool covered = false;
        for (const GeneratorSet& z : res.reached.zonos) {
          if (z.containsSet(mi.img)) {
            covered = true;
            break;
          }
        }
        if (!covered) {
          // Prune members the new image subsumes — image chains of affine
          // circuits are nested, so this keeps the list at size 1 there.
          std::erase_if(res.reached.zonos, [&](const GeneratorSet& z) {
            return mi.img.containsSet(z);
          });
          res.reached.zonos.push_back(mi.img);
          next.push_back(std::move(mi.img));
        }
      }
    }
    if (stopped) break;

    // Merge pressure: too many members — fold them into their affine hull.
    // The hull's rank strictly exceeds any folded member's (they are
    // mutually non-contained), so at most `dims` inexact folds can ever
    // happen: the termination guarantee on lossy circuits.
    if (res.reached.zonos.size() > opts.merge_threshold ||
        res.reached.pointCount() > kMaxPoints) {
      bool fold_exact = true;
      std::vector<GeneratorSet> members = std::move(res.reached.zonos);
      res.reached.zonos.clear();
      const bool fold_points =
          res.reached.pointCount() > kMaxPoints || members.empty();
      GeneratorSet hull =
          members.empty() ? GeneratorSet(dims, init) : std::move(members[0]);
      for (std::size_t i = 1; i < members.size(); ++i) {
        bool e = false;
        hull = GeneratorSet::unionHull(hull, members[i], &e);
        fold_exact = fold_exact && e;
      }
      if (fold_points || !fold_exact) {
        // Absorb the explicit points too, so the single hull covers every
        // state the (replaced) frontier members represented.
        auto absorb = [&](const Bits& p) {
          bool e = false;
          hull = GeneratorSet::unionHull(hull, GeneratorSet(dims, p), &e);
          fold_exact = fold_exact && e;
        };
        for (std::uint64_t v : res.reached.points) absorb(unpack(v, dims));
        for (const Bits& p : res.reached.wide_points) absorb(p);
        res.reached.points.clear();
        res.reached.wide_points.clear();
      }
      res.reached.zonos.push_back(hull);
      if (!fold_exact) {
        // The hull gained states no member ever represented; they have not
        // been simulated, so the frontier restarts from the hull itself.
        all_exact = false;
        next.clear();
        next.push_back(std::move(hull));
        caveats.push_back("member overflow folded into an inexact hull");
      }
    }

    if (opts.on_iteration) {
      IterationStats it;
      it.iteration = res.iterations;
      it.frontier_states = frontier_upper;
      it.frontier_members = frontier.size();
      it.zonotopes = res.reached.zonos.size();
      it.points = res.reached.pointCount();
      it.generators = res.peak_generators;
      it.reached_upper = res.reached.upperBound();
      it.seconds = timer.seconds();
      opts.on_iteration(it);
    }

    if (hit) break;  // conclusive (exact hit) or hopeless (lossy hit)
    if (opts.max_iterations != 0 && res.iterations >= opts.max_iterations &&
        !next.empty()) {
      capped = true;
      break;
    }
    frontier = std::move(next);
  }

  res.zonotopes = res.reached.zonos.size();
  res.point_states = res.reached.pointCount();
  res.seconds = timer.seconds();

  // State count: exact when the members are provably disjoint (no member,
  // one member, or a full deduplicating enumeration under the cap).
  bool count_exact = false;
  if (res.reached.zonos.empty()) {
    res.states = static_cast<double>(res.reached.pointCount());
    count_exact = true;
  } else if (res.reached.zonos.size() == 1) {
    const GeneratorSet& z = res.reached.zonos.front();
    double extra = 0.0;
    for (std::uint64_t v : res.reached.points) {
      if (!z.contains(unpack(v, dims))) extra += 1.0;
    }
    for (const Bits& p : res.reached.wide_points) {
      if (!z.contains(p)) extra += 1.0;
    }
    res.states = z.count() + extra;
    count_exact = true;
  } else if (res.reached.upperBound() <=
             static_cast<double>(kEnumCap)) {
    if (dims <= 64) {
      std::unordered_set<std::uint64_t> all = res.reached.points;
      for (const GeneratorSet& z : res.reached.zonos) {
        z.forEachPoint([&](const Bits& p) { all.insert(packLow(p)); });
      }
      res.states = static_cast<double>(all.size());
    } else {
      std::set<Bits> all = res.reached.wide_points;
      for (const GeneratorSet& z : res.reached.zonos) {
        z.forEachPoint([&](const Bits& p) { all.insert(p); });
      }
      res.states = static_cast<double>(all.size());
    }
    count_exact = true;
  } else {
    res.states = res.reached.upperBound();
    caveats.push_back("state count is an upper bound (enumeration cap)");
  }
  res.exact = all_exact && count_exact;

  if (res.status == RunStatus::kCancelled ||
      res.status == RunStatus::kTimeOut) {
    res.exact = false;
    return res;
  }

  if (res.lossy_products != 0) {
    std::ostringstream os;
    os << res.lossy_products << " lossy AND cross term(s) over-approximated";
    caveats.insert(caveats.begin(), os.str());
  }
  if (capped) caveats.push_back("stopped at the iteration cap");
  const auto joined = [&caveats] {
    std::string s;
    for (const std::string& c : caveats) {
      if (!s.empty()) s += "; ";
      s += c;
    }
    return s;
  };

  if (opts.target_output >= 0) {
    if (hit && hit_exact) {
      // The exact prefix of the run witnessed a state+input asserting the
      // output: conclusively reachable.
      res.status = RunStatus::kDone;
      res.target_reachable = true;
    } else if (!hit && !capped) {
      // Fixpoint of a sound over-approximation never asserts the output:
      // conclusively unreachable — the pre-filter verdict, valid even when
      // the state count itself is approximate.
      res.status = RunStatus::kDone;
      res.target_reachable = false;
      res.message = joined();
    } else {
      res.status = RunStatus::kInconclusive;
      res.message = hit ? "target asserted only in the over-approximation"
                        : joined();
    }
    return res;
  }

  if (res.exact) {
    res.status = RunStatus::kDone;
    res.message = capped ? joined() : "";
  } else {
    res.status = RunStatus::kInconclusive;
    res.message = joined();
  }
  return res;
}

}  // namespace bfvr::lz

// The paper's reachability flow (Fig. 2): symbolic simulation for images,
// re-parameterization and set union directly on the canonical functional
// vector. No characteristic function is built, not even for the state
// count (Bfv::countStates counts on the components). The CDEC engine
// performs the same steps on the conjunctive decomposition (§2.7), using the
// constrain-based union, under a held variable order.
#include "reach/internal.hpp"

namespace bfvr::reach {

namespace {

using cdec::Cdec;
using internal::RunGuard;
using internal::Tracer;

/// Rename a canonical vector or decomposition (components over the u bank)
/// onto the v bank. The banks are interleaved, so the renaming preserves
/// relative order and canonicity.
std::vector<Bdd> renameToCurrent(const sym::StateSpace& s,
                                 const std::vector<Bdd>& comps) {
  Manager& m = s.manager();
  std::vector<Bdd> out(comps.size());
  for (std::size_t i = 0; i < comps.size(); ++i) {
    out[i] = m.permute(comps[i], s.permParamToCurrent());
  }
  return out;
}

std::vector<unsigned> simulationParams(const sym::StateSpace& s) {
  std::vector<unsigned> params = s.currentVars();
  params.insert(params.end(), s.inputVars().begin(), s.inputVars().end());
  return params;
}

/// Reject a BFV/CDEC checkpoint this engine cannot continue: another
/// engine's tag, another bank of choice variables, or a root count that
/// does not match them. What passes can be wrapped without further checks.
void checkVectorCheckpoint(const sym::StateSpace& s, const io::Checkpoint& c,
                           Engine engine, io::RootKind kind) {
  if (c.engine != tag(engine) || c.kind != kind) {
    throw io::Error("checkpoint: written by engine '" + c.engine +
                    "', not '" + tag(engine) + "'");
  }
  if (c.choice_vars != s.currentVars()) {
    throw io::Error(
        "checkpoint: choice variables are not the current-state bank");
  }
  const std::size_t n = c.choice_vars.size();
  if ((!c.reached_empty && c.reached.size() != n) ||
      (!c.frontier_empty && c.frontier.size() != n)) {
    throw io::Error(
        "checkpoint: root count differs from choice-variable count");
  }
}

class CdecOps {
 public:
  using Set = Cdec;
  static constexpr bool kSampleUnion = true;
  /// The BFV view simulation needs, the simulated vector, its
  /// re-parameterization over the u bank, and the image on the v bank.
  struct Step {
    Bfv from_bfv;
    sym::SimResult sim;
    Cdec img_u, img;
  };

  CdecOps(sym::StateSpace& s, const ReachOptions& opts, RunGuard&)
      : s_(s), reparam_(opts.reparam), params_(simulationParams(s)) {}

  static std::pair<Cdec, Cdec> decode(sym::StateSpace& s,
                                      const io::Checkpoint& c) {
    checkVectorCheckpoint(s, c, Engine::kCdec, io::RootKind::kCdec);
    auto set = [&](const std::vector<Bdd>& roots, bool empty) {
      return empty ? Cdec::emptySet(s.manager(), c.choice_vars)
                   : Cdec::fromConstraints(s.manager(), c.choice_vars, roots);
    };
    try {
      return {set(c.reached, c.reached_empty),
              set(c.frontier, c.frontier_empty)};
    } catch (const std::invalid_argument& e) {  // an order CDEC cannot use
      throw io::Error(std::string("checkpoint: ") + e.what());
    }
  }

  Cdec initial() const {
    return Cdec::fromBfv(
        Bfv::point(s_.manager(), s_.currentVars(), s_.initialBits()));
  }
  static double states(const Cdec& f) { return f.countStates(); }

  Step image(const Cdec& from, RunGuard& guard, Tracer& tracer) const {
    Manager& m = s_.manager();
    Step st;
    // Simulation needs evaluating components: derive the BFV view (two
    // cofactor operations per component).
    st.from_bfv =
        tracer.timed(obs::Phase::kConvert, [&] { return from.toBfv(); });
    st.sim = tracer.timed(obs::Phase::kImage, [&] {
      return sym::simulate(s_, st.from_bfv.comps());
    });
    guard.sample();
    st.img_u = tracer.timed(obs::Phase::kReparam, [&] {
      return cdec::reparameterizeCdec(m, st.sim.next_state, s_.paramVars(),
                                      params_, reparam_);
    });
    guard.sample();
    // Constrain-canonical form survives the order-preserving renaming.
    st.img = tracer.timed(obs::Phase::kReparam, [&] {
      return Cdec::fromConstraints(
          m, s_.currentVars(), renameToCurrent(s_, st.img_u.constraints()));
    });
    return st;
  }

  static Cdec unite(const Cdec& a, const Cdec& b) { return setUnion(a, b); }
  static internal::News<Cdec> newStates(const Cdec& img, const Cdec&,
                                        const Cdec&, Cdec&, Tracer&) {
    return {img, obs::FromSet::kImage};
  }
  static std::size_t size(const Cdec& f) { return f.sharedSize(); }

  io::Checkpoint encode(const Cdec& reached, const Cdec& from) const {
    io::Checkpoint c;
    c.engine = tag(Engine::kCdec);
    c.kind = io::RootKind::kCdec;
    c.choice_vars = s_.currentVars();
    c.reached = reached.constraints();
    c.frontier = from.constraints();
    c.reached_empty = reached.isEmpty();
    c.frontier_empty = from.isEmpty();
    return c;
  }

  /// The result carries the decomposition's BFV view (two cofactors per
  /// component), the form every consumer of reached_bfv expects.
  static void finish(const Cdec& reached, ReachResult& r) {
    r.states = reached.countStates();
    r.reached_bfv = reached.toBfv();
  }

 private:
  sym::StateSpace& s_;
  bfv::ReparamOptions reparam_;
  std::vector<unsigned> params_;
};

}  // namespace

namespace internal {

namespace {

/// The guarded chi frontier leaves its mode once a chi would have more than
/// this many times (reached's shared size + width) nodes.
constexpr std::size_t kChiBoundFactor = 4;

/// chi(f), built as Bfv::toChar builds it; a null Bdd as soon as a partial
/// conjunction has more than `bound` nodes, so a chi too large to keep is
/// never paid for in full.
Bdd boundedChar(const Bfv& f, std::size_t bound) {
  Manager& m = *f.manager();
  if (f.isEmpty()) return m.zero();
  Bdd chi = m.one();
  for (std::size_t i = 0; i < f.width(); ++i) {
    chi &= m.xnorB(m.var(f.choiceVars()[i]), f.comps()[i]);
    if (m.nodeCount(chi) > bound) return Bdd();
  }
  return chi;
}

}  // namespace

BfvOps::BfvOps(sym::StateSpace& s, const ReachOptions& opts, RunGuard&)
    : s_(s),
      reparam_(opts.reparam),
      params_(simulationParams(s)),
      mode_(opts.frontier == FrontierPolicy::kGuarded ? ChiMode::kWaiting
                                                      : ChiMode::kOff) {}

std::pair<Bfv, Bfv> BfvOps::decode(sym::StateSpace& s,
                                   const io::Checkpoint& c) {
  checkVectorCheckpoint(s, c, Engine::kBfv, io::RootKind::kBfv);
  auto set = [&](const std::vector<Bdd>& roots, bool empty) {
    return empty ? Bfv::emptySet(s.manager(), c.choice_vars)
                 : Bfv::fromComponents(s.manager(), c.choice_vars, roots,
                                       /*trusted=*/true);
  };
  return {set(c.reached, c.reached_empty), set(c.frontier, c.frontier_empty)};
}

Bfv BfvOps::initial() const {
  return Bfv::point(s_.manager(), s_.currentVars(), s_.initialBits());
}

BfvOps::Step BfvOps::image(const Bfv& from, RunGuard& guard,
                           Tracer& tracer) const {
  Manager& m = s_.manager();
  Step st;
  st.sim = tracer.timed(obs::Phase::kImage,
                        [&] { return sym::simulate(s_, from.comps()); });
  guard.sample();
  // Re-parameterize onto the u bank, then rename back to the v bank; both
  // steps are one kReparam phase.
  st.img_u = tracer.timed(obs::Phase::kReparam, [&] {
    return bfv::reparameterize(m, st.sim.next_state, s_.paramVars(), params_,
                               reparam_);
  });
  guard.sample();
  st.img = tracer.timed(obs::Phase::kReparam, [&] {
    return Bfv::fromComponents(m, s_.currentVars(),
                               renameToCurrent(s_, st.img_u.comps()),
                               /*trusted=*/true);
  });
  return st;
}

News<Bfv> BfvOps::newStates(const Bfv& img, const Bfv& reached,
                            const Bfv& next, Bfv& out, Tracer& tracer) {
  const News<Bfv> whole{img, obs::FromSet::kImage};
  switch (mode_) {
    case ChiMode::kOff:
      return whole;
    case ChiMode::kWaiting:
      // Entry: the image covers reached, so the paper's heuristic simulates
      // from all of reached, as this iteration still does. A vector no
      // larger than its width is cheap to simulate from anyway.
      if (next == img && next.sharedSize() > next.width()) {
        mode_ = ChiMode::kOn;
      }
      return whole;
    case ChiMode::kOn:
      break;
  }
  Manager& m = s_.manager();
  const auto convert = tracer.phase(obs::Phase::kConvert);
  const std::size_t bound =
      kChiBoundFactor * (next.sharedSize() + next.width());
  // The first iteration in the mode builds chi(reached); a run that
  // converges right after the entry never pays for it.
  if (chi_reached_.isNull()) chi_reached_ = boundedChar(reached, bound);
  const Bdd chi_img =
      chi_reached_.isNull() ? Bdd() : boundedChar(img, bound);
  Bdd chi_next;
  if (!chi_img.isNull()) chi_next = chi_reached_ | chi_img;
  if (chi_next.isNull() || m.nodeCount(chi_next) > bound) {
    mode_ = ChiMode::kOff;
    chi_reached_ = Bdd();
    return whole;
  }
  // Agrees with chi(img) outside the previous reached set and is free
  // inside it: a set between the new states and next.
  const Bdd part = m.restrict(chi_img, ~chi_reached_);
  chi_reached_ = std::move(chi_next);
  out = bfv::fromChar(m, part, s_.currentVars());
  return {out, obs::FromSet::kChi};
}

io::Checkpoint BfvOps::encode(const Bfv& reached, const Bfv& from) const {
  io::Checkpoint c;
  c.engine = tag(Engine::kBfv);
  c.kind = io::RootKind::kBfv;
  c.choice_vars = s_.currentVars();
  c.reached = reached.comps();
  c.frontier = from.comps();
  c.reached_empty = reached.isEmpty();
  c.frontier_empty = from.isEmpty();
  return c;
}

}  // namespace internal

ReachResult reachBfv(sym::StateSpace& s, const ReachOptions& opts) {
  return internal::fixpoint<internal::BfvOps>(s, opts);
}

ReachResult reachCdec(sym::StateSpace& s, const ReachOptions& opts) {
  // The constrain-based union needs component order == BDD order.
  const Manager::OrderHold hold(s.manager());
  return internal::fixpoint<CdecOps>(s, opts);
}

}  // namespace bfvr::reach

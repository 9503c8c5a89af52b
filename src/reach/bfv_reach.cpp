// The paper's reachability flow (Fig. 2): symbolic simulation for images,
// re-parameterization and set union directly on the canonical functional
// vector — no characteristic function is ever built during the run. The
// kCdec backend performs the same steps on the conjunctive decomposition
// (§2.7), using the constrain-based union.
#include "reach/internal.hpp"
#include "sym/simulate.hpp"

namespace bfvr::reach {

namespace {

/// Rename a canonical vector (components over the u bank) onto the v bank.
/// The banks are interleaved, so the renaming preserves relative order and
/// canonicity.
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

void runBfvBackend(sym::StateSpace& s, const ReachOptions& opts,
                   ReachResult& r, internal::RunGuard& guard,
                   internal::Tracer& tracer) {
  Manager& m = s.manager();
  const std::vector<unsigned> params = simulationParams(s);
  internal::applyReorderPolicy(s, opts);
  Bfv reached, from;
  if (opts.resume != nullptr && opts.resume->reached_bfv.has_value()) {
    r.iterations = opts.resume->iteration;
    reached = *opts.resume->reached_bfv;
    from = *opts.resume->from_bfv;
  } else {
    reached = Bfv::point(m, s.currentVars(), s.initialBits());
    from = reached;
  }
  for (;;) {
    ++r.iterations;
    tracer.beginIteration(r.iterations, [&] {
      return std::pair{from.countStates(), from.sharedSize()};
    });
    const sym::SimResult sim = tracer.timed(
        obs::Phase::kImage, [&] { return sym::simulate(s, from.comps()); });
    guard.sample();
    // Re-parameterize onto the u bank, then rename back to the v bank.
    // img_u stays at iteration scope (its handles live exactly as long as
    // they did before tracing existed); both steps are one kReparam phase.
    const Bfv img_u = tracer.timed(obs::Phase::kReparam, [&] {
      return bfv::reparameterize(m, sim.next_state, s.paramVars(), params,
                                 opts.reparam);
    });
    guard.sample();
    const Bfv img = tracer.timed(obs::Phase::kReparam, [&] {
      return Bfv::fromComponents(m, s.currentVars(),
                                 renameToCurrent(s, img_u.comps()),
                                 /*trusted=*/true);
    });
    const Bfv next = tracer.timed(obs::Phase::kUnion,
                                  [&] { return setUnion(reached, img); });
    guard.sample();
    const bool fixpoint = next == reached;
    if (!fixpoint) {
      const auto check = tracer.phase(obs::Phase::kCheck);
      reached = next;
      // Selection heuristic: simulate from the smaller of the image and the
      // reached set. (BFVs have no set difference — §2 has no negation — so
      // the whole image plays the frontier role.)
      if (opts.use_frontier && img.sharedSize() < reached.sharedSize()) {
        from = img;
      } else {
        from = reached;
      }
    }
    tracer.endIteration();
    if (fixpoint) break;
    internal::maybeStepReorder(m, opts, r.iterations);
    m.maybeGc();
    guard.sample();
    if (internal::checkpointDue(opts, r.iterations)) {
      io::Checkpoint c;
      c.engine = "bfv";
      c.kind = io::RootKind::kBfv;
      c.iteration = r.iterations;
      c.choice_vars.assign(s.currentVars().begin(), s.currentVars().end());
      c.reached = reached.comps();
      c.frontier = from.comps();
      c.reached_empty = reached.isEmpty();
      c.frontier_empty = from.isEmpty();
      internal::writeCheckpoint(m, opts, std::move(c));
    }
    if (opts.max_iterations != 0 && r.iterations >= opts.max_iterations) {
      break;
    }
  }
  r.bfv_nodes = reached.sharedSize();
  r.reached_bfv = reached;
  // Table 3's chi size: built once, after the measured run. The state count
  // reads the same chi rather than building another through countStates().
  r.reached_chi = reached.toChar();
  r.states = m.satCount(r.reached_chi, reached.width());
  r.chi_nodes = m.nodeCount(r.reached_chi);
}

void runCdecBackend(sym::StateSpace& s, const ReachOptions& opts,
                    ReachResult& r, internal::RunGuard& guard,
                    internal::Tracer& tracer) {
  using cdec::Cdec;
  Manager& m = s.manager();
  const std::vector<unsigned> params = simulationParams(s);
  internal::applyReorderPolicy(s, opts);
  Cdec reached, from;
  if (opts.resume != nullptr && opts.resume->reached_cdec.has_value()) {
    r.iterations = opts.resume->iteration;
    reached = *opts.resume->reached_cdec;
    from = *opts.resume->from_cdec;
  } else {
    reached =
        Cdec::fromBfv(Bfv::point(m, s.currentVars(), s.initialBits()));
    from = reached;
  }
  for (;;) {
    ++r.iterations;
    tracer.beginIteration(r.iterations, [&] {
      return std::pair{from.countStates(), from.sharedSize()};
    });
    // Simulation needs evaluating components: derive the BFV view (two
    // cofactor operations per component).
    const Bfv from_bfv =
        tracer.timed(obs::Phase::kConvert, [&] { return from.toBfv(); });
    const sym::SimResult sim = tracer.timed(obs::Phase::kImage, [&] {
      return sym::simulate(s, from_bfv.comps());
    });
    guard.sample();
    // img_u stays at iteration scope (handle lifetimes as before tracing).
    const Cdec img_u = tracer.timed(obs::Phase::kReparam, [&] {
      return cdec::reparameterizeCdec(m, sim.next_state, s.paramVars(),
                                      params, opts.reparam);
    });
    guard.sample();
    const Cdec img_v = tracer.timed(obs::Phase::kReparam, [&] {
      // Rename constraints u -> v; constrain-canonical form is preserved by
      // the order-preserving renaming.
      std::vector<Bdd> renamed(img_u.constraints().size());
      for (std::size_t i = 0; i < renamed.size(); ++i) {
        renamed[i] =
            m.permute(img_u.constraints()[i], s.permParamToCurrent());
      }
      return Cdec::fromConstraints(m, s.currentVars(), std::move(renamed));
    });
    const Cdec next = tracer.timed(obs::Phase::kUnion,
                                   [&] { return setUnion(reached, img_v); });
    guard.sample();
    const bool fixpoint = next == reached;
    if (!fixpoint) {
      const auto check = tracer.phase(obs::Phase::kCheck);
      reached = next;
      if (opts.use_frontier && img_v.sharedSize() < reached.sharedSize()) {
        from = img_v;
      } else {
        from = reached;
      }
    }
    tracer.endIteration();
    if (fixpoint) break;
    internal::maybeStepReorder(m, opts, r.iterations);
    m.maybeGc();
    guard.sample();
    if (internal::checkpointDue(opts, r.iterations)) {
      io::Checkpoint c;
      c.engine = "cdec";
      c.kind = io::RootKind::kCdec;
      c.iteration = r.iterations;
      c.choice_vars.assign(s.currentVars().begin(), s.currentVars().end());
      c.reached = reached.constraints();
      c.frontier = from.constraints();
      c.reached_empty = reached.isEmpty();
      c.frontier_empty = from.isEmpty();
      internal::writeCheckpoint(m, opts, std::move(c));
    }
    if (opts.max_iterations != 0 && r.iterations >= opts.max_iterations) {
      break;
    }
  }
  r.reached_bfv = reached.toBfv();
  r.bfv_nodes = r.reached_bfv->sharedSize();
  r.reached_chi = reached.toChar();
  r.states = m.satCount(r.reached_chi, reached.width());
  r.chi_nodes = m.nodeCount(r.reached_chi);
}

}  // namespace

ReachResult reachBfv(sym::StateSpace& s, const ReachOptions& opts) {
  Manager& m = s.manager();
  return internal::runGuarded(
      m, opts, [&](ReachResult& r, internal::RunGuard& guard,
                   internal::Tracer& tracer) {
        if (opts.backend == SetBackend::kBfv) {
          runBfvBackend(s, opts, r, guard, tracer);
        } else {
          runCdecBackend(s, opts, r, guard, tracer);
        }
      });
}

}  // namespace bfvr::reach

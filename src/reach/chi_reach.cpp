// The characteristic-function engines: the reached set and the frontier are
// chi(v) BDDs, and the three engines differ only in their image step.
//
//  * TR — the "VIS - IWLS95" baseline column of the paper's Table 2:
//    partitioned transition relations with early quantification.
//  * CBM — the Coudert/Berthet/Madre flow of Fig. 1: image computation by
//    symbolic simulation, but all set manipulation on characteristic
//    functions. Every iteration pays a chi -> BFV conversion
//    (parameterization, `bfv::fromChar`: an exists chain and
//    `vectorCompose`) before simulating and a BFV -> chi conversion
//    (recursive range splitting, `sym::rangeChar` on the `Manager::range`
//    kernel) after.
//  * Hybrid — the "to split or to conjoin" idea the paper cites ([11], Moon
//    et al.): each image either by the partitioned-relation AND-EXISTS
//    chain (conjoin) or by constraining the transition functions with the
//    from-set and recursively splitting the range (split, the same kernel
//    as CBM's). Splitting wins when the from-set is small or strongly
//    constrains the functions; the relation wins on broad frontiers. The
//    chooser is the simple size heuristic from the paper's description:
//    split when the constrained transition functions are (much) smaller
//    than the relation clusters.
#include "bfv/bfv.hpp"
#include "reach/internal.hpp"
#include "sym/image.hpp"

namespace bfvr::reach {

namespace {

using internal::RunGuard;
using internal::Tracer;

struct TrImage {
  static constexpr Engine kEngine = Engine::kTr;
  struct Step {
    Bdd img;
  };

  TrImage(sym::StateSpace& s, const ReachOptions& opts, RunGuard& guard)
      : tr(s, opts.transition) {
    guard.sample();
  }

  Step operator()(const Bdd& from, RunGuard& guard, Tracer& tracer) const {
    Step st{tracer.timed(obs::Phase::kImage, [&] { return tr.image(from); })};
    guard.sample();
    return st;
  }

  const sym::TransitionRelation tr;
};

struct CbmImage {
  static constexpr Engine kEngine = Engine::kCbm;
  struct Step {
    Bfv f;
    sym::SimResult sim;
    Bdd img_u, img;
  };

  CbmImage(sym::StateSpace& s, const ReachOptions&, RunGuard&) : s(s) {}

  // Both per-iteration conversions — the Fig. 1 flow's defining cost — are
  // attributed to the kConvert phase.
  Step operator()(const Bdd& from, RunGuard& guard, Tracer& tracer) const {
    Manager& m = s.manager();
    Step st;
    st.f = tracer.timed(obs::Phase::kConvert, [&] {
      return bfv::fromChar(m, from, s.currentVars());
    });
    guard.sample();
    // Symbolic simulation gives the image as a raw vector ...
    st.sim = tracer.timed(obs::Phase::kImage,
                          [&] { return sym::simulate(s, st.f.comps()); });
    guard.sample();
    // ... which the Fig. 1 flow converts straight back to a characteristic
    // function by recursive range splitting.
    st.img_u = tracer.timed(obs::Phase::kConvert, [&] {
      return sym::rangeChar(s, st.sim.next_state, m.one());
    });
    st.img = tracer.timed(obs::Phase::kConvert, [&] {
      return m.permute(st.img_u, s.permParamToCurrent());
    });
    guard.sample();
    return st;
  }

  sym::StateSpace& s;
};

struct HybridImage {
  static constexpr Engine kEngine = Engine::kHybrid;
  struct Step {
    std::vector<Bdd> constrained;
    Bdd img;
  };

  HybridImage(sym::StateSpace& s, const ReachOptions& opts, RunGuard& guard)
      : s(s),
        tr(s, opts.transition),
        delta(sym::transitionFunctions(s)),
        tr_size(tr.sharedSize()) {
    guard.sample();
  }

  // The split-vs-conjoin chooser and the chosen image computation are one
  // kImage phase: together they are "the image step".
  Step operator()(const Bdd& from, RunGuard& guard, Tracer& tracer) const {
    Manager& m = s.manager();
    Step st{std::vector<Bdd>(delta.size()), Bdd()};
    st.img = tracer.timed(obs::Phase::kImage, [&] {
      // Constrain the transition functions by the from-set and compare
      // against the relation to decide the method.
      for (std::size_t i = 0; i < delta.size(); ++i) {
        st.constrained[i] = m.constrain(delta[i], from);
      }
      const std::size_t split_size = m.sharedNodeCount(st.constrained);
      if (split_size * 2 < tr_size + m.nodeCount(from)) {
        const Bdd img_u = sym::rangeChar(s, st.constrained, m.one());
        return m.permute(img_u, s.permParamToCurrent());
      }
      return tr.image(from);
    });
    guard.sample();
    return st;
  }

  sym::StateSpace& s;
  const sym::TransitionRelation tr;
  const std::vector<Bdd> delta;
  const std::size_t tr_size;
};

/// The chi representation: one root per set, set difference is one apply.
template <typename Image>
class ChiOps {
 public:
  using Set = Bdd;
  static constexpr bool kSampleUnion = false;

  ChiOps(sym::StateSpace& s, const ReachOptions& opts, RunGuard& guard)
      : s_(s), image_(s, opts, guard) {}

  static std::pair<Bdd, Bdd> decode(sym::StateSpace&,
                                    const io::Checkpoint& c) {
    if (c.engine != tag(Image::kEngine) || c.kind != io::RootKind::kChi) {
      throw io::Error("checkpoint: written by engine '" + c.engine +
                      "', not '" + tag(Image::kEngine) + "'");
    }
    if (c.reached.size() != 1 || c.frontier.size() != 1) {
      throw io::Error("checkpoint: expected one root per set");
    }
    return {c.reached[0], c.frontier[0]};
  }

  Bdd initial() const { return sym::initialChar(s_); }
  double states(const Bdd& f) const {
    return s_.manager().satCount(f, s_.numLatches());
  }
  typename Image::Step image(const Bdd& from, RunGuard& guard,
                             Tracer& tracer) const {
    return image_(from, guard, tracer);
  }
  static Bdd unite(const Bdd& reached, const Bdd& img) { return reached | img; }
  static internal::News<Bdd> newStates(const Bdd& img, const Bdd& reached,
                                       const Bdd& /*next*/, Bdd& out,
                                       Tracer&) {
    out = img & ~reached;
    return {out, obs::FromSet::kImage};
  }
  std::size_t size(const Bdd& f) const { return s_.manager().nodeCount(f); }

  io::Checkpoint encode(const Bdd& reached, const Bdd& from) const {
    io::Checkpoint c;
    c.engine = tag(Image::kEngine);
    c.reached = {reached};
    c.frontier = {from};
    return c;
  }

  void finish(const Bdd& reached, ReachResult& r) const {
    r.states = states(reached);
    r.reached_chi = reached;
  }

 private:
  sym::StateSpace& s_;
  Image image_;
};

}  // namespace

ReachResult reachTr(sym::StateSpace& s, const ReachOptions& opts) {
  return internal::fixpoint<ChiOps<TrImage>>(s, opts);
}

ReachResult reachCbm(sym::StateSpace& s, const ReachOptions& opts) {
  return internal::fixpoint<ChiOps<CbmImage>>(s, opts);
}

ReachResult reachHybrid(sym::StateSpace& s, const ReachOptions& opts) {
  return internal::fixpoint<ChiOps<HybridImage>>(s, opts);
}

}  // namespace bfvr::reach

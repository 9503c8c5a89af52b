// The engine table's lookup and the one dispatch from an Engine to its
// fixpoint. A restart goes through the same dispatch: the caller loads the
// checkpoint (restoring its variable order), points ReachOptions::resume at
// it and runs the job's own engine, which checks and decodes its roots.
// The continued run is bit-identical because the sequence
// reached_{k+1} = reached_k U Img(from_k) depends only on the (reached,
// from) pair the checkpoint captures exactly.
#include <stdexcept>

#include "reach/engine.hpp"

namespace bfvr::reach {

std::optional<Engine> engineFromTag(std::string_view tag) {
  for (const EngineInfo& e : kEngines) {
    if (tag == e.tag) return e.engine;
  }
  return std::nullopt;
}

ReachResult runEngine(sym::StateSpace& s, Engine e, ReachOptions opts) {
  switch (e) {
    case Engine::kTr:
      return reachTr(s, opts);
    case Engine::kTrMono:
      opts.transition.cluster_limit = 0;
      return reachTr(s, opts);
    case Engine::kCbm:
      return reachCbm(s, opts);
    case Engine::kBfv:
      return reachBfv(s, opts);
    case Engine::kCdec:
      return reachCdec(s, opts);
    case Engine::kHybrid:
      return reachHybrid(s, opts);
    case Engine::kLz:
      break;
  }
  throw std::logic_error("runEngine: lz runs without a BDD manager");
}

}  // namespace bfvr::reach

// The engine table's lookup and the one dispatch from an Engine to its
// fixpoint, which the restart path shares: resumeReach decodes the
// checkpoint (restoring its variable order) and runs the engine its tag
// names, seeded with it (ReachOptions::resume); that engine checks and
// decodes its own roots. The continued run is bit-identical because the
// sequence reached_{k+1} = reached_k U Img(from_k) depends only on the
// (reached, from) pair the checkpoint captures exactly.
#include <stdexcept>

#include "io/checkpoint.hpp"
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

namespace {

/// Tag -> table -> dispatch. A tag the table lacks, or lz's, names no BDD
/// engine; one that no run writes (tr-mono runs write TR's) is rejected by
/// the engine it names.
ReachResult continueFrom(sym::StateSpace& s, const io::Checkpoint& c,
                         ReachOptions opts) {
  const std::optional<Engine> e = engineFromTag(c.engine);
  if (!e || *e == Engine::kLz) {
    throw io::Error("checkpoint: unknown engine '" + c.engine + "'");
  }
  opts.resume = &c;
  return runEngine(s, *e, opts);
}

}  // namespace

ReachResult resumeReach(sym::StateSpace& s, const std::string& checkpoint_path,
                        const ReachOptions& opts) {
  return continueFrom(s, io::load(checkpoint_path, s.manager()), opts);
}

ReachResult resumeReach(sym::StateSpace& s, std::span<const std::uint8_t> image,
                        const ReachOptions& opts) {
  return continueFrom(s, io::decode(image.data(), image.size(), s.manager()),
                      opts);
}

}  // namespace bfvr::reach

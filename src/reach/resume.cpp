// resumeReach: restart a checkpointed fixpoint. Loads the file into the
// state space's manager (io::load also restores the recorded variable
// order) and runs the engine the file's tag names, with the checkpoint as
// the loop's seed (ReachOptions::resume); that engine validates and decodes
// its own roots. Correctness of the bit-identical claim: the reached-set
// sequence reached_{k+1} = reached_k U Img(from_k) depends only on the
// (reached, from) pair — which the checkpoint captures exactly — so the
// continued run walks the same sets, fixpoint test and iteration count as
// the uninterrupted one.
#include "io/checkpoint.hpp"
#include "reach/engine.hpp"

namespace bfvr::reach {

namespace {

ReachResult resumeFrom(sym::StateSpace& s, const io::Checkpoint& c,
                       ReachOptions opts) {
  opts.resume = &c;
  if (c.engine == "tr") return reachTr(s, opts);
  if (c.engine == "cbm") return reachCbm(s, opts);
  if (c.engine == "hybrid") return reachHybrid(s, opts);
  if (c.engine == "bfv" || c.engine == "cdec") {
    opts.backend = c.engine == "bfv" ? SetBackend::kBfv : SetBackend::kCdec;
    return reachBfv(s, opts);
  }
  throw io::Error("checkpoint: unknown engine '" + c.engine + "'");
}

}  // namespace

ReachResult resumeReach(sym::StateSpace& s, const std::string& checkpoint_path,
                        const ReachOptions& opts) {
  return resumeFrom(s, io::load(checkpoint_path, s.manager()), opts);
}

ReachResult resumeReach(sym::StateSpace& s, std::span<const std::uint8_t> image,
                        const ReachOptions& opts) {
  return resumeFrom(s, io::decode(image.data(), image.size(), s.manager()),
                    opts);
}

}  // namespace bfvr::reach

// reachedSizes: Table 3's cross-representation sizes of a reached set. The
// engines return their reached set in one representation only; this builds
// the other one for the code that prints both, after the run.
#include "reach/engine.hpp"

namespace bfvr::reach {

ReachedSizes reachedSizes(const sym::StateSpace& s, const ReachResult& r) {
  Manager& m = s.manager();
  ReachedSizes z;
  if (r.reached_bfv) {
    z.bfv_nodes = r.reached_bfv->sharedSize();
    z.chi_nodes = m.nodeCount(r.reached_bfv->toChar());
  } else if (!r.reached_chi.isNull()) {
    z.chi_nodes = m.nodeCount(r.reached_chi);
    z.bfv_nodes =
        bfv::fromChar(m, r.reached_chi, s.currentVars()).sharedSize();
  }
  return z;
}

}  // namespace bfvr::reach

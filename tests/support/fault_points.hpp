// Fault-injection points shared by the tests that fail a node allocation in
// the middle of a run.
#pragma once

#include <cstdint>

namespace bfvr::test {

/// A FaultPlan allocation count (FaultPlan::alloc_failures) that fires in
/// the middle of a clean default BFV run of gen:counter:8:200 (the circuit
/// of data/cnt8m200.bench). Derived from that run's nodes_created: 1,820
/// nodes over its 200 iterations (2,329 before the union core stopped
/// building cofactors), so 1500 fires well past setup and before the
/// fixpoint. data/fault_soak.manifest uses the same point on the same
/// circuit. Re-derive it (bfv_run on a one-row manifest, read the job's
/// ops.nodes_created) whenever an engine change moves that count.
inline constexpr std::uint64_t kCounter8m200MidRunAlloc = 1500;

}  // namespace bfvr::test

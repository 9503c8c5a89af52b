// Shared kernels behind the Bfv operations. The cores work on raw component
// vectors so that re-parameterization can apply them to vectors that still
// depend on parameter variables: for every fixed assignment of the leftover
// parameters, the operand slices are canonical BFVs, and the algorithms
// commute with slicing (see DESIGN.md and reparam.cpp).
#pragma once

#include <vector>

#include "bfv/bfv.hpp"

namespace bfvr::bfv::internal {

/// §2.3 union core: exclusion-condition sweep. Operands must be
/// (slice-)canonical component vectors over the same choice variables.
std::vector<Bdd> unionCore(Manager& m, const std::vector<unsigned>& vars,
                           const std::vector<Bdd>& f,
                           const std::vector<Bdd>& g);

/// §2.4 intersection core: elimination-condition backward sweep, forced
/// approximation, then the forward normalization (substitution) pass.
/// Returns false (and leaves `out` empty) when the intersection is empty.
bool intersectCore(Manager& m, const std::vector<unsigned>& vars,
                   const std::vector<Bdd>& f, const std::vector<Bdd>& g,
                   std::vector<Bdd>& out);

/// Number of assignments to `vars` that satisfy AND_i c_i, where c_i
/// depends on vars[0..i] only, computed without building that conjunction.
/// `comps` holds the constraints c_i themselves when `constraints` is true
/// (a conjunctive decomposition), and canonical BFV components f_i, standing
/// for c_i = v_i XNOR f_i, when it is false. The count is an integer of up to
/// vars.size() + 1 binary digits, returned as the nearest double: exact below
/// 2^53, correctly rounded (to nearest, ties to even) above.
double countMembers(Manager& m, const std::vector<unsigned>& vars,
                    const std::vector<Bdd>& comps, bool constraints);

/// Combines the two cofactor slices of a component vector into one (the
/// union-of-cofactors step of existential quantification). Both the BFV
/// union core and the conjunctive-decomposition union fit this signature.
using SliceUnion = std::vector<Bdd> (*)(Manager&,
                                        const std::vector<unsigned>&,
                                        const std::vector<Bdd>&,
                                        const std::vector<Bdd>&);

/// The §2.6 parameter-quantification loop shared by bfv::reparameterize and
/// cdec::reparameterizeCdec: existentially quantifies every variable of
/// `param_vars` out of `comps` by cofactor + `slice_union`, picking the
/// order per `opts` (support-based dynamic schedule or the given order).
std::vector<Bdd> quantifyParams(Manager& m, std::vector<Bdd> comps,
                                const std::vector<unsigned>& choice_vars,
                                std::span<const unsigned> param_vars,
                                const ReparamOptions& opts,
                                SliceUnion slice_union);

}  // namespace bfvr::bfv::internal

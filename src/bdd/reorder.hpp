// Dynamic variable reordering (Rudell-style sifting) for the BDD manager.
//
// The manager keeps a level <-> variable indirection: a *variable* is the
// stable identity (what Manager::var(i) hands out and what support(), eval()
// and the composition operators talk about), a *level* is the variable's
// current depth in the shared DAG. Reordering permutes levels only. The
// core primitive is the in-place adjacent-level swap: nodes at the upper
// level are rewritten in place (same node index, same function), so every
// live edge — including raw() values held by higher layers — keeps denoting
// the same function across a reorder; only DAG shape, node counts and
// topVar() results change.
//
// Methods:
//  * kSift          — Rudell sifting: move each variable (or bound group)
//                     through every level, keep the best position; a
//                     direction is abandoned when the table grows past
//                     1.2 times the start size.
//  * kSiftConverge  — repeat sifting passes until a pass stops shrinking
//                     the table.
//  * kWindow2/3     — exhaustive permutation of every 2/3 adjacent blocks,
//                     kept when strictly smaller.
//
// Groups: bindVarGroup() ties variables at adjacent levels into a block
// that every method moves as a unit. The reach layer binds each latch's
// (current, param) pair so reordering keeps the banks interleaved and the
// u -> v renaming order-preserving.
//
// Automatic reordering (Config::auto_reorder) triggers from maybeGc() — the
// engines' documented safe point — whenever the allocated-node count
// crosses a geometrically growing threshold. A Manager::OrderHold skips
// every reorder() while it lives.
#pragma once

namespace bfvr::bdd {

enum class ReorderMethod : unsigned char {
  kSift,
  kSiftConverge,
  kWindow2,
  kWindow3,
};

/// Short stable tag ("sift", "sift-conv", "window2", "window3") used by the
/// bench harness and its JSON output.
const char* to_string(ReorderMethod m) noexcept;

}  // namespace bfvr::bdd

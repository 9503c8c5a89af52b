// Per-call memo of the raw-edge walks the computed cache cannot key:
// vectorCompose (its key would be the whole substitution map) and satCount
// (its result is a fraction, not an edge). Open addressing on regular
// edges in two flat arrays, sized once to the diagram it memoizes — never
// to the node store, and never regrown, so a walk holds one table at a time.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "bdd/bdd.hpp"

namespace bfvr::bdd::detail {

template <typename V>
class EdgeMemo {
 public:
  /// Room for the regular edges of a diagram of `nodes` nodes (the
  /// terminal included): at most three quarters of the slots fill, and
  /// some always stay empty, so every probe ends.
  explicit EdgeMemo(std::size_t nodes)
      : keys_(std::bit_ceil(nodes + nodes / 3 + 2), kEmpty),
        vals_(keys_.size()),
        mask_(keys_.size() - 1),
        shift_(64 - std::countr_zero(keys_.size())) {}

  /// The value stored for regular edge `e`, or nullptr.
  const V* find(Edge e) const noexcept {
    for (std::size_t i = slot(e);; i = (i + 1) & mask_) {
      if (keys_[i] == e) return &vals_[i];
      if (keys_[i] == kEmpty) return nullptr;
    }
  }

  /// Store `v` for regular edge `e`, which must not be present yet.
  void insert(Edge e, V v) noexcept {
    std::size_t i = slot(e);
    while (keys_[i] != kEmpty) i = (i + 1) & mask_;
    keys_[i] = e;
    vals_[i] = v;
  }

 private:
  /// The terminal's edge: the walks stop at constants, so it is never a key.
  static constexpr Edge kEmpty = kTrueEdge;

  std::size_t slot(Edge e) const noexcept {
    // Fibonacci hashing: the top bits of the product spread nearby edges.
    return static_cast<std::size_t>((std::uint64_t{e} * kMul1) >> shift_);
  }

  std::vector<Edge> keys_;
  std::vector<V> vals_;
  std::size_t mask_;
  int shift_;
};

}  // namespace bfvr::bdd::detail

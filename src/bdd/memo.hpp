// Per-call memos of the raw-edge walks the computed cache cannot key:
// vectorCompose (its key would be the whole substitution map), satCount
// (its result is a fraction, not an edge) and range (its key is a whole
// vector of edges). EdgeMemo is open addressing on regular edges in two
// flat arrays, sized once to the diagram it memoizes — never to the node
// store, and never regrown, so a walk holds one table at a time.
// SuffixMemo keys edge sequences, whose number no diagram bounds, so it
// grows as it fills.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
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

/// Memo of the range kernel: an edge sequence (the constrained components
/// still to split) -> the range's edge. The keys lie end to end in one edge
/// arena; a table of entry indices finds them by hash, and a hit compares
/// length and edges. The length is part of the key: it says which range
/// variables a sequence maps to.
class SuffixMemo {
 public:
  SuffixMemo() : slots_(kMinSlots, kEmpty), shift_(64 - kMinBits) {}

  /// Hash of `key`, handed to find and to insert.
  static std::uint64_t hash(std::span<const Edge> key) noexcept {
    std::uint64_t h = key.size() * kMul2;
    for (const Edge e : key) {
      h = (h ^ e) * kMul1;
      h ^= h >> 29;
    }
    return h;
  }

  /// The edge stored for `key` (with hash `h`), or nullptr.
  const Edge* find(std::span<const Edge> key, std::uint64_t h) const noexcept {
    for (std::size_t i = h >> shift_;; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == kEmpty) return nullptr;
      const Entry& en = entries_[slots_[i]];
      if (en.hash == h && en.len == key.size() &&
          std::equal(key.begin(), key.end(), arena_.begin() + en.at)) {
        return &en.value;
      }
    }
  }

  /// Store `value` for `key` (with hash `h`), which must not be present.
  void insert(std::span<const Edge> key, std::uint64_t h, Edge value) {
    // At most half the slots fill, so probes stay short and always end.
    if (2 * (entries_.size() + 1) > slots_.size()) grow();
    place(h, static_cast<std::uint32_t>(entries_.size()));
    entries_.push_back(
        {h, arena_.size(), static_cast<std::uint32_t>(key.size()), value});
    arena_.insert(arena_.end(), key.begin(), key.end());
  }

 private:
  static constexpr int kMinBits = 6;
  static constexpr std::size_t kMinSlots = std::size_t{1} << kMinBits;
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  struct Entry {
    std::uint64_t hash;
    std::size_t at;     // first edge of the key in arena_
    std::uint32_t len;  // edges in the key
    Edge value;
  };

  void place(std::uint64_t h, std::uint32_t entry) noexcept {
    std::size_t i = h >> shift_;
    while (slots_[i] != kEmpty) i = (i + 1) & (slots_.size() - 1);
    slots_[i] = entry;
  }

  void grow() {
    slots_.assign(2 * slots_.size(), kEmpty);
    --shift_;
    for (std::uint32_t k = 0; k < entries_.size(); ++k) {
      place(entries_[k].hash, k);
    }
  }

  std::vector<std::uint32_t> slots_;  // entry index, or kEmpty
  int shift_;                         // slot of hash h: h >> shift_
  std::vector<Entry> entries_;
  std::vector<Edge> arena_;
};

}  // namespace bfvr::bdd::detail

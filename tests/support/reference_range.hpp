// Recursive range splitting as sym::rangeChar did it before the splitting
// became a BDD kernel (bdd::Manager::range): a walk over Bdd handles that
// copies the vector for each half, constrains it with public constrain
// calls, memoizes in a hash map keyed by the remaining suffix, and joins
// the halves as (u & hi) | (~u & lo). Kept as the differential reference
// for the kernel, the way referenceUnionCore keeps the old union. Only the
// source of the range variables changed: they are passed in (vars[i] names
// component i) instead of read from a state space's param bank.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.hpp"

namespace bfvr::test {

namespace reference_range_detail {

struct VecHash {
  std::size_t operator()(const std::vector<bdd::Edge>& v) const noexcept {
    std::size_t h = 0x9e3779b97f4a7c15ULL;
    for (bdd::Edge e : v) {
      h ^= e + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

struct RangeSplitter {
  bdd::Manager& m;
  std::span<const unsigned> vars;
  // Memo keyed by the raw edges of the remaining suffix. No GC can run
  // while this object is alive (we never call maybeGc inside), so raw
  // edges are stable.
  std::unordered_map<std::vector<bdd::Edge>, bdd::Bdd, VecHash> memo;

  bdd::Bdd run(std::size_t i, const std::vector<bdd::Bdd>& vec) {
    using bdd::Bdd;
    const std::size_t n = vec.size();
    if (i == n) return m.one();
    std::vector<bdd::Edge> key;
    key.reserve(n - i + 1);
    key.push_back(static_cast<bdd::Edge>(i));
    for (std::size_t j = i; j < n; ++j) key.push_back(vec[j].raw());
    if (auto it = memo.find(key); it != memo.end()) return it->second;

    const unsigned u = vars[i];
    const Bdd d = vec[i];
    Bdd r;
    if (d.isConst()) {
      const Bdd rest = run(i + 1, vec);
      r = d.isTrue() ? (m.var(u) & rest) : (~m.var(u) & rest);
    } else {
      std::vector<Bdd> on(vec), off(vec);
      for (std::size_t j = i + 1; j < n; ++j) {
        on[j] = m.constrain(vec[j], d);
        off[j] = m.constrain(vec[j], ~d);
      }
      r = (m.var(u) & run(i + 1, on)) | (~m.var(u) & run(i + 1, off));
    }
    memo.emplace(std::move(key), r);
    return r;
  }
};

}  // namespace reference_range_detail

/// Characteristic function, over `vars`, of the range of `deltas`
/// restricted to `care` (vars[i] names component i).
inline bdd::Bdd referenceRangeChar(bdd::Manager& m,
                                   std::span<const unsigned> vars,
                                   std::span<const bdd::Bdd> deltas,
                                   const bdd::Bdd& care) {
  if (care.isFalse()) return m.zero();
  std::vector<bdd::Bdd> vec(deltas.begin(), deltas.end());
  for (bdd::Bdd& d : vec) d = m.constrain(d, care);
  reference_range_detail::RangeSplitter rs{m, vars, {}};
  return rs.run(0, vec);
}

}  // namespace bfvr::test

// Host-speed probe of the repository benchmark (see README.md).
//
// The host this benchmark runs on is shared, and its speed drifts by tens of
// percent over minutes: a fixed computation takes 0.055 s in one run and
// 0.096 s a few minutes later. Every timed metric of a run is therefore
// scaled by how fast this probe ran in the same run, so that two runs of
// the same code read alike whenever the host was slow.
//
// The probe is frozen: it is benchmark code that links nothing from src/,
// so a change to the library never changes it. It measures two things the
// engines spend their time on:
//
//   bdd_s    a small private BDD package (hash-consed node table, a
//            computed cache the size of the library's default one, ITE
//            recursion) building the 9-queens solution set, ~230K nodes;
//   chase_s  a dependent pointer chase through 256 KiB, the latency of the
//            core's private caches.
//
// Do not edit it: every change of this file moves every timed metric.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <vector>

namespace bench_probe {

/// The probe's BDD package: no complement edges, no garbage collection, a
/// direct-mapped computed cache of 2^19 entries (8 MiB, as the library's
/// default 2^18 slots of 32 bytes).
class MiniBdd {
 public:
  MiniBdd() : buckets_(std::size_t{1} << 16, kNil), cache_(std::size_t{1} << 19) {
    nodes_.push_back({kTerm, 0, 0, kNil});  // 0: false
    nodes_.push_back({kTerm, 1, 1, kNil});  // 1: true
  }

  std::uint32_t var(std::uint32_t v) { return mk(v, 0, 1); }
  std::uint32_t negate(std::uint32_t f) { return ite(f, 0, 1); }
  std::uint32_t conj(std::uint32_t f, std::uint32_t g) { return ite(f, g, 0); }
  std::uint32_t disj(std::uint32_t f, std::uint32_t g) { return ite(f, 1, g); }
  std::size_t size() const { return nodes_.size(); }

  std::uint32_t ite(std::uint32_t f, std::uint32_t g, std::uint32_t h) {
    if (f == 1 || g == h) return g;
    if (f == 0) return h;
    if (g == 1 && h == 0) return f;
    Entry& e = cache_[hash(f, g, h) & (cache_.size() - 1)];
    if (e.f == f && e.g == g && e.h == h) return e.r;
    const std::uint32_t v = std::min({top(f), top(g), top(h)});
    const std::uint32_t lo =
        ite(cofactor(f, v, false), cofactor(g, v, false), cofactor(h, v, false));
    const std::uint32_t hi =
        ite(cofactor(f, v, true), cofactor(g, v, true), cofactor(h, v, true));
    const std::uint32_t r = mk(v, lo, hi);
    e = {f, g, h, r};
    return r;
  }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFU;
  static constexpr std::uint32_t kTerm = 0xFFFFFFFFU;  // terminals' var
  struct Node {
    std::uint32_t var, lo, hi, next;
  };
  struct Entry {
    std::uint32_t f = kNil, g = kNil, h = kNil, r = 0;
  };

  static std::uint64_t hash(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
    const std::uint64_t x = a * 0x9E3779B97F4A7C15ULL ^
                            b * 0xC2B2AE3D27D4EB4FULL ^
                            c * 0x165667B19E3779F9ULL;
    return x ^ (x >> 29);
  }
  std::uint32_t top(std::uint32_t f) const { return nodes_[f].var; }
  std::uint32_t cofactor(std::uint32_t f, std::uint32_t v, bool high) const {
    const Node& n = nodes_[f];
    if (n.var != v) return f;
    return high ? n.hi : n.lo;
  }
  std::uint32_t mk(std::uint32_t v, std::uint32_t lo, std::uint32_t hi) {
    if (lo == hi) return lo;
    if (nodes_.size() * 2 > buckets_.size()) rehash();
    std::uint32_t& head = buckets_[hash(v, lo, hi) & (buckets_.size() - 1)];
    for (std::uint32_t i = head; i != kNil; i = nodes_[i].next) {
      const Node& n = nodes_[i];
      if (n.var == v && n.lo == lo && n.hi == hi) return i;
    }
    const auto id = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back({v, lo, hi, head});
    head = id;
    return id;
  }
  void rehash() {
    buckets_.assign(buckets_.size() * 2, kNil);
    for (std::uint32_t i = 2; i < nodes_.size(); ++i) {
      Node& n = nodes_[i];
      std::uint32_t& head =
          buckets_[hash(n.var, n.lo, n.hi) & (buckets_.size() - 1)];
      n.next = head;
      head = i;
    }
  }

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> buckets_;
  std::vector<Entry> cache_;
};

/// Node count of the n-queens solution set, built row constraint by row
/// constraint and then square by square.
inline std::size_t queens(unsigned n) {
  MiniBdd b;
  const auto x = [&](unsigned r, unsigned c) { return b.var(r * n + c); };
  std::uint32_t all = 1;
  for (unsigned r = 0; r < n; ++r) {
    std::uint32_t row = 0;
    for (unsigned c = 0; c < n; ++c) row = b.disj(row, x(r, c));
    all = b.conj(all, row);
  }
  for (unsigned r = 0; r < n; ++r) {
    for (unsigned c = 0; c < n; ++c) {
      std::uint32_t safe = 1;
      for (unsigned r2 = 0; r2 < n; ++r2) {
        for (unsigned c2 = 0; c2 < n; ++c2) {
          const bool attacks = (r2 == r) != (c2 == c) ||
                               (r2 != r && (r2 + c == c2 + r ||
                                            r2 + c2 == r + c));
          if (attacks) safe = b.conj(safe, b.negate(x(r2, c2)));
        }
      }
      all = b.conj(all, b.disj(b.negate(x(r, c)), safe));
    }
  }
  return b.size();
}

/// A single cycle through `n` slots in a fixed pseudo-random order.
inline std::vector<std::uint32_t> chaseCycle(std::size_t n) {
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0U);
  std::uint64_t x = 0x2545F4914F6CDD1DULL;
  for (std::size_t i = n - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(perm[i], perm[x % (i + 1)]);
  }
  std::vector<std::uint32_t> next(n);
  for (std::size_t i = 0; i < n; ++i) next[perm[i]] = perm[(i + 1) % n];
  return next;
}

struct Sample {
  double bdd_s = 0.0;
  double chase_s = 0.0;
};

/// One probe: about 0.1 s on a 2.1 GHz Xeon.
inline Sample run() {
  using Clock = std::chrono::steady_clock;
  const auto seconds = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  static const std::vector<std::uint32_t> ring = chaseCycle(std::size_t{1} << 16);
  Sample s;
  Clock::time_point t = Clock::now();
  const std::size_t nodes = queens(9);
  s.bdd_s = seconds(t);
  t = Clock::now();
  std::uint32_t p = 0;
  for (int i = 0; i < 3'000'000; ++i) p = ring[p];
  s.chase_s = seconds(t);
  // Keep both results live so neither loop is optimised away.
  if (nodes == 0 && p == ~0U) s.bdd_s = -1.0;
  return s;
}

}  // namespace bench_probe

// Dynamic variable reordering: adjacent-level swap, Rudell sifting, window
// permutation, and the public order-management API (see reorder.hpp for the
// design overview).
//
// Swap invariants (the whole subsystem rests on these):
//  * A node at the upper swap level that depends on the lower variable is
//    rewritten IN PLACE: its index — and therefore every raw edge pointing
//    at it — keeps denoting the same function. Nodes that do not depend on
//    the lower variable are untouched; they simply change level.
//  * Canonical complement form survives the swap without fixups: the new
//    high child A = (x ? H1 : L1) is built from H's high chain, and H (a
//    `high` edge) is regular by invariant, so A is regular. The new low
//    child B re-canonicalizes inside swapMkNode if needed.
//  * No unique-table collision is possible: a pre-existing lower-variable
//    node cannot have upper-variable children before the swap, and two
//    distinct rewritten nodes denote distinct functions.
//
// While reordering_ is set the manager keeps exact per-node reference
// counts (refs_), so nodes orphaned by a swap are reclaimed immediately and
// in_use_ is the exact DAG size that sifting minimizes.
#include <algorithm>
#include <cassert>

#include "bdd/bdd.hpp"
#include "util/stats.hpp"

namespace bfvr::bdd {

/// The next automatic reorder triggers at this multiple of the table size
/// a run leaves behind.
constexpr double kReorderGrowth = 2.0;
/// Sifting abandons a direction once the table exceeds this multiple of its
/// size at the start of the sift.
constexpr double kSiftMaxGrowth = 1.2;

const char* to_string(ReorderMethod m) noexcept {
  switch (m) {
    case ReorderMethod::kSift:
      return "sift";
    case ReorderMethod::kSiftConverge:
      return "sift-conv";
    case ReorderMethod::kWindow2:
      return "window2";
    case ReorderMethod::kWindow3:
      return "window3";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Transient reference counting
// ---------------------------------------------------------------------------

void Manager::reorderPrologue() {
  // GC first: it drops dead nodes (so the refcounts below see live nodes
  // only) and clears the computed cache, whose entries would otherwise
  // dangle across node rewrites.
  gc();
  buildRefs();
  reordering_ = true;
}

void Manager::reorderDone() {
  reordering_ = false;
  refs_.clear();
}

void Manager::buildRefs() {
  refs_.assign(nodes_.size(), 0);
  refs_[0] = 1;  // the terminal is permanently anchored
  for (const Bdd* h = handles_; h != nullptr; h = h->next_) {
    ++refs_[index(h->e_)];
  }
  for (std::uint32_t i = 1; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.var == kFreeVar) continue;
    ++refs_[index(n.high)];
    ++refs_[index(n.low)];
  }
}

void Manager::unlinkFromSubtable(std::uint32_t i) {
  Node& n = nodes_[i];
  SubTable& st = subtables_[n.var];
  const std::size_t slot = subSlot(st, n.high, n.low);
  std::uint32_t* p = &st.buckets[slot];
  while (*p != i) p = &nodes_[*p].next;
  *p = n.next;
  --st.count;
}

void Manager::edgeDeref(Edge e) {
  deref_stack_.clear();
  deref_stack_.push_back(index(e));
  while (!deref_stack_.empty()) {
    const std::uint32_t i = deref_stack_.back();
    deref_stack_.pop_back();
    if (i == 0) continue;  // terminal: never freed
    assert(refs_[i] > 0);
    if (--refs_[i] != 0) continue;
    Node& n = nodes_[i];
    unlinkFromSubtable(i);
    deref_stack_.push_back(index(n.high));
    deref_stack_.push_back(index(n.low));
    n.var = kFreeVar;
    n.next = free_list_;
    free_list_ = i;
    --in_use_;
  }
}

/// mkNode twin used during reordering: same hash-consing, but maintains the
/// transient refcounts (a freshly created node references its children) and
/// skips level-order assertions, which do not hold mid-swap.
Edge Manager::swapMkNode(std::uint32_t var, Edge high, Edge low) {
  if (high == low) return high;
  if (isCompl(high)) {
    return negate(swapMkNode(var, negate(high), negate(low)));
  }
  {
    SubTable& st = subtables_[var];
    const std::size_t slot = subSlot(st, high, low);
    for (std::uint32_t i = st.buckets[slot]; i != kNil; i = nodes_[i].next) {
      const Node& n = nodes_[i];
      if (n.high == high && n.low == low) return i << 1;
    }
  }
  const std::uint32_t idx = allocNode();
  if (refs_.size() < nodes_.size()) refs_.resize(nodes_.size(), 0);
  refs_[idx] = 0;  // the caller adds the parent reference
  Node& n = nodes_[idx];
  n.var = var;
  n.high = high;
  n.low = low;
  n.mark = 0;
  edgeRef(high);
  edgeRef(low);
  SubTable& st = subtables_[var];
  const std::size_t slot = subSlot(st, high, low);
  n.next = st.buckets[slot];
  st.buckets[slot] = idx;
  ++st.count;
  ++stats_.nodes_created;
  if (st.count > st.buckets.size()) growSubTable(var);
  return idx << 1;
}

// ---------------------------------------------------------------------------
// Adjacent-level swap
// ---------------------------------------------------------------------------

void Manager::swapRaw(unsigned l) {
  const std::uint32_t x = level2var_[l];      // moves down to l + 1
  const std::uint32_t y = level2var_[l + 1];  // moves up to l
  // Update the maps first: node construction below must see the new order.
  level2var_[l] = y;
  level2var_[l + 1] = x;
  var2level_[x] = l + 1;
  var2level_[y] = l;
  ++stats_.reorder_swaps;

  // Partition the var-x nodes: a node with a var-y child must be rewritten;
  // the rest keep their children (all below level l + 1) and just sink one
  // level with x. Keepers stay linked so rewrites can share them.
  SubTable& stx = subtables_[x];
  rewrite_list_.clear();
  for (std::uint32_t& head : stx.buckets) {
    std::uint32_t* p = &head;
    while (*p != kNil) {
      const std::uint32_t i = *p;
      Node& n = nodes_[i];
      if (varOf(n.high) == y || varOf(n.low) == y) {
        *p = n.next;
        rewrite_list_.push_back(i);
      } else {
        p = &n.next;
      }
    }
  }
  stx.count -= rewrite_list_.size();

  for (const std::uint32_t i : rewrite_list_) {
    const Edge h = nodes_[i].high;  // regular by invariant
    const Edge lo = nodes_[i].low;
    Edge h1, h0, l1, l0;
    if (varOf(h) == y) {
      h1 = highOf(h);
      h0 = lowOf(h);
    } else {
      h1 = h0 = h;
    }
    if (varOf(lo) == y) {
      l1 = highOf(lo);
      l0 = lowOf(lo);
    } else {
      l1 = l0 = lo;
    }
    // f = x ? h : lo  ==  y ? (x ? h1 : l1) : (x ? h0 : l0).
    const Edge a = swapMkNode(x, h1, l1);
    edgeRef(a);
    const Edge b = swapMkNode(x, h0, l0);
    edgeRef(b);
    // a != b: the node is in the rewrite list, so f depends on y. a is
    // regular: h1 comes from a high edge (see file comment).
    assert(a != b);
    assert(!isCompl(a));
    edgeDeref(h);
    edgeDeref(lo);
    // Rewrite in place (re-take the reference: swapMkNode may have grown
    // nodes_) and move the node into y's subtable.
    Node& n = nodes_[i];
    n.var = y;
    n.high = a;
    n.low = b;
    SubTable& sty = subtables_[y];
    const std::size_t slot = subSlot(sty, a, b);
    n.next = sty.buckets[slot];
    sty.buckets[slot] = i;
    ++sty.count;
    if (sty.count > sty.buckets.size()) growSubTable(y);
  }
}

// ---------------------------------------------------------------------------
// Blocks (variable groups)
// ---------------------------------------------------------------------------

std::vector<std::uint32_t> Manager::blockSizes() const {
  std::vector<std::uint32_t> sizes;
  std::size_t l = 0;
  while (l < level2var_.size()) {
    const std::uint32_t g = group_of_var_[level2var_[l]];
    std::uint32_t len = 1;
    if (g != kNil) {
      // Only a contiguous run of one group id forms a block, so orders that
      // split a group (setVarOrder) degrade to singletons instead of
      // producing bogus blocks.
      while (l + len < level2var_.size() &&
             group_of_var_[level2var_[l + len]] == g) {
        ++len;
      }
    }
    sizes.push_back(len);
    l += len;
  }
  return sizes;
}

void Manager::swapBlockWithNext(std::vector<std::uint32_t>& sizes,
                                unsigned i) {
  // Reordering-boundary interrupt poll: between block swaps every swap
  // sequence is complete, so all swap invariants hold and an Interrupted
  // unwinding from here leaves a consistent (intermediate) order. The
  // public entry points catch it, finalize via reorderDone() and rethrow.
  pollInterrupt();
  unsigned start = 0;
  for (unsigned k = 0; k < i; ++k) start += sizes[k];
  const unsigned sx = sizes[i];
  const unsigned sy = sizes[i + 1];
  // Bubble each variable of block X down through block Y, bottom-most
  // first; relative order inside both blocks is preserved.
  for (unsigned j = 0; j < sx; ++j) {
    const unsigned from = start + sx - 1 - j;
    for (unsigned k = 0; k < sy; ++k) swapRaw(from + k);
  }
  std::swap(sizes[i], sizes[i + 1]);
}

// ---------------------------------------------------------------------------
// Sifting
// ---------------------------------------------------------------------------

void Manager::siftBlock(std::uint32_t top_var) {
  std::vector<std::uint32_t> sizes = blockSizes();
  const int nblocks = static_cast<int>(sizes.size());
  if (nblocks < 2) return;
  int bi = 0;
  {
    const unsigned lv = var2level_[top_var];
    unsigned start = 0;
    while (start + sizes[bi] <= lv) start += sizes[bi++];
  }
  const std::size_t limit =
      static_cast<std::size_t>(static_cast<double>(in_use_) *
                               kSiftMaxGrowth) +
      16;
  std::size_t best = in_use_;
  int best_pos = bi;
  int cur = bi;

  auto sweepDown = [&] {
    while (cur < nblocks - 1) {
      swapBlockWithNext(sizes, static_cast<unsigned>(cur));
      ++cur;
      if (in_use_ < best) {
        best = in_use_;
        best_pos = cur;
      }
      if (in_use_ > limit) break;
    }
  };
  auto sweepUp = [&] {
    while (cur > 0) {
      swapBlockWithNext(sizes, static_cast<unsigned>(cur - 1));
      --cur;
      if (in_use_ < best) {
        best = in_use_;
        best_pos = cur;
      }
      if (in_use_ > limit) break;
    }
  };

  // Explore the nearer end first — fewer swaps before the first abort test.
  if (nblocks - 1 - bi <= bi) {
    sweepDown();
    sweepUp();
  } else {
    sweepUp();
    sweepDown();
  }
  // Settle on the best position seen (the start position if nothing beat
  // it — sizes under a given order are canonical, so retracing restores the
  // exact count).
  while (cur < best_pos) {
    swapBlockWithNext(sizes, static_cast<unsigned>(cur));
    ++cur;
  }
  while (cur > best_pos) {
    swapBlockWithNext(sizes, static_cast<unsigned>(cur - 1));
    --cur;
  }
}

void Manager::siftPass() {
  // One entry per block, identified by its top variable (stable: block
  // members never change relative order). Sift big levels first.
  struct BlockEntry {
    std::uint32_t top_var;
    std::size_t nodes;
  };
  std::vector<BlockEntry> order;
  {
    const std::vector<std::uint32_t> sizes = blockSizes();
    std::size_t l = 0;
    for (const std::uint32_t sz : sizes) {
      std::size_t n = 0;
      for (std::uint32_t k = 0; k < sz; ++k) {
        n += subtables_[level2var_[l + k]].count;
      }
      order.push_back({level2var_[l], n});
      l += sz;
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const BlockEntry& a, const BlockEntry& b) {
                     return a.nodes > b.nodes;
                   });
  for (const BlockEntry& e : order) {
    if (e.nodes == 0) continue;  // empty level: moving it cannot help
    siftBlock(e.top_var);
  }
}

// ---------------------------------------------------------------------------
// Window permutation
// ---------------------------------------------------------------------------

void Manager::windowPass(unsigned window) {
  std::vector<std::uint32_t> sizes = blockSizes();
  const int nblocks = static_cast<int>(sizes.size());
  if (window == 2) {
    for (int i = 0; i + 1 < nblocks; ++i) {
      const std::size_t before = in_use_;
      swapBlockWithNext(sizes, static_cast<unsigned>(i));
      if (in_use_ >= before) {
        swapBlockWithNext(sizes, static_cast<unsigned>(i));  // revert
      }
    }
    return;
  }
  for (int i = 0; i + 2 < nblocks; ++i) {
    // Alternating adjacent swaps s1 = (i, i+1), s2 = (i+1, i+2) cycle
    // through all 6 permutations of three blocks with period 6 (swap k is
    // s1 for odd k, s2 for even k). Visit states 1..5, then continue the
    // cycle until the best state recurs.
    std::size_t best = in_use_;
    int best_state = 0;
    for (int k = 1; k <= 5; ++k) {
      swapBlockWithNext(sizes, static_cast<unsigned>(k % 2 == 1 ? i : i + 1));
      if (in_use_ < best) {
        best = in_use_;
        best_state = k;
      }
    }
    const int extra = (best_state + 1) % 6;  // from state 5 back to best
    for (int t = 0; t < extra; ++t) {
      const int k = 6 + t;
      swapBlockWithNext(sizes, static_cast<unsigned>(k % 2 == 1 ? i : i + 1));
    }
  }
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

void Manager::reorder(ReorderMethod method) {
  if (reordering_ || order_holds_ != 0 || num_vars_ < 2) return;
  // The prologue GC emits its own kGc event; the kReorder event measures
  // the reordering proper (post-GC size to post-reorder size).
  reorderPrologue();
  const Timer timer;
  const std::size_t before = in_use_;
  try {
    switch (method) {
      case ReorderMethod::kSift:
        siftPass();
        break;
      case ReorderMethod::kSiftConverge: {
        std::size_t prev = in_use_;
        for (int round = 0; round < 8; ++round) {
          siftPass();
          if (in_use_ >= prev) break;
          prev = in_use_;
        }
        break;
      }
      case ReorderMethod::kWindow2:
        windowPass(2);
        break;
      case ReorderMethod::kWindow3:
        windowPass(3);
        break;
    }
  } catch (...) {
    // Interrupted mid-pass: the order is an arbitrary but consistent
    // intermediate permutation and every handle still denotes its function.
    // Finalize the transient refcount mode, skip the completed-run stats
    // and the kReorder event, and let the interrupt unwind.
    reorderDone();
    throw;
  }
  reorderDone();
  ++stats_.reorder_runs;
  if (in_use_ < before) stats_.reorder_nodes_saved += before - in_use_;
  // Schedule the next automatic run at a geometric multiple of the current
  // size; back off harder when this run saved less than 10%.
  std::size_t next = std::max<std::size_t>(
      cfg_.reorder_threshold,
      static_cast<std::size_t>(static_cast<double>(in_use_) *
                               kReorderGrowth));
  if (in_use_ * 10 > before * 9) next = std::max(next, before * 2);
  next_reorder_at_ = next;
  emitEvent(ManagerEvent::Kind::kReorder, before, in_use_, timer.seconds());
}

void Manager::swapLevels(unsigned level) {
  if (level + 1 >= level2var_.size()) {
    throw std::out_of_range("swapLevels: level out of range");
  }
  if (reordering_) {
    throw std::logic_error("swapLevels: reordering already in progress");
  }
  reorderPrologue();
  swapRaw(level);
  reorderDone();
}

void Manager::setVarOrder(std::span<const unsigned> order) {
  if (order.size() != num_vars_) {
    throw std::invalid_argument("setVarOrder: order size != numVars()");
  }
  std::vector<bool> seen(num_vars_, false);
  for (const unsigned v : order) {
    if (v >= num_vars_ || seen[v]) {
      throw std::invalid_argument("setVarOrder: not a permutation");
    }
    seen[v] = true;
  }
  if (reordering_) {
    throw std::logic_error("setVarOrder: reordering already in progress");
  }
  if (num_vars_ < 2) return;
  reorderPrologue();
  // Selection sort by adjacent swaps: bubble order[l] up to level l. Note
  // that an explicit total order overrides group bindings.
  for (unsigned l = 0; l < num_vars_; ++l) {
    for (unsigned cur = var2level_[order[l]]; cur > l; --cur) {
      swapRaw(cur - 1);
    }
  }
  reorderDone();
}

std::vector<unsigned> Manager::currentOrder() const {
  return {level2var_.begin(), level2var_.end()};
}

void Manager::bindVarGroup(std::span<const unsigned> vars) {
  if (vars.size() < 2) return;
  std::vector<unsigned> levels;
  levels.reserve(vars.size());
  for (const unsigned v : vars) {
    if (v >= num_vars_) {
      throw std::invalid_argument("bindVarGroup: unknown variable");
    }
    levels.push_back(var2level_[v]);
  }
  std::sort(levels.begin(), levels.end());
  for (std::size_t i = 1; i < levels.size(); ++i) {
    if (levels[i] != levels[i - 1] + 1) {
      throw std::invalid_argument(
          "bindVarGroup: variables must sit at adjacent levels");
    }
  }
  const std::uint32_t g = next_group_++;
  for (const unsigned v : vars) group_of_var_[v] = g;
}

void Manager::clearVarGroups() {
  std::fill(group_of_var_.begin(), group_of_var_.end(), kNil);
}

}  // namespace bfvr::bdd

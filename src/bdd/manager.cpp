#include "bdd/bdd.hpp"

#include <algorithm>
#include <cassert>
#include <mutex>

#include "util/stats.hpp"

namespace bfvr::bdd {


const char* to_string(OpTag t) noexcept {
  switch (t) {
    case OpTag::kAnd:
      return "and";
    case OpTag::kXor:
      return "xor";
    case OpTag::kIte:
      return "ite";
    case OpTag::kExists:
      return "exists";
    case OpTag::kAndExists:
      return "and-exists";
    case OpTag::kConstrain:
      return "constrain";
    case OpTag::kRestrict:
      return "restrict";
    case OpTag::kCofactor2:
      return "cofactor2";
    case OpTag::kCompose:
      return "compose";
  }
  return "?";
}

const char* to_string(ManagerEvent::Kind k) noexcept {
  switch (k) {
    case ManagerEvent::Kind::kGc:
      return "gc";
    case ManagerEvent::Kind::kReorder:
      return "reorder";
    case ManagerEvent::Kind::kCacheResize:
      return "cache-resize";
    case ManagerEvent::Kind::kNodeBudget:
      return "node-budget";
    case ManagerEvent::Kind::kPressure:
      return "pressure";
  }
  return "?";
}

const char* to_string(PressureRung r) noexcept {
  switch (r) {
    case PressureRung::kForcedGc:
      return "forced-gc";
    case PressureRung::kCacheShrink:
      return "cache-shrink";
    case PressureRung::kReorder:
      return "reorder";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Bdd handle: intrusive registration with the manager so GC can mark roots.
// ---------------------------------------------------------------------------

Bdd::Bdd(Manager* m, Edge e) noexcept : mgr_(m), e_(e) { link(); }

Bdd::Bdd(const Bdd& o) noexcept : mgr_(o.mgr_), e_(o.e_) { link(); }

Bdd::Bdd(Bdd&& o) noexcept : mgr_(o.mgr_), e_(o.e_) {
  link();
  o.unlink();
  o.mgr_ = nullptr;
}

Bdd& Bdd::operator=(const Bdd& o) noexcept {
  if (this == &o) return *this;
  unlink();
  mgr_ = o.mgr_;
  e_ = o.e_;
  link();
  return *this;
}

Bdd& Bdd::operator=(Bdd&& o) noexcept {
  if (this == &o) return *this;
  unlink();
  mgr_ = o.mgr_;
  e_ = o.e_;
  link();
  o.unlink();
  o.mgr_ = nullptr;
  return *this;
}

Bdd::~Bdd() { unlink(); }

void Bdd::link() noexcept {
  if (mgr_ == nullptr) return;
  prev_ = nullptr;
  next_ = mgr_->handles_;
  if (next_ != nullptr) next_->prev_ = this;
  mgr_->handles_ = this;
}

void Bdd::unlink() noexcept {
  if (mgr_ == nullptr) return;
  if (prev_ != nullptr) {
    prev_->next_ = next_;
  } else {
    mgr_->handles_ = next_;
  }
  if (next_ != nullptr) next_->prev_ = prev_;
  prev_ = next_ = nullptr;
}

unsigned Bdd::topVar() const {
  if (isNull() || isConst()) throw std::logic_error("topVar of constant BDD");
  return mgr_->varOf(e_);
}

Bdd Bdd::high() const {
  if (isNull() || isConst()) throw std::logic_error("high of constant BDD");
  return Bdd(mgr_, mgr_->highOf(e_));
}

Bdd Bdd::low() const {
  if (isNull() || isConst()) throw std::logic_error("low of constant BDD");
  return Bdd(mgr_, mgr_->lowOf(e_));
}

Bdd Bdd::operator~() const {
  if (isNull()) throw std::logic_error("negation of null BDD");
  return Bdd(mgr_, Manager::negate(e_));
}

Bdd Bdd::operator&(const Bdd& o) const {
  if (isNull()) throw std::logic_error("operation on null BDD");
  return mgr_->andB(*this, o);
}

Bdd Bdd::operator|(const Bdd& o) const {
  if (isNull()) throw std::logic_error("operation on null BDD");
  return mgr_->orB(*this, o);
}

Bdd Bdd::operator^(const Bdd& o) const {
  if (isNull()) throw std::logic_error("operation on null BDD");
  return mgr_->xorB(*this, o);
}

bool Bdd::implies(const Bdd& o) const {
  if (isNull()) throw std::logic_error("operation on null BDD");
  return (*this & ~o).isFalse();
}

Bdd Bdd::exists(const Bdd& cube) const { return mgr_->exists(*this, cube); }
Bdd Bdd::forall(const Bdd& cube) const { return mgr_->forall(*this, cube); }
Bdd Bdd::constrain(const Bdd& c) const { return mgr_->constrain(*this, c); }
Bdd Bdd::restrict(const Bdd& c) const { return mgr_->restrict(*this, c); }
Bdd Bdd::cofactor(unsigned var, bool value) const {
  return mgr_->cofactor(*this, var, value);
}
std::size_t Bdd::nodeCount() const { return mgr_->nodeCount(*this); }
double Bdd::satCount(unsigned num_vars) const {
  return mgr_->satCount(*this, num_vars);
}

// ---------------------------------------------------------------------------
// Manager: node store and unique table.
// ---------------------------------------------------------------------------

using detail::hash3;
using detail::kMul2;

/// One block per process at most: a process with no Manager keeps one
/// idle computed cache (8 MB at the default 2^18 slots), never more.
struct Manager::ParkedCache {
  std::mutex mu;
  std::vector<CacheKeySet> keys;
  std::vector<CacheSetData> data;
};

Manager::ParkedCache& Manager::parkedCache() {
  // Never destroyed: a Manager that dies during static destruction still
  // finds its slot.
  static ParkedCache* const parked = new ParkedCache;
  return *parked;
}

Manager::Manager(unsigned num_vars) : Manager(num_vars, Config{}) {}

Manager::Manager(unsigned num_vars, Config cfg)
    : num_vars_(0), cfg_(cfg) {
  nodes_.reserve(1U << 12);
  // Node 0: the terminal (TRUE when referenced by a regular edge).
  nodes_.push_back(Node{kTermVar, kTrueEdge, kTrueEdge, kNil, 0});
  in_use_ = 1;
  peak_nodes_ = 1;
  gc_threshold_ = cfg_.gc_threshold;
  next_reorder_at_ = cfg_.reorder_threshold;
  // At least one full set, even under degenerate cache_bits.
  const std::size_t sets =
      std::max(std::size_t{1} << cfg_.cache_bits, kCacheWays) / kCacheWays;
  {
    ParkedCache& parked = parkedCache();
    const std::lock_guard<std::mutex> lock(parked.mu);
    if (parked.keys.size() == sets) {
      cache_keys_.swap(parked.keys);
      cache_data_.swap(parked.data);
    }
  }
  if (cache_keys_.empty()) {
    cache_keys_.assign(sets, CacheKeySet{});
    cache_data_.assign(sets, CacheSetData{});
  } else {
    // An adopted block: clearing the keys empties every way, as gc() does.
    // Results and gens are read only for keyed ways, which this manager
    // writes first, so a job is bit-identical on a fresh or adopted block.
    std::fill(cache_keys_.begin(), cache_keys_.end(), CacheKeySet{});
  }
  cache_set_mask_ = static_cast<std::uint32_t>(sets - 1);
  if (num_vars > 0) ensureVar(num_vars - 1);
}

Manager::~Manager() {
  // Orphan any handles that outlive the manager (they become null).
  for (Bdd* h = handles_; h != nullptr;) {
    Bdd* next = h->next_;
    h->mgr_ = nullptr;
    h->prev_ = h->next_ = nullptr;
    h = next;
  }
  // Park the cache for the next Manager. Freeing it would hand the block
  // back to the allocator, and the next Manager's blocks would land
  // wherever the heap's holes are; the block parked before is freed
  // instead, by the member destructors, outside the lock.
  ParkedCache& parked = parkedCache();
  const std::lock_guard<std::mutex> lock(parked.mu);
  cache_keys_.swap(parked.keys);
  cache_data_.swap(parked.data);
}

Bdd Manager::var(unsigned idx) {
  ensureVar(idx);
  return make(mkNode(idx, kTrueEdge, kFalseEdge));
}

void Manager::ensureVar(unsigned idx) {
  if (idx < num_vars_) return;
  for (unsigned v = num_vars_; v <= idx; ++v) {
    // New variables enter at the bottom of the current order, so with no
    // reordering the order is still the index order.
    var2level_.push_back(static_cast<std::uint32_t>(level2var_.size()));
    level2var_.push_back(v);
    group_of_var_.push_back(kNil);
    subtables_.emplace_back();
    subtables_.back().buckets.assign(4, kNil);
  }
  num_vars_ = idx + 1;
}

std::size_t Manager::subSlot(const SubTable& st, Edge high,
                             Edge low) const noexcept {
  return static_cast<std::size_t>(hash3(high, low, kMul2) &
                                  (st.buckets.size() - 1));
}

Edge Manager::mkNode(std::uint32_t var, Edge high, Edge low) {
  if (high == low) return high;
  // Canonical form: the high edge must be regular.
  if (isCompl(high)) {
    return negate(mkNode(var, negate(high), negate(low)));
  }
  assert(var < num_vars_);
  assert(isConstEdge(high) || level(high) > var2level_[var]);
  assert(isConstEdge(low) || level(low) > var2level_[var]);
  SubTable& st = subtables_[var];
  const std::size_t slot = subSlot(st, high, low);
  for (std::uint32_t i = st.buckets[slot]; i != kNil; i = nodes_[i].next) {
    const Node& n = nodes_[i];
    if (n.high == high && n.low == low) {
      return i << 1;
    }
  }
  const std::uint32_t idx = allocNode();
  Node& n = nodes_[idx];
  n.var = var;
  n.high = high;
  n.low = low;
  n.mark = 0;
  n.next = st.buckets[slot];
  st.buckets[slot] = idx;
  ++st.count;
  ++stats_.nodes_created;
  if (st.count > st.buckets.size()) growSubTable(var);
  return idx << 1;
}

std::uint32_t Manager::allocNode() {
  // Fault-injection point: an armed plan's allocation clock ticks on every
  // allocation outside reordering (swap atomicity, as below). Also a
  // cooperative interrupt poll. Skipped while reordering: an adjacent-level
  // swap must complete atomically (its invariants do not hold mid-swap);
  // the reordering loops poll between swaps instead (reorder.cpp).
  if (!reordering_) {
    if (fault_armed_) faultAllocTick();
    if ((interrupt_check_ || fault_armed_) &&
        ++interrupt_tick_ >= kInterruptStride) {
      interrupt_tick_ = 0;
      if (fault_armed_) faultPollTick();
      if (interrupt_check_) interrupt_check_();
    }
  }
  if (free_list_ != kNil) {
    const std::uint32_t idx = free_list_;
    free_list_ = nodes_[idx].next;
    ++in_use_;
    if (in_use_ > peak_nodes_) peak_nodes_ = in_use_;
    return idx;
  }
  // The budget is not enforced while reordering: swaps allocate transient
  // nodes precisely to shrink the table, and sifting's max-growth abort
  // bounds the overshoot.
  if (!reordering_ && cfg_.max_nodes != 0 && nodes_.size() >= cfg_.max_nodes) {
    emitEvent(ManagerEvent::Kind::kNodeBudget, in_use_, cfg_.max_nodes, 0.0);
    throw NodeBudgetExceeded(cfg_.max_nodes, in_use_);
  }
  nodes_.push_back(Node{});
  ++in_use_;
  if (in_use_ > peak_nodes_) peak_nodes_ = in_use_;
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void Manager::growSubTable(std::uint32_t var) {
  SubTable& st = subtables_[var];
  std::vector<std::uint32_t> old = std::move(st.buckets);
  st.buckets.assign(old.size() * 2, kNil);
  for (std::uint32_t head : old) {
    for (std::uint32_t i = head; i != kNil;) {
      const std::uint32_t next = nodes_[i].next;
      const Node& n = nodes_[i];
      const std::size_t slot = subSlot(st, n.high, n.low);
      nodes_[i].next = st.buckets[slot];
      st.buckets[slot] = i;
      i = next;
    }
  }
}

// ---------------------------------------------------------------------------
// Computed cache. cacheFind/cacheInsert live in the header so they inline
// into the recursive kernels.
// ---------------------------------------------------------------------------

void Manager::resizeCache(unsigned bits) {
  const std::size_t before = cacheSlots();
  const Timer timer;
  const std::size_t sets =
      std::max(std::size_t{1} << bits, kCacheWays) / kCacheWays;
  cache_keys_.assign(sets, CacheKeySet{});
  cache_data_.assign(sets, CacheSetData{});
  cache_set_mask_ = static_cast<std::uint32_t>(sets - 1);
  cfg_.cache_bits = bits;
  emitEvent(ManagerEvent::Kind::kCacheResize, before, cacheSlots(),
            timer.seconds());
}

void Manager::emitEvent(ManagerEvent::Kind kind, std::size_t before,
                        std::size_t after, double seconds, PressureRung rung) {
  if (sink_ == nullptr) return;
  ManagerEvent e;
  e.kind = kind;
  e.size_before = before;
  e.size_after = after;
  e.seconds = seconds;
  e.automatic = auto_event_;
  e.rung = rung;
  sink_->onManagerEvent(e);
}

// ---------------------------------------------------------------------------
// Pressure governor: the degradation ladder run when an operation hits the
// node budget. Invoked from withPressure() between retries of the outermost
// public operation — at that boundary all operands are handle-protected and
// the failed attempt's partial results are unreferenced garbage, so a GC is
// safe (mid-operation it would not be: recursive kernels hold raw Edges).
// ---------------------------------------------------------------------------

bool Manager::relieve(unsigned rung) {
  const Config::PressureLadder& pl = cfg_.pressure_ladder;
  // Materialize the enabled rungs in escalation order, then run the one
  // requested. Skipping disabled rungs here keeps withPressure() oblivious
  // to the configuration: it just counts retries.
  PressureRung order[3];
  unsigned n = 0;
  if (pl.forced_gc) order[n++] = PressureRung::kForcedGc;
  if (pl.shrink_cache && cfg_.cache_bits > pl.min_cache_bits) {
    order[n++] = PressureRung::kCacheShrink;
  }
  if (pl.emergency_reorder && order_holds_ == 0) {
    order[n++] = PressureRung::kReorder;
  }
  if (rung >= n) return false;  // ladder exhausted: let the exception escape
  const PressureRung step = order[rung];
  const std::size_t before = in_use_;
  const Timer timer;
  // Every rung starts with a GC: the failed attempt's garbage is often
  // enough headroom by itself, and both heavier rungs want a clean table.
  gc();
  switch (step) {
    case PressureRung::kForcedGc:
      break;
    case PressureRung::kCacheShrink: {
      const unsigned bits = std::max(pl.min_cache_bits, cfg_.cache_bits - 1u);
      resizeCache(bits);
      break;
    }
    case PressureRung::kReorder:
      reorder();
      break;
  }
  emitEvent(ManagerEvent::Kind::kPressure, before, in_use_, timer.seconds(),
            step);
  return true;
}

// ---------------------------------------------------------------------------
// Deterministic fault injection. Two independent clocks — one per node
// allocation, one per stride-1024 poll point — each with a sorted schedule
// of ticks at which to throw. The clocks are separate from OpStats and tick
// only when a plan is armed, so the disabled path is bit-identical.
// ---------------------------------------------------------------------------

void Manager::setFaultPlan(FaultPlan plan) {
  std::sort(plan.alloc_failures.begin(), plan.alloc_failures.end());
  std::sort(plan.spurious_interrupts.begin(), plan.spurious_interrupts.end());
  fault_plan_ = std::move(plan);
  fault_armed_ = !fault_plan_.empty();
  fault_alloc_count_ = 0;
  fault_poll_count_ = 0;
  fault_alloc_cursor_ = 0;
  fault_poll_cursor_ = 0;
  faults_injected_ = 0;
}

void Manager::faultAllocTick() {
  const std::uint64_t tick = ++fault_alloc_count_;
  const auto& sched = fault_plan_.alloc_failures;
  while (fault_alloc_cursor_ < sched.size() &&
         sched[fault_alloc_cursor_] < tick) {
    ++fault_alloc_cursor_;  // skip points already passed (e.g. re-armed plan)
  }
  if (fault_alloc_cursor_ < sched.size() &&
      sched[fault_alloc_cursor_] == tick) {
    ++fault_alloc_cursor_;
    ++faults_injected_;
    throw NodeBudgetExceeded(cfg_.max_nodes, in_use_, /*injected=*/true);
  }
}

void Manager::faultPollTick() {
  const std::uint64_t tick = ++fault_poll_count_;
  const auto& sched = fault_plan_.spurious_interrupts;
  while (fault_poll_cursor_ < sched.size() &&
         sched[fault_poll_cursor_] < tick) {
    ++fault_poll_cursor_;
  }
  if (fault_poll_cursor_ < sched.size() && sched[fault_poll_cursor_] == tick) {
    ++fault_poll_cursor_;
    ++faults_injected_;
    throw Interrupted(Interrupted::Reason::kCancelled);
  }
}

// ---------------------------------------------------------------------------
// Garbage collection: mark from all registered handles, sweep the rest.
// ---------------------------------------------------------------------------

std::size_t Manager::markFrom(Edge e) {
  std::size_t marked = 0;
  mark_stack_.clear();
  mark_stack_.push_back(index(e));
  while (!mark_stack_.empty()) {
    const std::uint32_t i = mark_stack_.back();
    mark_stack_.pop_back();
    Node& n = nodes_[i];
    if (n.mark == mark_epoch_) continue;
    n.mark = mark_epoch_;
    ++marked;
    if (n.var != kTermVar) {
      mark_stack_.push_back(index(n.high));
      mark_stack_.push_back(index(n.low));
    }
  }
  return marked;
}

void Manager::gc() {
  pollInterrupt();  // GC boundary: throws before any collection work starts
  const std::size_t before = in_use_;
  const Timer timer;  // one clock read; the event itself fires only with a sink
  ++stats_.gc_runs;
  ++mark_epoch_;
  if (mark_epoch_ == 0) {  // epoch wrapped: reset all marks
    for (Node& n : nodes_) n.mark = 0;
    mark_epoch_ = 1;
  }
  nodes_[0].mark = mark_epoch_;  // terminal is always live
  for (const Bdd* h = handles_; h != nullptr; h = h->next_) {
    markFrom(h->e_);
  }
  // Sweep: rebuild the per-variable subtables with live nodes only; free
  // the rest.
  for (SubTable& st : subtables_) {
    std::fill(st.buckets.begin(), st.buckets.end(), kNil);
    st.count = 0;
  }
  free_list_ = kNil;
  std::size_t live = 1;
  for (std::uint32_t i = 1; i < nodes_.size(); ++i) {
    Node& n = nodes_[i];
    if (n.var == kFreeVar) {
      n.next = free_list_;
      free_list_ = i;
      continue;
    }
    if (n.mark == mark_epoch_) {
      SubTable& st = subtables_[n.var];
      const std::size_t slot = subSlot(st, n.high, n.low);
      n.next = st.buckets[slot];
      st.buckets[slot] = i;
      ++st.count;
      ++live;
    } else {
      n.var = kFreeVar;
      n.next = free_list_;
      free_list_ = i;
    }
  }
  in_use_ = live;
  // Cache entries may point at freed nodes: drop them all. Clearing the
  // keys alone suffices (op == 0 marks a way empty); stale results and
  // gens are unreachable until their way is re-keyed.
  std::fill(cache_keys_.begin(), cache_keys_.end(), CacheKeySet{});
  // Adapt the threshold: if little was reclaimed, collect less often.
  if (live * 4 > gc_threshold_ * 3) {
    gc_threshold_ = gc_threshold_ * 2;
  }
  emitEvent(ManagerEvent::Kind::kGc, before, in_use_, timer.seconds());
}

bool Manager::resetForReuse() {
  interrupt_check_ = {};
  interrupt_tick_ = 0;
  setFaultPlan({});
  sink_ = nullptr;
  clearVarGroups();
  if (handles_ != nullptr) return false;  // caller leaked live handles
  gc();  // sweeps every node (nothing is marked) and clears the cache keys
  if (in_use_ != 1) return false;  // only the terminal may survive
  // Back to the zero-variable state of Manager(0, cfg): the per-variable
  // subtables and the order maps go, the node store and cache keep their
  // allocations (free_list_ already threads every swept slot).
  num_vars_ = 0;
  var2level_.clear();
  level2var_.clear();
  group_of_var_.clear();
  next_group_ = 0;
  subtables_.clear();
  gc_threshold_ = cfg_.gc_threshold;
  next_reorder_at_ = cfg_.reorder_threshold;
  cache_gen_ = 1;
  cache_gen_tick_ = 0;
  perms_.clear();
  next_perm_id_ = 0;
  stats_ = OpStats{};
  peak_nodes_ = in_use_;
  return true;
}

bool Manager::reconfigure(const Config& cfg) {
  if (num_vars_ != 0 || in_use_ != 1 || handles_ != nullptr) return false;
  const unsigned had_bits = cfg_.cache_bits;
  cfg_ = cfg;
  gc_threshold_ = cfg_.gc_threshold;
  next_reorder_at_ = cfg_.reorder_threshold;
  if (cfg_.cache_bits != had_bits) resizeCache(cfg_.cache_bits);
  return true;
}

void Manager::maybeGc() {
  // The engines' per-iteration safe point doubles as an interrupt poll, so
  // cancellation latency is bounded by one iteration even when the
  // iterations are too small to hit the allocation-stride poll.
  pollInterrupt();
  auto_event_ = true;
  if (cfg_.auto_reorder && !reordering_ && order_holds_ == 0 &&
      in_use_ >= next_reorder_at_) {
    reorder();
    auto_event_ = false;
    return;
  }
  if (in_use_ >= gc_threshold_) gc();
  auto_event_ = false;
}

std::size_t Manager::liveNodeCount() {
  ++mark_epoch_;
  if (mark_epoch_ == 0) {
    for (Node& n : nodes_) n.mark = 0;
    mark_epoch_ = 1;
  }
  // Count nodes as the mark pass first reaches them: O(live). A rescan of
  // the store would be O(store), and the store never shrinks — it grows to
  // the GC threshold before the first collection however few nodes stay
  // live.
  nodes_[0].mark = mark_epoch_;
  std::size_t live = 1;  // the terminal
  for (const Bdd* h = handles_; h != nullptr; h = h->next_) {
    live += markFrom(h->e_);
  }
  return live;
}

Edge Manager::requireSameManager(const Bdd& b) const {
  if (b.manager() != this) {
    throw std::logic_error("BDD belongs to a different manager");
  }
  return b.raw();
}

}  // namespace bfvr::bdd

// A self-contained ROBDD package with complement edges — the substrate the
// paper builds on (it used CUDD; see DESIGN.md for the substitution note).
//
// Features: shared unique table, lossy computed cache, ITE / AND / XOR,
// existential & universal quantification, AND-EXISTS (relational product),
// generalized cofactor (constrain) and restrict, (vector) composition,
// variable permutation, support, minterm counting, mark-and-sweep garbage
// collection driven by RAII handles, node budgets with out-of-nodes
// reporting, and operation counters used by the benchmark harness.
//
// Representation notes:
//  * An Edge is a 32-bit node index shifted left by one, with the low bit as
//    the complement flag. Edge 0 is the constant TRUE, edge 1 is FALSE.
//  * Canonical form: the `high` (then) edge of every node is regular
//    (never complemented); complements are pushed to `low` and to the
//    incoming edge. This makes negation O(1).
//  * Variable vs level: a node stores its *variable* (stable identity); the
//    position in the order is its *level*, looked up through a level <->
//    variable indirection that dynamic reordering permutes (see
//    bdd/reorder.hpp). Static order sweeps (the paper uses several fixed
//    orders per circuit) are realized by mapping problem signals to indices
//    differently (see sym/space.hpp); sifting can then re-permute at runtime.
//  * The unique table is split per variable (CUDD-style subtables) so the
//    adjacent-level swap touches only the nodes of the level being moved.
//  * Threading: a Manager is single-threaded state; one Manager per thread.
//    Parallelism lives above it, across jobs (run::WorkerPool, portfolio
//    racing, the service workers), each job on a manager of its own.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "bdd/reorder.hpp"

namespace bfvr::bdd {

class Manager;
class Bdd;

namespace detail {

inline constexpr std::uint64_t kMul1 = 0x9e3779b97f4a7c15ULL;
inline constexpr std::uint64_t kMul2 = 0xc2b2ae3d27d4eb4fULL;

/// Mixer behind both the unique table and the computed cache. Lives in the
/// header so the cache probe inlines into the recursive kernels.
inline std::uint64_t hash3(std::uint64_t a, std::uint64_t b,
                           std::uint64_t c) noexcept {
  std::uint64_t h = a * kMul1;
  h ^= (b + kMul2) * kMul1;
  h = (h << 31) | (h >> 33);
  h ^= (c + kMul1) * kMul2;
  h ^= h >> 29;
  h *= kMul1;
  h ^= h >> 32;
  return h;
}

}  // namespace detail

/// Internal edge handle: (node index << 1) | complement bit.
using Edge = std::uint32_t;

inline constexpr Edge kTrueEdge = 0;   // regular edge to the terminal node
inline constexpr Edge kFalseEdge = 1;  // complemented edge to the terminal

/// Thrown when an operation would exceed the manager's node budget. The
/// reachability engines map this to the paper's "M.O." outcome. Carries the
/// budget and the in-use node count at the throw point so the failure can
/// be reported (JobResult) instead of reduced to a bare status.
class NodeBudgetExceeded : public std::runtime_error {
 public:
  explicit NodeBudgetExceeded(std::size_t budget, std::size_t in_use = 0,
                              bool injected = false)
      : std::runtime_error(
            std::string(injected ? "BDD allocation failure injected (budget "
                                 : "BDD node budget exceeded (") +
            std::to_string(budget) + " nodes, " + std::to_string(in_use) +
            " in use)"),
        budget_(budget),
        in_use_(in_use),
        injected_(injected) {}

  std::size_t budget() const noexcept { return budget_; }
  std::size_t inUse() const noexcept { return in_use_; }
  /// True when thrown by an installed fault plan rather than the budget.
  bool injected() const noexcept { return injected_; }

 private:
  std::size_t budget_;
  std::size_t in_use_;
  bool injected_;
};

/// Thrown out of a Manager operation when the installed interrupt check
/// (Manager::setInterruptCheck) decides the computation must stop — the
/// cooperative-cancellation signal of the job runner (src/run). The check
/// itself throws this, tagged with why; the reachability engines map
/// kDeadline to RunStatus::kTimeOut and kCancelled to RunStatus::kCancelled.
///
/// Safety: the throw points are the same as NodeBudgetExceeded's (node
/// allocation, i.e. mid-operation) plus GC entry and between reordering
/// swaps. In all cases the manager survives: partially built recursion
/// results become garbage the next GC reclaims, the computed cache is
/// cleared with it, and an aborted reorder leaves a consistent (if
/// intermediate) order with every live handle still denoting its function.
class Interrupted : public std::runtime_error {
 public:
  enum class Reason : std::uint8_t { kDeadline, kCancelled };
  explicit Interrupted(Reason r)
      : std::runtime_error(r == Reason::kDeadline
                               ? "BDD operation interrupted: deadline"
                               : "BDD operation interrupted: cancelled"),
        reason_(r) {}
  Reason reason() const noexcept { return reason_; }

 private:
  Reason reason_;
};

/// Deterministic fault-injection schedule (Manager::setFaultPlan). Faults
/// fire at exact points of the manager's own deterministic clocks, so a
/// failing run replays bit-identically:
///  * `alloc_failures` — 1-based node-allocation counts (counted from the
///    moment the plan is installed) at which allocNode() throws
///    NodeBudgetExceeded with injected() == true, simulating an allocation
///    failure mid-operation;
///  * `spurious_interrupts` — 1-based interrupt-poll counts (the stride
///    poll in allocNode, plus every pollInterrupt() boundary: GC entry,
///    maybeGc, reorder swaps) at which the poll throws
///    Interrupted(kCancelled) even with no interrupt check installed.
/// With an empty plan the manager's behavior — including every OpStats
/// counter — is bit-identical to a manager that never heard of fault plans.
struct FaultPlan {
  std::vector<std::uint64_t> alloc_failures;
  std::vector<std::uint64_t> spurious_interrupts;

  bool empty() const noexcept {
    return alloc_failures.empty() && spurious_interrupts.empty();
  }
};

/// The degradation ladder's rungs, in escalation order (see
/// Manager::Config::PressureLadder). Reported through the kPressure event.
enum class PressureRung : std::uint8_t {
  kForcedGc,     ///< mark-and-sweep to refill the free list
  kCacheShrink,  ///< halve the computed cache (plus a GC)
  kReorder,      ///< emergency dynamic reordering (plus a GC)
};
/// "forced-gc" / "cache-shrink" / "reorder".
const char* to_string(PressureRung r) noexcept;

/// Public identity of a computed-cache operation family, used to break the
/// aggregate cache counters down per operation (OpStats::op_cache_hits /
/// op_cache_misses). All compose variants and permute share one tag (the
/// internal tag space is open-ended per substituted variable); everything
/// else maps 1:1 to its recursive kernel.
enum class OpTag : std::uint8_t {
  kAnd,
  kXor,
  kIte,
  kExists,
  kAndExists,
  kConstrain,
  kRestrict,
  kCofactor2,
  kCompose,
};
inline constexpr std::size_t kNumOpTags = 9;
/// "and" / "xor" / "ite" / "exists" / "and-exists" / "constrain" /
/// "restrict" / "cofactor2" / "compose".
const char* to_string(OpTag t) noexcept;

/// Cumulative operation counters (monotone; reset with Manager::resetStats).
/// `recursive_steps` counts every cache-missing recursion step of the apply
/// family — the unit behind the paper's "number of BDD operations" claims
/// (quadratic intersection, cdec-vs-BFV op counts).
struct OpStats {
  std::uint64_t top_ops = 0;          ///< public operation entry points
  std::uint64_t recursive_steps = 0;  ///< cache-missing recursion steps
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_inserts = 0;    ///< computed-cache stores (cacheStore)
  std::uint64_t cache_collisions = 0; ///< stores that evicted a live entry
                                      ///  with a different key
  std::uint64_t nodes_created = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t reorder_runs = 0;         ///< completed reorder() invocations
  std::uint64_t reorder_swaps = 0;        ///< adjacent-level swaps performed
  std::uint64_t reorder_nodes_saved = 0;  ///< nodes reclaimed by reordering
  /// Per-operation split of cache_lookups: hits/misses indexed by OpTag, so
  /// a hit-rate regression in one kernel (say the re-parameterization
  /// cofactors) is visible even when the aggregate rate looks healthy.
  std::array<std::uint64_t, kNumOpTags> op_cache_hits{};
  std::array<std::uint64_t, kNumOpTags> op_cache_misses{};

  std::uint64_t opHits(OpTag t) const noexcept {
    return op_cache_hits[static_cast<std::size_t>(t)];
  }
  std::uint64_t opMisses(OpTag t) const noexcept {
    return op_cache_misses[static_cast<std::size_t>(t)];
  }

  /// Field-wise difference `this - before`: the counters spent between two
  /// stats() snapshots. All counters are monotone, so `before` must be the
  /// earlier snapshot (no reset in between).
  OpStats since(const OpStats& before) const noexcept {
    OpStats d;
    d.top_ops = top_ops - before.top_ops;
    d.recursive_steps = recursive_steps - before.recursive_steps;
    d.cache_lookups = cache_lookups - before.cache_lookups;
    d.cache_hits = cache_hits - before.cache_hits;
    d.cache_inserts = cache_inserts - before.cache_inserts;
    d.cache_collisions = cache_collisions - before.cache_collisions;
    d.nodes_created = nodes_created - before.nodes_created;
    d.gc_runs = gc_runs - before.gc_runs;
    d.reorder_runs = reorder_runs - before.reorder_runs;
    d.reorder_swaps = reorder_swaps - before.reorder_swaps;
    d.reorder_nodes_saved = reorder_nodes_saved - before.reorder_nodes_saved;
    for (std::size_t i = 0; i < kNumOpTags; ++i) {
      d.op_cache_hits[i] = op_cache_hits[i] - before.op_cache_hits[i];
      d.op_cache_misses[i] = op_cache_misses[i] - before.op_cache_misses[i];
    }
    return d;
  }
};

/// A manager lifecycle event, delivered to the installed EventSink. What
/// `size_before` / `size_after` measure depends on the kind:
///  * kGc        — in-use nodes before / after the collection
///  * kReorder   — in-use nodes at reorder start (post-prologue GC) / end
///  * kCacheResize — computed-cache slots before / after
///  * kNodeBudget  — in-use nodes / the configured budget (the event fires
///                   immediately before NodeBudgetExceeded is thrown)
///  * kPressure    — in-use nodes before / after one governor rung (`rung`
///                   says which; see Config::PressureLadder)
struct ManagerEvent {
  enum class Kind : std::uint8_t {
    kGc,
    kReorder,
    kCacheResize,
    kNodeBudget,
    kPressure,
  };
  Kind kind = Kind::kGc;
  std::size_t size_before = 0;
  std::size_t size_after = 0;
  double seconds = 0.0;    ///< time spent inside the event (0 for kNodeBudget)
  bool automatic = false;  ///< fired by maybeGc() rather than an explicit call
  /// Which ladder rung ran; meaningful for kPressure only.
  PressureRung rung = PressureRung::kForcedGc;
};

/// "gc" / "reorder" / "cache-resize" / "node-budget" / "pressure".
const char* to_string(ManagerEvent::Kind k) noexcept;

/// Receiver for ManagerEvents (see Manager::setEventSink). Implementations
/// must not call back into the manager (the event fires mid-operation) and
/// should not throw.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void onManagerEvent(const ManagerEvent& e) = 0;
};

/// RAII handle to a BDD function. Copyable and movable; registers itself
/// with the owning Manager so garbage collection can mark from all live
/// handles. A default-constructed handle is "null" and owns nothing.
class Bdd {
 public:
  Bdd() noexcept = default;
  Bdd(const Bdd& o) noexcept;
  Bdd(Bdd&& o) noexcept;
  Bdd& operator=(const Bdd& o) noexcept;
  Bdd& operator=(Bdd&& o) noexcept;
  ~Bdd();

  bool isNull() const noexcept { return mgr_ == nullptr; }
  bool isTrue() const noexcept { return !isNull() && e_ == kTrueEdge; }
  bool isFalse() const noexcept { return !isNull() && e_ == kFalseEdge; }
  bool isConst() const noexcept { return !isNull() && (e_ >> 1) == 0; }

  /// Variable tested at the top (outermost) level of the function. This is
  /// a variable *index*; which variable sits on top can change when the
  /// manager reorders. Requires a non-constant function.
  unsigned topVar() const;
  /// Cofactors with respect to the top variable. Require non-constant.
  Bdd high() const;
  Bdd low() const;

  Bdd operator~() const;
  Bdd operator&(const Bdd& o) const;
  Bdd operator|(const Bdd& o) const;
  Bdd operator^(const Bdd& o) const;
  Bdd& operator&=(const Bdd& o) { return *this = *this & o; }
  Bdd& operator|=(const Bdd& o) { return *this = *this | o; }
  Bdd& operator^=(const Bdd& o) { return *this = *this ^ o; }

  /// Canonical (structural) equality: equal iff same function.
  bool operator==(const Bdd& o) const noexcept {
    return mgr_ == o.mgr_ && e_ == o.e_;
  }
  bool operator!=(const Bdd& o) const noexcept { return !(*this == o); }

  /// f <= g in the implication order (f implies g).
  bool implies(const Bdd& o) const;

  // Convenience forwarders to the Manager (see there for semantics).
  Bdd exists(const Bdd& cube) const;
  Bdd forall(const Bdd& cube) const;
  Bdd constrain(const Bdd& c) const;
  Bdd restrict(const Bdd& c) const;
  Bdd cofactor(unsigned var, bool value) const;
  std::size_t nodeCount() const;
  double satCount(unsigned num_vars) const;

  Manager* manager() const noexcept { return mgr_; }
  /// Raw edge value, used for hashing/interning by higher layers. Two
  /// stability rules:
  ///  * Function-stability: a live edge keeps denoting the same function
  ///    across garbage collection AND across dynamic reordering (reorders
  ///    rewrite nodes in place), so memo tables keyed by raw() stay correct
  ///    as long as their entries are protected by handles.
  ///  * Structural instability: reordering changes what topVar()/high()/
  ///    low() observe for the same raw edge. Never cache structural facts
  ///    derived from raw() across a possible reorder point (maybeGc()).
  Edge raw() const noexcept { return e_; }

 private:
  friend class Manager;
  Bdd(Manager* m, Edge e) noexcept;
  void link() noexcept;
  void unlink() noexcept;

  Manager* mgr_ = nullptr;
  Edge e_ = kFalseEdge;
  Bdd* prev_ = nullptr;  // intrusive registry for GC marking
  Bdd* next_ = nullptr;
};

/// The BDD manager: node store, unique table, computed cache, GC.
class Manager {
 public:
  struct Config {
    /// Hard ceiling on allocated nodes; 0 = unlimited. Exceeding it throws
    /// NodeBudgetExceeded (after a GC attempt).
    std::size_t max_nodes = 0;
    /// log2 of computed-cache slots.
    unsigned cache_bits = 18;
    /// Initial GC threshold (in-use nodes); grows geometrically when GC
    /// reclaims too little.
    std::size_t gc_threshold = 1U << 16;
    /// Automatic dynamic reordering: when true, maybeGc() (the engines'
    /// documented safe point) sifts (reorder()) whenever the in-use node
    /// count crosses a threshold that starts at `reorder_threshold` and
    /// moves to twice the table size after each run.
    bool auto_reorder = false;
    std::size_t reorder_threshold = 1U << 13;
    /// Memory-pressure governor: a degradation ladder run when the node
    /// budget trips inside a public operation, instead of letting
    /// NodeBudgetExceeded escape immediately. The failed operation's
    /// partial results are unwound (they are unreachable garbage by
    /// design), one rung of relief runs — forced GC, then GC + computed-
    /// cache shrink, then GC + emergency reorder — and the operation is
    /// retried from its (handle-protected) operands; only when every rung
    /// is spent does the exception propagate. Each rung fires a kPressure
    /// event. Off by default: the disabled path is bit-identical in every
    /// OpStats counter to a build without the governor.
    struct PressureLadder {
      bool enabled = false;
      bool forced_gc = true;
      bool shrink_cache = true;
      /// Cache shrink halves cache_bits per rung but never below this.
      unsigned min_cache_bits = 12;
      /// The emergency reorder sifts (reorder()); an OrderHold skips the
      /// rung.
      bool emergency_reorder = true;
    };
    PressureLadder pressure_ladder;
  };

  explicit Manager(unsigned num_vars);
  Manager(unsigned num_vars, Config cfg);
  ~Manager();
  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  // ---- constants and variables -------------------------------------------
  Bdd one() { return make(kTrueEdge); }
  Bdd zero() { return make(kFalseEdge); }
  /// Projection function of variable `idx` (extends the variable count if
  /// needed).
  Bdd var(unsigned idx);
  /// Negated projection function.
  Bdd nvar(unsigned idx) { return ~var(idx); }
  unsigned numVars() const noexcept { return num_vars_; }

  // ---- core operations ----------------------------------------------------
  Bdd ite(const Bdd& f, const Bdd& g, const Bdd& h);
  Bdd andB(const Bdd& f, const Bdd& g);
  Bdd orB(const Bdd& f, const Bdd& g);
  Bdd xorB(const Bdd& f, const Bdd& g);
  Bdd xnorB(const Bdd& f, const Bdd& g) { return ~xorB(f, g); }

  /// Existential quantification over all variables of the positive cube.
  Bdd exists(const Bdd& f, const Bdd& cube);
  /// Universal quantification over all variables of the positive cube.
  Bdd forall(const Bdd& f, const Bdd& cube);
  /// exists(vars(cube), f & g) without building f & g — the relational
  /// product at the heart of characteristic-function image computation.
  Bdd andExists(const Bdd& f, const Bdd& g, const Bdd& cube);

  /// Coudert–Madre generalized cofactor ("constrain"): agrees with f on c,
  /// and constrain(f,c) & c == f & c. Requires c != 0.
  Bdd constrain(const Bdd& f, const Bdd& c);
  /// Sibling-substitution "restrict": like constrain but never grows the
  /// result's support beyond f's. Requires c != 0.
  Bdd restrict(const Bdd& f, const Bdd& c);
  /// Characteristic function, over `vars`, of the range of the vector `fs`,
  /// whose component i is named by vars[i] — Coudert–Madre recursive range
  /// splitting:
  ///   Range(f_i, F) = ITE(u_i, Range(F |> f_i), Range(F |> ~f_i)),
  /// where a constant f_i fixes u_i. One raw-edge walk with a per-call memo
  /// on the remaining (constrained) suffix. Requires fs.size() ==
  /// vars.size(); the range of the empty vector is TRUE.
  Bdd range(std::span<const Bdd> fs, std::span<const unsigned> vars);
  /// Shannon cofactor with respect to a single variable.
  Bdd cofactor(const Bdd& f, unsigned var, bool value);
  /// Both Shannon cofactors {f|var=0, f|var=1} from ONE traversal of f. The
  /// fused kernel caches the pair under its own tag, so the second cofactor
  /// is free instead of a second full walk — the hot path of the §2.6
  /// re-parameterization loop, which needs both slices of every component.
  /// Results are bit-identical to two cofactor() calls (both canonical).
  std::pair<Bdd, Bdd> cofactor2(const Bdd& f, unsigned var);

  /// Substitute g for variable `var` in f.
  Bdd compose(const Bdd& f, unsigned var, const Bdd& g);
  /// Simultaneous substitution: map[i] replaces variable i. Null entries
  /// (or entries past the end) mean identity.
  Bdd vectorCompose(const Bdd& f, std::span<const Bdd> map);
  /// Variable renaming: variable i becomes perm[i]. perm must be injective
  /// on the support of f.
  Bdd permute(const Bdd& f, std::span<const unsigned> perm);

  // ---- dynamic variable reordering (reorder.cpp) ---------------------------
  /// Reorder now: sift, or run the given method. Safe at the same points
  /// as gc(): between operations, never during one. Live handles keep
  /// their functions and their raw edge values; only levels (and hence
  /// topVar() results and node counts) change. Does nothing while an
  /// OrderHold is alive.
  void reorder() { reorder(ReorderMethod::kSift); }
  void reorder(ReorderMethod method);
  /// Holds the variable order for its lifetime: reorder() does nothing, so
  /// step, automatic (Config::auto_reorder) and emergency (the pressure
  /// ladder's rung) reorders are all skipped. For algorithms that are only
  /// sound under a fixed order. swapLevels() and setVarOrder() are explicit
  /// and still move variables.
  class OrderHold {
   public:
    explicit OrderHold(Manager& m) noexcept : m_(m) { ++m_.order_holds_; }
    ~OrderHold() { --m_.order_holds_; }
    OrderHold(const OrderHold&) = delete;
    OrderHold& operator=(const OrderHold&) = delete;

   private:
    Manager& m_;
  };
  /// Swap the variables at `level` and `level + 1` — one reordering step,
  /// exposed for tests and custom reordering loops.
  void swapLevels(unsigned level);
  /// Install a complete order: order[l] = variable to place at level l.
  /// Must be a permutation of 0 .. numVars()-1. Realized by adjacent swaps,
  /// so the same safety rules as reorder() apply.
  void setVarOrder(std::span<const unsigned> order);
  /// Current level of a variable / variable at a level.
  unsigned levelOfVar(unsigned var) const { return var2level_.at(var); }
  unsigned varAtLevel(unsigned level) const { return level2var_.at(level); }
  /// Variables from the top level to the bottom — the current order.
  std::vector<unsigned> currentOrder() const;
  /// Tie variables (currently at adjacent levels) into a group that every
  /// reordering method moves as one block.
  void bindVarGroup(std::span<const unsigned> vars);
  void clearVarGroups();
  /// In-use node count that will trigger the next automatic reorder.
  std::size_t nextAutoReorderAt() const noexcept { return next_reorder_at_; }

  // ---- inspection ----------------------------------------------------------
  /// Variables f depends on, sorted by variable index (not by level).
  std::vector<unsigned> support(const Bdd& f);
  /// support() and nodeCount() from one walk of f: sets bit v % 64 of
  /// bits[v / 64] for every support variable v and returns nodeCount(f).
  /// `bits` must cover f's support (numVars() bits always do); bits already
  /// set stay set.
  std::size_t supportBits(const Bdd& f, std::span<std::uint64_t> bits);
  /// Positive cube of the support variables.
  Bdd supportCube(const Bdd& f);
  /// Positive cube over the given variables.
  Bdd cube(std::span<const unsigned> vars);
  /// Number of minterms over `num_vars` variables: exact for functions of
  /// up to 64 variables, rounded once to the nearest double.
  double satCount(const Bdd& f, unsigned num_vars);
  /// Distinct nodes reachable from f (including the terminal), à la
  /// Cudd_DagSize.
  std::size_t nodeCount(const Bdd& f);
  /// Distinct nodes reachable from any of the given functions — the paper's
  /// "shared size" of a Boolean functional vector.
  std::size_t sharedNodeCount(std::span<const Bdd> fs);
  /// Evaluate under a total assignment (values[i] = value of variable i).
  bool eval(const Bdd& f, const std::vector<bool>& values);
  /// One satisfying assignment as var->{0,1,-1=dontcare}; f must not be 0.
  std::vector<signed char> pickCube(const Bdd& f);

  // ---- resources -----------------------------------------------------------
  /// Force a mark-and-sweep collection now.
  void gc();
  /// Run GC if the in-use count crossed the adaptive threshold; with
  /// Config::auto_reorder this is also the trigger point for automatic
  /// dynamic reordering. Safe to call between operations only (never during
  /// one — handles protect operands, but intermediate recursion results are
  /// unprotected by design).
  void maybeGc();
  /// Nodes currently allocated and not on the free list (live + garbage).
  std::size_t inUseNodes() const noexcept { return in_use_; }
  /// Reset-not-destroy, for warm reuse of a manager across jobs (the
  /// serving layer's per-worker manager cache). Uninstalls the interrupt
  /// check, fault plan, event sink and reorder groups, collects everything,
  /// and — when nothing is live — returns the manager to the pristine
  /// zero-variable state while KEEPING the node store and computed-cache
  /// allocations, so the next job skips the cold-start of growing them.
  /// Counters, peaks, GC/reorder thresholds and the variable order all
  /// reset, so a job on a reused manager is bit-identical to one on a
  /// fresh manager with the same config. Returns false — leaving the
  /// manager untouched apart from the uninstalled hooks and the GC — when
  /// live handles still reference nodes (the caller leaked; destroy the
  /// manager instead).
  bool resetForReuse();
  /// Swap in a new configuration. Only legal on a pristine manager (zero
  /// variables, no live handles — i.e. right after a successful
  /// resetForReuse() or on a freshly constructed Manager(0)); returns
  /// false otherwise. Resizes the computed cache when cache_bits differs.
  bool reconfigure(const Config& cfg);
  /// Exact number of nodes reachable from live handles (runs a mark pass).
  std::size_t liveNodeCount();
  /// High-water mark of inUseNodes() since construction / resetPeak().
  std::size_t peakNodes() const noexcept { return peak_nodes_; }
  void resetPeak() noexcept { peak_nodes_ = in_use_; }

  const OpStats& stats() const noexcept { return stats_; }
  /// Reset all operation counters to zero. Note that the peak node count is
  /// NOT part of OpStats; it is reset separately via resetPeak().
  void resetStats() noexcept { stats_ = OpStats{}; }

  /// Install (or clear, with nullptr) the sink that receives GC, reorder,
  /// cache-resize and node-budget events. The manager does not own the
  /// sink; it must outlive the registration. Near-zero cost when unset.
  void setEventSink(EventSink* sink) noexcept { sink_ = sink; }
  EventSink* eventSink() const noexcept { return sink_; }

  /// Cooperative cancellation/deadline hook. The callback is polled at
  /// node-allocation (every kInterruptStride allocations), GC and
  /// reordering boundaries; to stop the computation it throws Interrupted
  /// (tagged with the reason), which unwinds out of the public operation.
  /// The callback must not call back into the manager. Pass a default-
  /// constructed function to uninstall. Near-zero cost when unset; op
  /// counters (OpStats) are never affected by polling, so interrupted and
  /// uninterrupted runs stay bit-identical in their counters.
  using InterruptCheck = std::function<void()>;
  void setInterruptCheck(InterruptCheck fn) {
    interrupt_check_ = std::move(fn);
    interrupt_tick_ = 0;
  }
  bool hasInterruptCheck() const noexcept {
    return static_cast<bool>(interrupt_check_);
  }
  /// Invoke the check now (no-op without one) — an extra poll point for
  /// higher layers with long manager-free stretches. Also a fault-injection
  /// point: with a plan armed, a scheduled spurious interrupt fires here.
  void pollInterrupt() {
    if (fault_armed_) faultPollTick();
    if (interrupt_check_) interrupt_check_();
  }
  /// Install a deterministic fault plan (see FaultPlan); pass {} to disarm.
  /// Schedules are consumed in sorted order against clocks that start at
  /// zero when the plan is installed. Every recovery layer above — the
  /// pressure ladder, the engines' M.O. fold, the job runner's retry
  /// escalation — can be driven through its failure paths this way, on an
  /// exact, replayable step count.
  void setFaultPlan(FaultPlan plan);
  bool hasFaultPlan() const noexcept { return fault_armed_; }
  /// Faults fired since the last setFaultPlan (allocation failures plus
  /// spurious interrupts).
  std::uint64_t faultsInjected() const noexcept { return faults_injected_; }
  /// Node allocations between two interrupt polls (the poll granularity —
  /// and the cancel-latency unit — of a running apply chain).
  static constexpr std::uint32_t kInterruptStride = 1024;

  /// Resize the computed cache to 2^bits slots, dropping all entries.
  /// Emits a kCacheResize event.
  void resizeCache(unsigned bits);
  /// Current number of computed-cache slots.
  std::size_t cacheSlots() const noexcept {
    return cache_keys_.size() * kCacheWays;
  }

  /// Graphviz dump of the given (labelled) functions, for debugging & docs.
  std::string toDot(std::span<const Bdd> fs,
                    std::span<const std::string> labels);

 private:
  friend class Bdd;

  struct Node {
    std::uint32_t var;   // variable index (NOT level); kTermVar for the
                         // terminal, kFreeVar if on the free list
    Edge high;           // regular by canonical-form invariant
    Edge low;            // may be complemented
    std::uint32_t next;  // unique-subtable chain / free list link
    std::uint32_t mark;  // GC mark epoch
  };

  /// Per-variable unique table: holds exactly the nodes labelled with one
  /// variable, so the adjacent-level swap can enumerate a level in O(level
  /// size) instead of scanning the node store.
  struct SubTable {
    std::vector<std::uint32_t> buckets;  // power-of-two, kNil-terminated
    std::size_t count = 0;               // nodes currently in this subtable
  };

  /// Set associativity of the computed cache. Replacement within a set is
  /// generation-based aging: hits refresh an entry's generation, stores
  /// evict the stalest way, so a hot entry survives collisions that the old
  /// direct-mapped cache would have evicted on immediately.
  static constexpr std::size_t kCacheWays = 4;
  /// Inserts between two bumps of the cache generation counter.
  static constexpr std::uint32_t kCacheGenPeriod = 4096;
  /// cacheFind() miss sentinel.
  static constexpr std::size_t kCacheMiss = ~std::size_t{0};

  /// One way's key. The cache is split structure-of-arrays so the probe —
  /// the only part every recursive step pays — stays on a single cache
  /// line: four 16-byte keys fill exactly one 64-byte CacheKeySet.
  struct CacheKey {
    Edge a = 0, b = 0, c = 0;
    std::uint32_t op = 0;  // 0 = empty way
  };
  /// All keys of one set, line-aligned so a whole-set probe is one touch.
  struct alignas(64) CacheKeySet {
    CacheKey way[kCacheWays];
  };
  /// Results live apart from the keys: they are read on hits only, and a
  /// dual-result operation (cofactor2) fills both fields.
  struct CacheResult {
    Edge result = 0;
    Edge result2 = 0;
  };
  /// One set's results and aging stamps, packed into a second line so a
  /// hit (result read + gen refresh) and an insert each touch exactly one
  /// line beyond the key probe. Gens are mod-256 distances from the
  /// current generation; staleness comparisons survive the wrap-around.
  struct alignas(64) CacheSetData {
    CacheResult result[kCacheWays];
    std::uint8_t gen[kCacheWays];
  };

  static constexpr std::uint32_t kTermVar = 0xFFFFFFFFU;
  static constexpr std::uint32_t kFreeVar = 0xFFFFFFFEU;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFU;

  // Operation tags for the computed cache.
  enum Op : std::uint32_t {
    kOpNone = 0,
    kOpAnd,
    kOpXor,
    kOpIte,
    kOpExists,
    kOpAndExists,
    kOpConstrain,
    kOpRestrict,
    kOpCofactor2,   // key: (f, var); dual result
    kOpPermute,     // key: (regular f, permutation id)
    kOpComposeBase  // kOpComposeBase + var; must stay last (open-ended)
  };

  /// Stats bucket of an internal op tag (compose variants and permute
  /// collapse to one).
  static OpTag tagOf(std::uint32_t op) noexcept {
    switch (op) {
      case kOpAnd:
        return OpTag::kAnd;
      case kOpXor:
        return OpTag::kXor;
      case kOpIte:
        return OpTag::kIte;
      case kOpExists:
        return OpTag::kExists;
      case kOpAndExists:
        return OpTag::kAndExists;
      case kOpConstrain:
        return OpTag::kConstrain;
      case kOpRestrict:
        return OpTag::kRestrict;
      case kOpCofactor2:
        return OpTag::kCofactor2;
      default:
        return OpTag::kCompose;
    }
  }

  // -- edge helpers ----------------------------------------------------------
  static Edge negate(Edge e) noexcept { return e ^ 1U; }
  static bool isCompl(Edge e) noexcept { return (e & 1U) != 0; }
  static Edge regular(Edge e) noexcept { return e & ~1U; }
  static std::uint32_t index(Edge e) noexcept { return e >> 1; }
  /// Variable labelling the top node (kTermVar for constants).
  std::uint32_t varOf(Edge e) const noexcept { return nodes_[index(e)].var; }
  /// Current level of the top node. The sentinels kTermVar/kFreeVar map to
  /// themselves, so constants still compare below every real level.
  std::uint32_t level(Edge e) const noexcept {
    const std::uint32_t v = nodes_[index(e)].var;
    return v < var2level_.size() ? var2level_[v] : v;
  }
  bool isConstEdge(Edge e) const noexcept { return index(e) == 0; }
  // Cofactors at the node's own level, with complement pushed through.
  Edge highOf(Edge e) const noexcept {
    const Node& n = nodes_[index(e)];
    return n.high ^ (e & 1U);
  }
  Edge lowOf(Edge e) const noexcept {
    const Node& n = nodes_[index(e)];
    return n.low ^ (e & 1U);
  }

  // -- node store ------------------------------------------------------------
  Edge mkNode(std::uint32_t var, Edge high, Edge low);
  std::uint32_t allocNode();
  void ensureVar(unsigned idx);
  void growSubTable(std::uint32_t var);
  std::size_t subSlot(const SubTable& st, Edge high, Edge low) const noexcept;

  // -- dynamic reordering (reorder.cpp) ---------------------------------------
  // Reordering runs with exact per-node reference counts (built on entry,
  // discarded on exit) so dead nodes are reclaimed swap-by-swap and in_use_
  // is the exact live size sifting optimizes.
  void reorderPrologue();
  void reorderDone();
  void buildRefs();
  void edgeRef(Edge e) noexcept { ++refs_[index(e)]; }
  void edgeDeref(Edge e);
  void unlinkFromSubtable(std::uint32_t i);
  Edge swapMkNode(std::uint32_t var, Edge high, Edge low);
  void swapRaw(unsigned level);
  std::vector<std::uint32_t> blockSizes() const;
  void swapBlockWithNext(std::vector<std::uint32_t>& sizes, unsigned i);
  void siftPass();
  void siftBlock(std::uint32_t top_var);
  void windowPass(unsigned window);

  // -- computed cache ---------------------------------------------------------
  /// Way of `ks` whose key equals (a,b,c,op), or kCacheWays if absent.
  static std::size_t probeSet(const CacheKeySet& ks, Edge a, Edge b, Edge c,
                              std::uint32_t op) noexcept;
  /// Probe the set of (op,a,b,c); on a hit refreshes the way's generation
  /// and returns its flat index (set * kCacheWays + way) into the result /
  /// gen arrays, else kCacheMiss. Counts aggregate and per-tag hit/miss.
  std::size_t cacheFind(std::uint32_t op, Edge a, Edge b, Edge c);
  /// Insert (op,a,b,c) -> (r, r2), evicting the stalest way of a full set.
  void cacheInsert(std::uint32_t op, Edge a, Edge b, Edge c, Edge r, Edge r2);
  bool cacheLookup(std::uint32_t op, Edge a, Edge b, Edge c, Edge& out) {
    const std::size_t i = cacheFind(op, a, b, c);
    if (i == kCacheMiss) return false;
    out = cache_data_[i / kCacheWays].result[i % kCacheWays].result;
    return true;
  }
  bool cacheLookup2(std::uint32_t op, Edge a, Edge b, Edge c, Edge& out,
                    Edge& out2) {
    const std::size_t i = cacheFind(op, a, b, c);
    if (i == kCacheMiss) return false;
    const CacheResult& r = cache_data_[i / kCacheWays].result[i % kCacheWays];
    out = r.result;
    out2 = r.result2;
    return true;
  }
  void cacheStore(std::uint32_t op, Edge a, Edge b, Edge c, Edge r) {
    cacheInsert(op, a, b, c, r, 0);
  }
  void cacheStore2(std::uint32_t op, Edge a, Edge b, Edge c, Edge r, Edge r2) {
    cacheInsert(op, a, b, c, r, r2);
  }

  // -- events ------------------------------------------------------------------
  /// Forward an event to the installed sink (no-op without one). The
  /// `automatic` flag comes from auto_event_, set around maybeGc() work.
  void emitEvent(ManagerEvent::Kind kind, std::size_t before,
                 std::size_t after, double seconds,
                 PressureRung rung = PressureRung::kForcedGc);

  // -- pressure governor & fault injection -------------------------------------
  /// Run the `rung`-th enabled ladder rung (0-based escalation order);
  /// false when the ladder is spent. Safe only at an operation boundary:
  /// every live function must be reachable from a handle.
  bool relieve(unsigned rung);
  /// Fault clocks (manager.cpp); both throw when a scheduled point fires.
  void faultAllocTick();
  void faultPollTick();

  /// Retry wrapper around a public operation body. With the ladder enabled
  /// it catches NodeBudgetExceeded at the operation boundary — where the
  /// operands are handle-protected and the failed attempt's partial results
  /// are collectible garbage — runs one relief rung per attempt, and
  /// re-runs the body. Nested public entries (compose inside permute, ...)
  /// run bare: only the outermost operation owns the retry loop.
  template <typename F>
  auto withPressure(F&& f) {
    if (!cfg_.pressure_ladder.enabled || in_pressure_op_) return f();
    struct Scope {  // exception-safe reset of the outermost-op flag
      bool& flag;
      explicit Scope(bool& fl) : flag(fl) { flag = true; }
      ~Scope() { flag = false; }
    } scope(in_pressure_op_);
    for (unsigned rung = 0;; ++rung) {
      try {
        return f();
      } catch (const NodeBudgetExceeded&) {
        if (!relieve(rung)) throw;
      }
    }
  }

  // -- recursive kernels (raw edges; no handle churn) -------------------------
  Edge andRec(Edge f, Edge g);
  Edge xorRec(Edge f, Edge g);
  Edge iteRec(Edge f, Edge g, Edge h);
  Edge existsRec(Edge f, Edge cube);
  Edge andExistsRec(Edge f, Edge g, Edge cube);
  Edge constrainRec(Edge f, Edge c);
  Edge restrictRec(Edge f, Edge c);
  Edge composeRec(Edge f, std::uint32_t var, Edge g);
  /// Rename the variables of f by perm, memoized under permutation `pid`.
  Edge permuteRec(Edge f, std::span<const unsigned> perm, std::uint32_t pid);
  /// Fused dual cofactor: returns f|var=0 and writes f|var=1 to `hi`.
  Edge cofactor2Rec(Edge f, std::uint32_t var, Edge& hi);

  /// Id of `perm` in the permutation table, added if absent. Two spans that
  /// differ only in trailing identity entries are one permutation.
  std::uint32_t permId(std::span<const unsigned> perm);

  // -- GC ----------------------------------------------------------------------
  /// Mark every node reachable from e; returns how many were newly marked.
  std::size_t markFrom(Edge e);

  /// The computed-cache arrays of the last Manager that died in this
  /// process, kept for the next one with as many sets (manager.cpp).
  struct ParkedCache;
  static ParkedCache& parkedCache();

  Bdd make(Edge e) noexcept { return Bdd(this, e); }
  Edge requireSameManager(const Bdd& b) const;

  unsigned num_vars_;
  Config cfg_;
  std::vector<Node> nodes_;
  std::vector<SubTable> subtables_;        // unique table, one per variable
  std::vector<std::uint32_t> var2level_;   // variable -> level
  std::vector<std::uint32_t> level2var_;   // level -> variable
  std::vector<std::uint32_t> group_of_var_;  // reorder group id or kNil
  std::uint32_t next_group_ = 0;
  bool reordering_ = false;
  unsigned order_holds_ = 0;               // live OrderHolds
  std::size_t next_reorder_at_ = 0;        // auto-reorder trigger
  std::vector<std::uint32_t> refs_;        // refcounts, valid while reordering_
  std::vector<std::uint32_t> rewrite_list_;
  std::vector<std::uint32_t> deref_stack_;
  std::uint32_t free_list_ = kNil;
  std::size_t in_use_ = 0;
  std::size_t peak_nodes_ = 0;
  std::size_t gc_threshold_ = 0;
  std::uint32_t mark_epoch_ = 0;
  std::vector<CacheKeySet> cache_keys_;      // one key line per set
  std::vector<CacheSetData> cache_data_;     // one result/gen line per set
  std::uint32_t cache_set_mask_ = 0;         // (number of sets) - 1
  std::uint32_t cache_gen_ = 1;              // current aging generation
  std::uint32_t cache_gen_tick_ = 0;         // inserts since the last bump
  /// Permutations permute() has keyed the cache with, oldest first. An id
  /// is never handed out twice (until resetForReuse clears the cache), so
  /// an entry evicted from this table cannot alias a later permutation.
  struct PermEntry {
    std::vector<unsigned> perm;  // trailing identity entries trimmed
    std::uint32_t id;
  };
  std::vector<PermEntry> perms_;
  std::uint32_t next_perm_id_ = 0;
  OpStats stats_;
  InterruptCheck interrupt_check_;
  std::uint32_t interrupt_tick_ = 0;  // allocations since the last poll
  bool in_pressure_op_ = false;  // inside a withPressure retry loop
  bool fault_armed_ = false;     // fault_plan_ has unconsumed points
  FaultPlan fault_plan_;         // sorted schedules, consumed by the cursors
  std::uint64_t fault_alloc_count_ = 0;  // allocations since plan install
  std::uint64_t fault_poll_count_ = 0;   // interrupt polls since install
  std::size_t fault_alloc_cursor_ = 0;
  std::size_t fault_poll_cursor_ = 0;
  std::uint64_t faults_injected_ = 0;
  EventSink* sink_ = nullptr;
  bool auto_event_ = false;  // inside maybeGc(): events are "automatic"
  Bdd* handles_ = nullptr;  // head of intrusive handle registry
  std::vector<std::uint32_t> mark_stack_;
};

// ---------------------------------------------------------------------------
// Computed-cache fast path. Defined inline: these run once per recursive
// step of every kernel, and the call overhead is measurable there.
// ---------------------------------------------------------------------------

/// Index of the way whose 16-byte key equals (a,b,c,op), or kCacheWays.
/// The keys of a set share one 64-byte line (CacheKeySet is line-aligned),
/// so the whole probe is a single memory touch; with SSE2 each way is one
/// 128-bit compare instead of four compare-and-branch pairs.
inline std::size_t Manager::probeSet(const CacheKeySet& ks, Edge a, Edge b,
                                     Edge c, std::uint32_t op) noexcept {
#if defined(__SSE2__)
  const __m128i probe =
      _mm_setr_epi32(static_cast<int>(a), static_cast<int>(b),
                     static_cast<int>(c), static_cast<int>(op));
  for (std::size_t w = 0; w < kCacheWays; ++w) {
    const __m128i key =
        _mm_load_si128(reinterpret_cast<const __m128i*>(&ks.way[w]));
    if (_mm_movemask_epi8(_mm_cmpeq_epi32(key, probe)) == 0xFFFF) return w;
  }
#else
  for (std::size_t w = 0; w < kCacheWays; ++w) {
    const CacheKey& k = ks.way[w];
    if (k.op == op && k.a == a && k.b == b && k.c == c) return w;
  }
#endif
  return kCacheWays;
}

inline std::size_t Manager::cacheFind(std::uint32_t op, Edge a, Edge b,
                                      Edge c) {
  ++stats_.cache_lookups;
  const std::size_t set =
      detail::hash3((static_cast<std::uint64_t>(op) << 32) | a, b, c) &
      cache_set_mask_;
#if defined(__SSE2__)
  // A hit needs the result line next; start that fetch under the probe.
  _mm_prefetch(reinterpret_cast<const char*>(&cache_data_[set]), _MM_HINT_T0);
#endif
  const std::size_t w = probeSet(cache_keys_[set], a, b, c, op);
  if (w != kCacheWays) {
    // Refresh the aging stamp: a hot entry outlives set pressure.
    cache_data_[set].gen[w] = static_cast<std::uint8_t>(cache_gen_);
    ++stats_.cache_hits;
    ++stats_.op_cache_hits[static_cast<std::size_t>(tagOf(op))];
    return set * kCacheWays + w;
  }
  ++stats_.op_cache_misses[static_cast<std::size_t>(tagOf(op))];
  return kCacheMiss;
}

inline void Manager::cacheInsert(std::uint32_t op, Edge a, Edge b, Edge c,
                                 Edge r, Edge r2) {
  ++stats_.cache_inserts;
  if (++cache_gen_tick_ >= kCacheGenPeriod) {
    cache_gen_tick_ = 0;
    ++cache_gen_;
  }
  const std::size_t set =
      detail::hash3((static_cast<std::uint64_t>(op) << 32) | a, b, c) &
      cache_set_mask_;
  CacheKeySet& ks = cache_keys_[set];
  CacheSetData& data = cache_data_[set];
  const std::uint8_t now = static_cast<std::uint8_t>(cache_gen_);
  // Victim: the first empty way, else the stalest age (a mod-256 distance
  // from the current generation, so staleness survives counter wrap).
  // No match probe: stores only follow a missed lookup of the same key,
  // and no descendant of the pending computation can insert that key (the
  // subproblem would be recursing into itself), so the key cannot already
  // be present. A duplicate way would be harmless anyway — results are
  // deterministic, so both ways would agree.
  std::size_t w = 0;
  std::uint8_t stale_age = 0;
  for (std::size_t i = 0; i < kCacheWays; ++i) {
    if (ks.way[i].op == 0) {
      w = i;
      stale_age = 0xFF;  // an empty way cannot lose to a live one
      break;
    }
    const std::uint8_t age = static_cast<std::uint8_t>(now - data.gen[i]);
    if (age >= stale_age) {
      stale_age = age;
      w = i;
    }
  }
  if (ks.way[w].op != 0) ++stats_.cache_collisions;
  ks.way[w] = CacheKey{a, b, c, op};
  data.result[w] = CacheResult{r, r2};
  data.gen[w] = now;
}

}  // namespace bfvr::bdd

// Single-job execution: fresh manager, deadline + cancellation through the
// interrupt hook, engine dispatch, and the engine-boundary catch that turns
// every failure mode into a RunStatus (a runaway or crashing job must never
// take the pool — or the process — down with it).
#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "circuit/bench_io.hpp"
#include "circuit/generators.hpp"
#include "io/checkpoint.hpp"
#include "lz/lz_reach.hpp"
#include "obs/metrics.hpp"
#include "run/manifest.hpp"
#include "run/run.hpp"
#include "sym/space.hpp"
#include "util/stats.hpp"

namespace bfvr::run {

std::string JobSpec::displayName() const {
  if (!name.empty()) return name;
  return circuit + "/" + reach::tag(engine);
}

namespace {

/// Split "a:b:c" into segments.
std::vector<std::string> splitColons(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  std::istringstream in(s);
  while (std::getline(in, cur, ':')) out.push_back(cur);
  return out;
}

unsigned argAt(const std::vector<std::string>& parts, std::size_t i,
               const std::string& spec) {
  if (i >= parts.size()) {
    throw std::invalid_argument("generator spec needs more arguments: " +
                                spec);
  }
  return parseU32(parts[i]);
}

/// The kLz attempt body: no manager, no state space — the netlist goes
/// straight into the zonotope engine, and the LzResult is adapted onto the
/// ReachResult the job/report layers already speak. Cancellation is polled
/// through the job's CancelToken (there is no interrupt hook to install);
/// the deadline rides on ReachOptions::budget.max_seconds, which the caller
/// already folded the deadline into.
reach::ReachResult runLzAttempt(const JobSpec& spec, const circuit::Netlist& n,
                                const reach::ReachOptions& opts,
                                const CancelToken* cancel) {
  lz::LzOptions lo;
  lo.budget = opts.budget;
  lo.max_iterations = opts.max_iterations;
  if (spec.lz_merge != 0) lo.merge_threshold = spec.lz_merge;
  if (!spec.lz_target.empty()) {
    const circuit::SignalId sig = n.signal(spec.lz_target);
    int pos = -1;
    for (std::size_t i = 0; i < n.outputs().size(); ++i) {
      if (n.outputs()[i] == sig) pos = static_cast<int>(i);
    }
    if (pos < 0) {
      throw std::invalid_argument("target is not a primary output: " +
                                  spec.lz_target);
    }
    lo.target_output = pos;
  }
  if (cancel != nullptr) {
    lo.cancelled = [cancel] { return cancel->cancelled(); };
  }
  obs::RunTrace trace;
  std::size_t peak_members = 0;
  if (opts.trace || opts.on_iteration) {
    lo.on_iteration = [&trace, &peak_members,
                       &opts](const lz::IterationStats& s) {
      obs::IterationRecord rec;
      rec.iteration = s.iteration;
      // lz expands the initial set, then each step's new members.
      rec.from =
          s.iteration == 1 ? obs::FromSet::kReached : obs::FromSet::kImage;
      rec.frontier_states = s.frontier_states;
      rec.frontier_nodes = s.frontier_members;
      // No BDD nodes exist; the member census (zonotopes + points) is the
      // closest live-size analogue the record can carry.
      rec.live_nodes = s.zonotopes + s.points;
      peak_members = std::max(peak_members, rec.live_nodes);
      rec.peak_nodes = peak_members;
      if (opts.trace) trace.iterations.push_back(rec);
      if (opts.on_iteration) {
        try {
          opts.on_iteration(rec);
        } catch (...) {
          // Streaming hooks must not abort the run (engine contract).
        }
      }
    };
  }
  lz::LzResult r = lz::lzReach(n, lo);
  reach::ReachResult out;
  out.status = r.status;
  out.message = r.message;
  if (r.target_reachable.has_value()) {
    const std::string verdict = *r.target_reachable
                                    ? "target '" + spec.lz_target +
                                          "' reachable"
                                    : "target '" + spec.lz_target +
                                          "' unreachable";
    out.message = out.message.empty() ? verdict : verdict + "; " + out.message;
  }
  out.iterations = r.iterations;
  out.states = r.states;
  out.seconds = r.seconds;
  out.peak_live_nodes = 0;  // the whole point: no BDD was ever built
  if (opts.trace) out.trace = std::move(trace);
  static obs::Counter& runs =
      obs::Registry::global().counter("bfvr_lz_runs_total");
  static obs::Counter& exact =
      obs::Registry::global().counter("bfvr_lz_exact_runs_total");
  static obs::Counter& lossy =
      obs::Registry::global().counter("bfvr_lz_lossy_products_total");
  runs.inc();
  if (r.exact) exact.inc();
  if (r.lossy_products != 0) lossy.inc(r.lossy_products);
  return out;
}

}  // namespace

circuit::Netlist resolveCircuit(const std::string& spec) {
  if (spec.rfind("gen:", 0) != 0) return circuit::parseBenchFile(spec);
  const std::vector<std::string> parts = splitColons(spec.substr(4));
  if (parts.empty()) throw std::invalid_argument("empty generator spec");
  const std::string& kind = parts[0];
  if (kind == "counter") {
    return circuit::makeCounter(argAt(parts, 1, spec), argAt(parts, 2, spec));
  }
  if (kind == "johnson") return circuit::makeJohnson(argAt(parts, 1, spec));
  if (kind == "lfsr") return circuit::makeLfsr(argAt(parts, 1, spec));
  if (kind == "lfsr-free") {
    return circuit::makeLfsrFree(argAt(parts, 1, spec));
  }
  if (kind == "twinshift") {
    return circuit::makeTwinShift(argAt(parts, 1, spec));
  }
  if (kind == "arbiter") return circuit::makeArbiter(argAt(parts, 1, spec));
  if (kind == "fifo") return circuit::makeFifoCtrl(argAt(parts, 1, spec));
  if (kind == "gray") return circuit::makeGrayCounter(argAt(parts, 1, spec));
  if (kind == "crc") return circuit::makeCrc(argAt(parts, 1, spec));
  if (kind == "random") {
    return circuit::makeRandomSeq(argAt(parts, 1, spec), argAt(parts, 2, spec),
                                  argAt(parts, 3, spec), argAt(parts, 4, spec));
  }
  throw std::invalid_argument("unknown generator kind: " + spec);
}

namespace {

/// One attempt on one manager — fresh, or acquired warm from the worker's
/// ManagerCache: deadline + cancellation wired to the interrupt hook, fault
/// plan installed, engine dispatched (or resumed from an in-memory image /
/// a checkpoint file when one is available). Never throws: every failure
/// mode folds into the result status — which is what lets a worker release
/// this attempt's manager (scoped here, released whatever happened) and
/// move on to the next queued job or retry.
JobResult executeAttempt(const JobSpec& spec, const CancelToken* cancel,
                         bool try_resume, ManagerCache* warm,
                         AttemptRecord& rec) noexcept {
  JobResult out;
  const Timer timer;  // the deadline clock: covers setup AND engine
  std::unique_ptr<bdd::Manager> owned;
  try {
    reach::ReachOptions opts = spec.opts;
    if (spec.deadline_seconds > 0.0) {
      // Fold the deadline into the engine budget too: a job whose
      // iterations are too small to reach a manager poll point must still
      // time out at the engine's per-iteration budget check.
      opts.budget.max_seconds =
          opts.budget.max_seconds > 0.0
              ? std::min(opts.budget.max_seconds, spec.deadline_seconds)
              : spec.deadline_seconds;
    }
    const circuit::Netlist n = resolveCircuit(spec.circuit);
    if (spec.engine == reach::Engine::kLz) {
      // The zonotope backend: no manager, no state space, no warm-cache
      // traffic — the attempt runs entirely on generator matrices. The
      // deadline was folded into opts.budget above; cancellation is polled
      // directly (there is no interrupt hook without a manager).
      out.reach = runLzAttempt(spec, n, opts, cancel);
      out.status = out.reach.status;
      out.message = out.reach.message;
      out.seconds = timer.seconds();
      rec.status = out.status;
      rec.message = out.message;
      rec.seconds = out.seconds;
      return out;
    }
    owned = warm != nullptr ? warm->acquire(spec.mgr)
                            : std::make_unique<bdd::Manager>(0, spec.mgr);
    bdd::Manager& m = *owned;
    if (!spec.faults.empty()) m.setFaultPlan(spec.faults);
    if (cancel != nullptr || spec.deadline_seconds > 0.0) {
      const double deadline = spec.deadline_seconds;
      m.setInterruptCheck([cancel, deadline, &timer] {
        if (cancel != nullptr && cancel->cancelled()) {
          throw bdd::Interrupted(bdd::Interrupted::Reason::kCancelled);
        }
        if (deadline > 0.0 && timer.seconds() > deadline) {
          throw bdd::Interrupted(bdd::Interrupted::Reason::kDeadline);
        }
      });
    }
    // Scoped so the state space's handles die before the manager is
    // released to the warm cache below.
    {
      sym::StateSpace s(m, n, circuit::makeOrder(n, spec.order));
      // Resume seeds the job's own engine (with its own options) from the
      // migration image, captured when this job was evicted from another
      // worker, or else from its checkpoint file. No checkpoint, or none
      // this engine can continue (io::Error), means a fresh run.
      const bool has_image =
          spec.resume_image != nullptr && !spec.resume_image->empty();
      if (has_image || (try_resume && !opts.checkpoint_path.empty())) {
        // Decoding installs the image's variable order before it can fail,
        // so a rejected image puts the job's own order back.
        const std::vector<unsigned> order = m.currentOrder();
        try {
          const io::Checkpoint c =
              has_image ? io::decode(spec.resume_image->data(),
                                     spec.resume_image->size(), m)
                        : io::load(opts.checkpoint_path, m);
          reach::ReachOptions seeded = opts;
          seeded.resume = &c;
          out.reach = reach::runEngine(s, spec.engine, seeded);
          rec.resumed = true;
        } catch (const io::Error&) {
          // Unusable checkpoint: the fresh run below, under the job's order.
          if (m.currentOrder() != order) m.setVarOrder(order);
        }
      }
      if (!rec.resumed) out.reach = reach::runEngine(s, spec.engine, opts);
    }
    out.status = out.reach.status;
    out.message = out.reach.message;
    // The reached set lives in this manager, which dies (or is reset for
    // reuse) with the job: drop the handles here, explicitly, rather than
    // letting the release orphan them after the result already escaped.
    out.reach.reached_bfv.reset();
    out.reach.reached_chi = bdd::Bdd();
    rec.faults_injected = m.faultsInjected();
  } catch (const bdd::NodeBudgetExceeded& e) {
    // Setup (netlist -> BDDs) blew the manager's hard node budget before
    // the engine's own boundary could catch it.
    out.status = RunStatus::kMemOut;
    out.message = e.what();
  } catch (const bdd::Interrupted& e) {
    out.status = e.reason() == bdd::Interrupted::Reason::kDeadline
                     ? RunStatus::kTimeOut
                     : RunStatus::kCancelled;
    out.message = e.what();
  } catch (const std::exception& e) {
    out.status = RunStatus::kError;
    out.message = e.what();
  } catch (...) {
    out.status = RunStatus::kError;
    out.message = "unknown exception";
  }
  // Hand the attempt's manager back to the warm cache (reset-not-destroy);
  // without a cache the unique_ptr destroys it right here, exactly like
  // the old stack object did.
  if (warm != nullptr) warm->release(std::move(owned));
  owned.reset();
  out.seconds = timer.seconds();
  rec.status = out.status;
  rec.message = out.message;
  rec.seconds = out.seconds;
  return out;
}

/// Apply the escalation step for the NEXT attempt (1-based `attempt` just
/// finished) and return its tag for the attempt record.
const char* escalate(JobSpec& spec, unsigned attempt) {
  if (attempt == 1) {
    spec.mgr.auto_reorder = true;
    spec.mgr.pressure_ladder.enabled = true;
    return "auto-reorder+ladder";
  }
  if (attempt == 2) {
    spec.mgr.cache_bits = spec.mgr.cache_bits > 14u
                              ? spec.mgr.cache_bits - 2u
                              : std::min(12u, spec.mgr.cache_bits);
    return "cache-shrink";
  }
  const double g = spec.retry.node_budget_growth;
  const auto grow = [g](std::size_t v) {
    return v == 0 ? v : static_cast<std::size_t>(static_cast<double>(v) * g);
  };
  spec.mgr.max_nodes = grow(spec.mgr.max_nodes);
  spec.opts.budget.max_live_nodes = grow(spec.opts.budget.max_live_nodes);
  return "raise-budget";
}

}  // namespace

JobResult executeJob(const JobSpec& spec, const CancelToken* cancel,
                     ManagerCache* warm) noexcept {
  const Timer timer;
  JobSpec cur = spec;
  const unsigned max_attempts = std::max(1u, spec.retry.max_attempts);
  std::string escalation;  // tag of the step applied before this attempt
  JobResult out;
  for (unsigned attempt = 1;; ++attempt) {
    AttemptRecord rec;
    rec.escalation = escalation;
    std::vector<AttemptRecord> history = std::move(out.attempts);
    out = executeAttempt(cur, cancel, /*try_resume=*/attempt > 1, warm, rec);
    out.attempts = std::move(history);
    out.attempts.push_back(std::move(rec));
    // Only an out-of-nodes attempt is worth escalating: a timeout would
    // burn the same wall-clock again, an error or a cancellation would
    // repeat verbatim.
    if (out.status != RunStatus::kMemOut || attempt >= max_attempts) break;
    if (cancel != nullptr && cancel->cancelled()) break;
    escalation = escalate(cur, attempt);
    if (spec.retry.backoff_seconds > 0.0) {
      // Exponential backoff, polled so a cancellation cuts the wait short.
      const double wait = spec.retry.backoff_seconds *
                          static_cast<double>(1u << (attempt - 1));
      const Timer backoff;
      while (backoff.seconds() < wait) {
        if (cancel != nullptr && cancel->cancelled()) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }
  out.seconds = timer.seconds();
  // Job-level observability counters. Registered lazily (function-local
  // statics) and updated with relaxed increments; nothing here touches the
  // manager or engine state, so instrumented runs stay op-count identical.
  static obs::Counter& retries =
      obs::Registry::global().counter("bfvr_job_retries_total");
  static obs::Counter& resumes =
      obs::Registry::global().counter("bfvr_job_resumes_total");
  static obs::Counter& faults =
      obs::Registry::global().counter("bfvr_job_faults_injected_total");
  if (out.retriesUsed() > 0) retries.inc(out.retriesUsed());
  for (const AttemptRecord& rec : out.attempts) {
    if (rec.resumed) resumes.inc();
    if (rec.faults_injected != 0) faults.inc(rec.faults_injected);
  }
  return out;
}

}  // namespace bfvr::run

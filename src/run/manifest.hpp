// Batch manifests for the `bfv_run` CLI: a dependency-free, line-oriented
// job list. One job per non-comment line, whitespace-separated key=value
// tokens:
//
//   # circuit is the only required key
//   circuit=data/arb4.bench engine=bfv order=topo deadline=30
//   circuit=gen:johnson:16  engine=tr  nodes=1000000 name=j16
//   circuit=data/twin6.bench portfolio=tr,cbm,bfv,hybrid deadline=10
//
// Keys:
//   circuit        .bench path or gen:<kind>:<args> (see run::resolveCircuit)
//   name           report key (default "<circuit>/<engine>")
//   engine         a tag of reach's engine table (reach::kEngines, printed
//                  by `bfv_run --list-engines`): tr | tr-mono | cbm | bfv |
//                  cdec | hybrid | lz (default bfv)
//   order          natural | topo | reverse | random[:seed]   (default topo)
//   deadline       wall-clock deadline in seconds, setup included (0 = none)
//   seconds        engine time budget (ReachOptions::budget.max_seconds)
//   nodes          engine live-node budget (budget.max_live_nodes)
//   max-nodes      manager hard node budget (Manager::Config::max_nodes)
//   iters          ReachOptions::max_iterations
//   reorder-every  sift after every k-th frontier iteration
//   auto-reorder   0/1: Manager::Config::auto_reorder
//   trace          0/1: record the per-iteration obs trace
//   portfolio      comma-separated engine list — expands this line into a
//                  portfolio race instead of a single job
//   ladder         0/1: Manager::Config::pressure_ladder.enabled
//   cache-bits     log2 computed-cache slots (Manager::Config::cache_bits)
//   retries        RetryPolicy::max_attempts (total attempts; 1 = none)
//   backoff        RetryPolicy::backoff_seconds (exponential per retry)
//   budget-growth  RetryPolicy::node_budget_growth
//   checkpoint-every  snapshot each N iterations (ReachOptions)
//   checkpoint-path   snapshot file (atomic tmp+rename; retries resume
//                     from it)
//   target         primary-output name the lz engine checks reachability
//                  of (pre-filter mode; ignored by the BDD engines)
//   lz-merge       lz engine merge threshold (LzOptions::merge_threshold;
//                  0 = engine default)
//   fault-allocs   comma-separated allocation counts at which the fault
//                  plan injects an allocation failure (FaultPlan)
//   fault-polls    comma-separated poll counts at which it injects a
//                  spurious interrupt
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "run/run.hpp"

namespace bfvr::run {

/// One manifest line: the base spec plus the (possibly empty) portfolio
/// engine list it expands into.
struct ManifestEntry {
  JobSpec spec;
  std::vector<reach::Engine> portfolio;  ///< empty = plain single-engine job
};

/// The manifest's value parsers, shared with the CLIs' flags. Each takes
/// the whole token or throws std::invalid_argument saying what was wrong:
/// a count is digits only (no sign, no blanks, no trailing junk), and a
/// parseF64 value (a duration, a backoff or a growth factor) is finite
/// and >= 0 (no NaN, no inf, no sign that makes it negative).
std::uint64_t parseU64(const std::string& s);
unsigned parseU32(const std::string& s);
double parseF64(const std::string& s);
/// An engine tag; the error names every known tag.
reach::Engine parseEngine(const std::string& s);
/// The `portfolio=` list: comma-separated engine tags, at least one.
std::vector<reach::Engine> parseEngineList(const std::string& s);

/// Parse a manifest; throws std::runtime_error naming the offending line on
/// any malformed entry. Circuits are NOT resolved here — a missing .bench
/// file surfaces per job as RunStatus::kError, not as a batch failure.
std::vector<ManifestEntry> parseManifest(std::istream& in);
std::vector<ManifestEntry> parseManifestString(const std::string& text);
std::vector<ManifestEntry> parseManifestFile(const std::string& path);

}  // namespace bfvr::run

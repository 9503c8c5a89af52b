// Wall-clock timing and run-outcome bookkeeping shared by the reachability
// engines and the benchmark harness.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace bfvr {

/// Monotonic stopwatch.
class Timer {
 public:
  Timer() noexcept : start_(Clock::now()) {}

  void reset() noexcept { start_ = Clock::now(); }

  /// Elapsed seconds since construction or last reset().
  double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Outcome of a resource-budgeted run. The first three mirror the paper's
/// Table 2 notation: completed, T.O. (time budget exceeded) or M.O. (node
/// budget exceeded). The job runner (src/run) adds two more: kCancelled for
/// runs stopped cooperatively (a portfolio sibling won first) and kError for
/// failures outside the resource model (bad manifest entry, parse error).
/// The logical-zonotope backend (src/lz) adds kInconclusive: the run
/// completed but its answer is a sound over-approximation, not an exact
/// result — never treated as a conclusive portfolio win, never an error.
enum class RunStatus : std::uint8_t {
  kDone,
  kTimeOut,
  kMemOut,
  kCancelled,
  kError,
  kInconclusive,
};

/// Human-readable tag used by the bench harness ("done" / "T.O." / "M.O." /
/// "cancelled" / "error" / "inconclusive").
std::string to_string(RunStatus s);

/// Inverse of to_string(RunStatus), so trace/JSON files can be re-ingested
/// by tooling. Returns std::nullopt for an unrecognized tag.
std::optional<RunStatus> parse_run_status(std::string_view s);

inline constexpr std::size_t kNumRunStatuses = 6;

/// Report key of a status count: "done" / "timeout" / "memout" /
/// "cancelled" / "error" / "inconclusive" (the JOBS and SVC totals prefix
/// it with "jobs_").
const char* countKey(RunStatus s) noexcept;

/// How many runs ended in each status: the one outcome tally behind the
/// JOBS totals, the CLIs' roll-up lines and the SVC tenant rows and totals.
struct StatusCounts {
  std::array<std::uint64_t, kNumRunStatuses> n{};

  void add(RunStatus s) noexcept { ++n[static_cast<std::size_t>(s)]; }
  std::uint64_t operator[](RunStatus s) const noexcept {
    return n[static_cast<std::size_t>(s)];
  }
  std::uint64_t total() const noexcept;
  StatusCounts& operator+=(const StatusCounts& o) noexcept;
  /// "2 done, 0 timeout, 1 memout, 0 cancelled, 0 error, 0 inconclusive".
  std::string summary() const;
};

/// Resource budget checked inside long-running loops.
struct Budget {
  double max_seconds = 0.0;       ///< 0 means unlimited.
  std::size_t max_live_nodes = 0; ///< 0 means unlimited; checked vs BDD peak.
};

}  // namespace bfvr

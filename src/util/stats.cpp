#include "util/stats.hpp"

namespace bfvr {

std::string to_string(RunStatus s) {
  switch (s) {
    case RunStatus::kDone:
      return "done";
    case RunStatus::kTimeOut:
      return "T.O.";
    case RunStatus::kMemOut:
      return "M.O.";
    case RunStatus::kCancelled:
      return "cancelled";
    case RunStatus::kError:
      return "error";
    case RunStatus::kInconclusive:
      return "inconclusive";
  }
  return "?";
}

std::optional<RunStatus> parse_run_status(std::string_view s) {
  if (s == "done") return RunStatus::kDone;
  if (s == "T.O.") return RunStatus::kTimeOut;
  if (s == "M.O.") return RunStatus::kMemOut;
  if (s == "cancelled") return RunStatus::kCancelled;
  if (s == "error") return RunStatus::kError;
  if (s == "inconclusive") return RunStatus::kInconclusive;
  return std::nullopt;
}

const char* countKey(RunStatus s) noexcept {
  static constexpr const char* kKeys[kNumRunStatuses] = {
      "done", "timeout", "memout", "cancelled", "error", "inconclusive"};
  return kKeys[static_cast<std::size_t>(s)];
}

std::uint64_t StatusCounts::total() const noexcept {
  std::uint64_t sum = 0;
  for (const std::uint64_t k : n) sum += k;
  return sum;
}

StatusCounts& StatusCounts::operator+=(const StatusCounts& o) noexcept {
  for (std::size_t i = 0; i < kNumRunStatuses; ++i) n[i] += o.n[i];
  return *this;
}

std::string StatusCounts::summary() const {
  std::string out;
  for (std::size_t i = 0; i < kNumRunStatuses; ++i) {
    out += (i == 0 ? "" : ", ") + std::to_string(n[i]) + " " +
           countKey(static_cast<RunStatus>(i));
  }
  return out;
}

}  // namespace bfvr

#include "obs/flight.hpp"

#include <chrono>
#include <cstdio>

#include "util/file.hpp"

namespace bfvr::obs {
namespace {

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

}  // namespace

const char* to_string(FlightSeverity s) {
  switch (s) {
    case FlightSeverity::kInfo: return "info";
    case FlightSeverity::kWarn: return "warn";
    case FlightSeverity::kError: return "error";
  }
  return "?";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), epoch_ns_(nowNs()) {
  ring_.resize(capacity_);
}

void FlightRecorder::record(FlightSeverity severity,
                            const std::string& category,
                            const std::string& message,
                            const std::string& tenant, std::uint64_t job) {
  FlightEvent ev;
  ev.t = static_cast<double>(nowNs() - epoch_ns_) * 1e-9;
  ev.severity = severity;
  ev.category = category;
  ev.message = message;
  ev.tenant = tenant;
  ev.job = job;
  std::lock_guard<std::mutex> lock(mu_);
  ev.seq = next_seq_++;
  ring_[ev.seq % capacity_] = std::move(ev);
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FlightEvent> out;
  const std::uint64_t n = next_seq_;
  const std::uint64_t first = n > capacity_ ? n - capacity_ : 0;
  out.reserve(static_cast<std::size_t>(n - first));
  for (std::uint64_t s = first; s < n; ++s) {
    out.push_back(ring_[s % capacity_]);
  }
  return out;
}

std::uint64_t FlightRecorder::totalRecorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

std::string FlightRecorder::json(const std::string& reason) const {
  const std::vector<FlightEvent> events = snapshot();
  std::string out = "{\n";
  out += "  \"reason\": \"" + jsonEscape(reason) + "\",\n";
  out += "  \"recorded\": " + std::to_string(totalRecorded()) + ",\n";
  out += "  \"capacity\": " + std::to_string(capacity_) + ",\n";
  out += "  \"events\": [";
  bool first = true;
  for (const FlightEvent& ev : events) {
    out += first ? "\n" : ",\n";
    first = false;
    char tbuf[32];
    std::snprintf(tbuf, sizeof tbuf, "%.6f", ev.t);
    out += "    {\"seq\": " + std::to_string(ev.seq) + ", \"t\": " + tbuf +
           ", \"severity\": \"" + to_string(ev.severity) + "\", \"category\": \"" +
           jsonEscape(ev.category) + "\", \"message\": \"" +
           jsonEscape(ev.message) + "\"";
    if (!ev.tenant.empty()) {
      out += ", \"tenant\": \"" + jsonEscape(ev.tenant) + "\"";
    }
    if (ev.job != 0) out += ", \"job\": " + std::to_string(ev.job);
    out += "}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

bool FlightRecorder::dump(const std::string& path,
                          const std::string& reason) const {
  return util::writeFile(path, json(reason));
}

}  // namespace bfvr::obs

// Shared JSON writer for machine-readable outputs: bench rows and trace
// reports (BENCH_*.json, TRACE_*.json, see reach/report.hpp), the JOBS_*
// and SVC_* reports, and anything else that wants a line-stable,
// dependency-free serialization.
//
// Deliberately tiny: an ordered field builder and an array-file writer
// (over util::writeFile), no external dependency.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/file.hpp"

namespace bfvr::util {

/// Ordered JSON object builder. Field order follows insertion order, so
/// diffs between bench runs stay line-stable.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, const std::string& v) {
    return addRaw(key, quote(v));
  }
  JsonObject& add(const std::string& key, const char* v) {
    return addRaw(key, quote(v));
  }
  JsonObject& add(const std::string& key, bool v) {
    return addRaw(key, v ? "true" : "false");
  }
  JsonObject& add(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return addRaw(key, buf);
  }
  JsonObject& add(const std::string& key, std::uint64_t v) {
    return addRaw(key, std::to_string(v));
  }
  JsonObject& add(const std::string& key, unsigned v) {
    return addRaw(key, std::to_string(v));
  }
  JsonObject& add(const std::string& key, int v) {
    return addRaw(key, std::to_string(v));
  }
  /// Nested object / array: `v` must already be valid JSON.
  JsonObject& addRaw(const std::string& key, const std::string& v) {
    body_ += body_.empty() ? "" : ", ";
    body_ += quote(key) + ": " + v;
    return *this;
  }

  std::string str() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      switch (c) {
        case '"':
          out += "\\\"";
          break;
        case '\\':
          out += "\\\\";
          break;
        case '\n':
          out += "\\n";
          break;
        case '\t':
          out += "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

/// Renders a sequence of values as a JSON array string, one serialized
/// element at a time (each `push` argument must already be valid JSON).
inline std::string jsonArray(const std::vector<std::string>& elems) {
  std::string out = "[";
  for (std::size_t i = 0; i < elems.size(); ++i) {
    out += i == 0 ? "" : ", ";
    out += elems[i];
  }
  return out + "]";
}

/// Accumulates run objects and writes them as a JSON array. A default-
/// constructed (disabled) log swallows writes, so benches can log
/// unconditionally.
class JsonLog {
 public:
  JsonLog() = default;
  explicit JsonLog(std::string path) : path_(std::move(path)) {}

  bool enabled() const noexcept { return !path_.empty(); }
  void push(const JsonObject& o) {
    if (enabled()) entries_.push_back(o.str());
  }
  /// Push an already-serialized JSON value (object or array).
  void push(std::string raw) {
    if (enabled()) entries_.push_back(std::move(raw));
  }

  /// Write the array file; returns false (with a stderr note) on IO error.
  bool write() const {
    if (!enabled()) return true;
    std::string text = "[\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      text.append("  ").append(entries_[i]);
      text += i + 1 < entries_.size() ? ",\n" : "\n";
    }
    text += "]\n";
    if (!writeFile(path_, text)) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return false;
    }
    std::printf("wrote %s (%zu runs)\n", path_.c_str(), entries_.size());
    return true;
  }

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::vector<std::string> entries_;
};

/// Parse `<flag>` / `<flag>=path` out of argv; returns a JsonLog on
/// `default_path` (or the given path), or a disabled log when the flag is
/// absent.
inline JsonLog jsonLogFromFlag(int argc, char** argv, const std::string& flag,
                               const std::string& default_path) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == flag) return JsonLog(default_path);
    if (arg.rfind(flag + "=", 0) == 0) {
      return JsonLog(arg.substr(flag.size() + 1));
    }
  }
  return JsonLog();
}

}  // namespace bfvr::util

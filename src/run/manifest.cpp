#include "run/manifest.hpp"

#include <cctype>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace bfvr::run {

std::uint64_t parseU64(const std::string& s) {
  // Digits first: std::stoull would skip blanks and take a sign (wrapping a
  // negative); and the whole token, not a prefix of "3x".
  std::size_t pos = 0;
  std::uint64_t v = 0;
  try {
    if (!s.empty() && std::isdigit(static_cast<unsigned char>(s[0]))) {
      v = std::stoull(s, &pos);
    }
  } catch (const std::exception&) {
  }
  if (pos == 0 || pos != s.size()) {
    throw std::invalid_argument("expected a number, got '" + s + "'");
  }
  return v;
}

double parseF64(const std::string& s) {
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(s, &pos);
  } catch (const std::exception&) {
  }
  if (pos == 0 || pos != s.size()) {
    throw std::invalid_argument("expected a number, got '" + s + "'");
  }
  if (!std::isfinite(v) || v < 0.0) {
    throw std::invalid_argument("expected a finite number >= 0, got '" + s +
                                "'");
  }
  return v;
}

unsigned parseU32(const std::string& s) {
  const std::uint64_t v = parseU64(s);
  if (v > 0xFFFFFFFFull) {
    throw std::invalid_argument("value out of range: '" + s + "'");
  }
  return static_cast<unsigned>(v);
}

reach::Engine parseEngine(const std::string& s) {
  if (const std::optional<reach::Engine> e = reach::engineFromTag(s)) {
    return *e;
  }
  std::string known;
  for (const reach::EngineInfo& e : reach::kEngines) {
    if (!known.empty()) known += ", ";
    known += e.tag;
  }
  throw std::invalid_argument("unknown engine '" + s + "' (known: " + known +
                              ")");
}

std::vector<reach::Engine> parseEngineList(const std::string& s) {
  std::vector<reach::Engine> out;
  std::string cur;
  std::istringstream in(s);
  while (std::getline(in, cur, ',')) {
    if (!cur.empty()) out.push_back(parseEngine(cur));
  }
  if (out.empty()) throw std::invalid_argument("empty engine list");
  return out;
}

namespace {

circuit::OrderSpec parseOrder(const std::string& s) {
  if (s == "natural") return {circuit::OrderKind::kNatural, 0};
  if (s == "topo") return {circuit::OrderKind::kTopo, 0};
  if (s == "reverse") return {circuit::OrderKind::kReverse, 0};
  if (s == "random") return {circuit::OrderKind::kRandom, 0};
  if (s.rfind("random:", 0) == 0) {
    return {circuit::OrderKind::kRandom, parseU64(s.substr(7))};
  }
  throw std::invalid_argument("unknown order: " + s);
}

bool parseBool(const std::string& s) {
  if (s == "0" || s == "false") return false;
  if (s == "1" || s == "true") return true;
  throw std::invalid_argument("expected 0/1: " + s);
}

std::vector<std::uint64_t> parseU64List(const std::string& s) {
  std::vector<std::uint64_t> out;
  std::string cur;
  std::istringstream in(s);
  while (std::getline(in, cur, ',')) {
    if (!cur.empty()) out.push_back(parseU64(cur));
  }
  if (out.empty()) throw std::invalid_argument("empty count list");
  return out;
}

/// Internal marker so the unknown-key diagnostic is not double-prefixed
/// with the "key '...'" context applyKey adds to value errors.
struct UnknownKey {};

void applyKey(ManifestEntry& e, const std::string& key,
              const std::string& value) {
  JobSpec& j = e.spec;
  try {
    if (key == "circuit") {
      j.circuit = value;
    } else if (key == "name") {
      j.name = value;
    } else if (key == "engine") {
      j.engine = parseEngine(value);
    } else if (key == "order") {
      j.order = parseOrder(value);
    } else if (key == "deadline") {
      j.deadline_seconds = parseF64(value);
    } else if (key == "seconds") {
      j.opts.budget.max_seconds = parseF64(value);
    } else if (key == "nodes") {
      j.opts.budget.max_live_nodes = parseU64(value);
    } else if (key == "max-nodes") {
      j.mgr.max_nodes = parseU64(value);
    } else if (key == "iters") {
      j.opts.max_iterations = parseU32(value);
    } else if (key == "reorder-every") {
      j.opts.reorder_every = parseU32(value);
    } else if (key == "auto-reorder") {
      j.mgr.auto_reorder = parseBool(value);
    } else if (key == "trace") {
      j.opts.trace = parseBool(value);
    } else if (key == "portfolio") {
      e.portfolio = parseEngineList(value);
    } else if (key == "ladder") {
      j.mgr.pressure_ladder.enabled = parseBool(value);
    } else if (key == "cache-bits") {
      j.mgr.cache_bits = parseU32(value);
    } else if (key == "retries") {
      j.retry.max_attempts = parseU32(value);
    } else if (key == "backoff") {
      j.retry.backoff_seconds = parseF64(value);
    } else if (key == "budget-growth") {
      j.retry.node_budget_growth = parseF64(value);
    } else if (key == "checkpoint-every") {
      j.opts.checkpoint_every = parseU32(value);
    } else if (key == "checkpoint-path") {
      j.opts.checkpoint_path = value;
    } else if (key == "target") {
      j.lz_target = value;
    } else if (key == "lz-merge") {
      j.lz_merge = parseU64(value);
    } else if (key == "fault-allocs") {
      j.faults.alloc_failures = parseU64List(value);
    } else if (key == "fault-polls") {
      j.faults.spurious_interrupts = parseU64List(value);
    } else {
      throw UnknownKey{};
    }
  } catch (const UnknownKey&) {
    throw std::invalid_argument("unknown key '" + key + "'");
  } catch (const std::exception& ex) {
    // Name the offending key alongside the value diagnostic, so a bad
    // entry in a thousand-line sweep manifest is a one-glance fix.
    throw std::invalid_argument("key '" + key + "': " + ex.what());
  }
}

}  // namespace

std::vector<ManifestEntry> parseManifest(std::istream& in) {
  std::vector<ManifestEntry> out;
  std::string line;
  unsigned lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream tokens(line);
    std::string tok;
    ManifestEntry entry;
    bool any = false;
    // key -> the value it first appeared with, for the duplicate
    // diagnostic. Silent last-wins would make `deadline=30 ... deadline=5`
    // a hidden bug in a long sweep row, so duplicates are errors that name
    // both occurrences.
    std::map<std::string, std::string> seen;
    try {
      while (tokens >> tok) {
        const std::size_t eq = tok.find('=');
        if (eq == std::string::npos || eq == 0) {
          throw std::invalid_argument("expected key=value, got: " + tok);
        }
        const std::string key = tok.substr(0, eq);
        const std::string value = tok.substr(eq + 1);
        const auto [it, inserted] = seen.emplace(key, value);
        if (!inserted) {
          throw std::invalid_argument(
              "duplicate key '" + key + "' (first " + key + "=" + it->second +
              ", then " + key + "=" + value + ")");
        }
        applyKey(entry, key, value);
        any = true;
      }
      if (!any) continue;  // blank / comment-only line
      if (entry.spec.circuit.empty()) {
        throw std::invalid_argument("missing circuit=");
      }
    } catch (const std::exception& ex) {
      throw std::runtime_error("manifest line " + std::to_string(lineno) +
                               ": " + ex.what());
    }
    out.push_back(std::move(entry));
  }
  return out;
}

std::vector<ManifestEntry> parseManifestString(const std::string& text) {
  std::istringstream in(text);
  return parseManifest(in);
}

std::vector<ManifestEntry> parseManifestFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open manifest: " + path);
  return parseManifest(in);
}

}  // namespace bfvr::run

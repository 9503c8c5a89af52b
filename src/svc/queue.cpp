#include "svc/queue.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "svc/wire.hpp"

namespace bfvr::svc {

namespace {

std::vector<std::string> splitColons(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  std::istringstream in(s);
  while (std::getline(in, cur, ':')) out.push_back(cur);
  return out;
}

std::uint64_t fieldU64(const std::string& s, const char* what) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || end == nullptr || *end != '\0') {
    throw Error(std::string("tenants: bad ") + what + " '" + s + "'");
  }
  return v;
}

double fieldF64(const std::string& s, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end == nullptr || *end != '\0' || v < 0.0) {
    throw Error(std::string("tenants: bad ") + what + " '" + s + "'");
  }
  return v;
}

TenantConfig parseTenantLine(const std::string& line) {
  const std::vector<std::string> parts = splitColons(line);
  if (parts.empty() || parts[0].empty()) {
    throw Error("tenants: missing tenant name");
  }
  TenantConfig t;
  t.name = parts[0];
  if (parts.size() > 1) {
    t.weight = static_cast<std::uint32_t>(fieldU64(parts[1], "weight"));
    if (t.weight == 0) throw Error("tenants: weight must be >= 1");
  }
  if (parts.size() > 2) {
    t.max_running = static_cast<std::uint32_t>(fieldU64(parts[2], "max_running"));
  }
  if (parts.size() > 3) {
    t.max_queued = static_cast<std::uint32_t>(fieldU64(parts[3], "max_queued"));
  }
  if (parts.size() > 4) t.max_nodes = fieldU64(parts[4], "max_nodes");
  if (parts.size() > 5) t.max_seconds = fieldF64(parts[5], "max_seconds");
  if (parts.size() > 6) throw Error("tenants: too many fields: " + line);
  return t;
}

std::vector<TenantConfig> parseTenants(std::istream& in) {
  std::vector<TenantConfig> out;
  std::string line;
  unsigned lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    // Trim whitespace.
    const auto b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    const auto e = line.find_last_not_of(" \t\r");
    try {
      out.push_back(parseTenantLine(line.substr(b, e - b + 1)));
    } catch (const Error& ex) {
      throw Error("tenants line " + std::to_string(lineno) + ": " + ex.what());
    }
  }
  return out;
}

}  // namespace

std::vector<TenantConfig> parseTenantsFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open tenants file: " + path);
  return parseTenants(in);
}

std::vector<TenantConfig> parseTenantsString(const std::string& text) {
  std::istringstream in(text);
  return parseTenants(in);
}

FairQueue::FairQueue(std::vector<TenantConfig> tenants) {
  for (TenantConfig& t : tenants) {
    auto slot = std::make_unique<Tenant>();
    slot->cfg = std::move(t);
    tenants_.push_back(std::move(slot));
  }
}

FairQueue::Tenant& FairQueue::tenantFor(const std::string& name) {
  for (auto& t : tenants_) {
    if (t->cfg.name == name) return *t;
  }
  auto slot = std::make_unique<Tenant>();
  slot->cfg.name = name;
  tenants_.push_back(std::move(slot));
  return *tenants_.back();
}

std::optional<std::string> FairQueue::admit(QueuedJob job) {
  Tenant& t = tenantFor(job.tenant);
  if (t.cfg.max_queued > 0 && t.waiting.size() >= t.cfg.max_queued) {
    return "tenant '" + job.tenant + "' queue is full (max_queued=" +
           std::to_string(t.cfg.max_queued) + ")";
  }
  // Clamp, never raise: a job asking for more than the tenant ceiling gets
  // the ceiling; a job asking for less (or for a budget the server would
  // not otherwise impose) keeps its own number.
  run::JobSpec& spec = job.spec;
  if (t.cfg.max_nodes > 0) {
    const auto clampNodes = [&](std::size_t v) {
      return v == 0 ? static_cast<std::size_t>(t.cfg.max_nodes)
                    : std::min(v, static_cast<std::size_t>(t.cfg.max_nodes));
    };
    spec.opts.budget.max_live_nodes = clampNodes(spec.opts.budget.max_live_nodes);
    spec.mgr.max_nodes = clampNodes(spec.mgr.max_nodes);
  }
  if (t.cfg.max_seconds > 0.0) {
    spec.deadline_seconds = spec.deadline_seconds == 0.0
                                ? t.cfg.max_seconds
                                : std::min(spec.deadline_seconds,
                                           t.cfg.max_seconds);
  }
  t.waiting.push_back(std::move(job));
  return std::nullopt;
}

void FairQueue::requeueFront(QueuedJob job) {
  Tenant& t = tenantFor(job.tenant);
  t.waiting.push_front(std::move(job));
}

std::optional<QueuedJob> FairQueue::pick() {
  // Contenders: tenants with waiting work and a free running slot.
  std::vector<Tenant*> contending;
  std::int64_t total_weight = 0;
  for (auto& t : tenants_) {
    const std::uint32_t cap = t->cfg.max_running;
    if (t->waiting.empty()) continue;
    if (cap > 0 && t->running >= cap) continue;
    contending.push_back(t.get());
    total_weight += t->cfg.weight;
  }
  if (contending.empty()) return std::nullopt;
  // Smooth WRR: grow every contender's credit by its weight, pick the
  // richest, charge it the total. Ties break by registration order, which
  // keeps the schedule deterministic.
  Tenant* best = nullptr;
  for (Tenant* t : contending) {
    t->credit += t->cfg.weight;
    if (best == nullptr || t->credit > best->credit) best = t;
  }
  best->credit -= total_weight;
  QueuedJob job = std::move(best->waiting.front());
  best->waiting.pop_front();
  best->running += 1;
  dispatch_log_.push_back(best->cfg.name);
  return job;
}

void FairQueue::release(const std::string& tenant) {
  Tenant& t = tenantFor(tenant);
  if (t.running > 0) t.running -= 1;
}

std::vector<QueuedJob> FairQueue::dropAll() {
  std::vector<QueuedJob> dropped;
  for (auto& t : tenants_) {
    for (QueuedJob& j : t->waiting) dropped.push_back(std::move(j));
    t->waiting.clear();
  }
  return dropped;
}

std::vector<QueuedJob> FairQueue::dropSession(std::uint64_t session) {
  std::vector<QueuedJob> dropped;
  for (auto& t : tenants_) {
    auto& q = t->waiting;
    for (auto it = q.begin(); it != q.end();) {
      if ((*it).session == session) {
        dropped.push_back(std::move(*it));
        it = q.erase(it);
      } else {
        ++it;
      }
    }
  }
  return dropped;
}

std::optional<QueuedJob> FairQueue::dropJob(std::uint64_t id) {
  for (auto& t : tenants_) {
    auto& q = t->waiting;
    for (auto it = q.begin(); it != q.end(); ++it) {
      if ((*it).id == id) {
        QueuedJob job = std::move(*it);
        q.erase(it);
        return job;
      }
    }
  }
  return std::nullopt;
}

bool FairQueue::reattachSession(std::uint64_t job_id, std::uint64_t session) {
  for (auto& t : tenants_) {
    for (QueuedJob& j : t->waiting) {
      if (j.id == job_id) {
        j.session = session;
        return true;
      }
    }
  }
  return false;
}

std::size_t FairQueue::queuedCount() const noexcept {
  std::size_t n = 0;
  for (const auto& t : tenants_) n += t->waiting.size();
  return n;
}

const TenantConfig* FairQueue::tenantConfig(const std::string& name) const {
  for (const auto& t : tenants_) {
    if (t->cfg.name == name) return &t->cfg;
  }
  return nullptr;
}

}  // namespace bfvr::svc

#include "svc/jobs.hpp"

#include <algorithm>

namespace bfvr::svc {

void JobTable::apply(const JournalRecord& rec) {
  next_id_ = std::max(next_id_, rec.job + 1);
  if (rec.event == JournalEvent::kAccepted) {
    const auto [it, fresh] = jobs_.try_emplace(rec.job);
    if (fresh || it->second.done.has_value()) live_ += 1;
    it->second = JobEntry{rec, 0, std::nullopt};
    if (!rec.idem.empty()) keys_[{rec.tenant, rec.idem}] = rec.job;
    return;
  }
  const auto it = jobs_.find(rec.job);
  if (it == jobs_.end()) return;
  JobEntry& job = it->second;
  if (rec.event == JournalEvent::kCheckpointed && !job.done.has_value()) {
    job.watermark = rec.iteration;
  } else if (rec.event == JournalEvent::kDone) {
    if (!job.done.has_value()) live_ -= 1;
    if (keep_terminal_) {
      job.done = rec;
      return;
    }
    const auto key = keys_.find({job.accepted.tenant, job.accepted.idem});
    if (key != keys_.end() && key->second == rec.job) keys_.erase(key);
    jobs_.erase(it);
  }
}

const JobEntry* JobTable::find(std::uint64_t id) const {
  const auto it = jobs_.find(id);
  return it != jobs_.end() ? &it->second : nullptr;
}

const JobEntry* JobTable::findKey(const std::string& tenant,
                                  const std::string& key) const {
  const auto it = keys_.find({tenant, key});
  return it != keys_.end() ? find(it->second) : nullptr;
}

std::vector<JournalRecord> JobTable::live() const {
  std::vector<JournalRecord> out;
  for (const auto& [id, job] : jobs_) {
    if (!job.done.has_value()) out.push_back(job.accepted);
  }
  return out;
}

}  // namespace bfvr::svc

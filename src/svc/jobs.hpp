// The serving tier's job table: every job in the journal's own terms — its
// `accepted` record and its `done` record — indexed by (tenant, idempotency
// key). I/O-free, with one mutator: the server calls apply() right after
// each journal append and once per record it replays,
// so a restarted server rebuilds the table the crashed one held at its last
// durable record. Not thread-safe: the server drives it under its mutex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "svc/journal.hpp"

namespace bfvr::svc {

struct JobEntry {
  JournalRecord accepted;             ///< tenant, idempotency key, job line
  std::optional<JournalRecord> done;  ///< set once terminal
};

class JobTable {
 public:
  /// `keep_terminal` remembers finished jobs and their keys for duplicate
  /// submissions; false (no journal) forgets a job at its `done` record.
  explicit JobTable(bool keep_terminal) : keep_terminal_(keep_terminal) {}

  /// Fold one record in, last transition winning: `accepted` adds a live
  /// job under its key, `done` makes it terminal (or forgets it). The
  /// legacy `dispatched` and `checkpointed` records of older journals, and
  /// any record of a job the table does not hold (a compacted remnant),
  /// only advance nextId().
  void apply(const JournalRecord& rec);

  const JobEntry* find(std::uint64_t id) const;
  /// Keys are scoped per tenant: two tenants may each use one key.
  const JobEntry* findKey(const std::string& tenant,
                          const std::string& key) const;

  /// Accepted records of the live jobs, by id: the set a clean shutdown
  /// compacts the journal to, and the jobs replay re-admits.
  std::vector<JournalRecord> live() const;
  std::size_t liveCount() const noexcept { return live_; }
  std::size_t terminalCount() const noexcept { return jobs_.size() - live_; }
  /// One above every job id applied so far: the next new job's id.
  std::uint64_t nextId() const noexcept { return next_id_; }

 private:
  bool keep_terminal_;
  std::map<std::uint64_t, JobEntry> jobs_;
  std::map<std::pair<std::string, std::string>, std::uint64_t> keys_;
  std::size_t live_ = 0;
  std::uint64_t next_id_ = 1;
};

}  // namespace bfvr::svc

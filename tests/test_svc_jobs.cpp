// SvcJobTable: the serving tier's I/O-free job table (src/svc/jobs.*).
//
// Unit tests of apply() for each journal event, then the in-memory half of
// the crash-point enumeration: a synthetic journal (two tenants; one job
// done, one cancelled while queued, one checkpointed and left live, one key
// reused across tenants) is cut at every byte, each prefix is decoded with
// Journal::decodeRecord exactly as a restarting server would, applied to a
// fresh table, and the table is checked against what the prefix says.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "svc/jobs.hpp"
#include "svc/journal.hpp"

namespace bfvr::svc {
namespace {

JournalRecord accepted(std::uint64_t job, const std::string& tenant,
                       const std::string& key) {
  JournalRecord r;
  r.event = JournalEvent::kAccepted;
  r.job = job;
  r.tenant = tenant;
  r.idem = key;
  r.line = "circuit=gen:counter:4:" + std::to_string(job + 4);
  return r;
}

JournalRecord dispatched(std::uint64_t job) {
  JournalRecord r;
  r.event = JournalEvent::kDispatched;
  r.job = job;
  return r;
}

JournalRecord checkpointed(std::uint64_t job, std::uint64_t iteration) {
  JournalRecord r;
  r.event = JournalEvent::kCheckpointed;
  r.job = job;
  r.iteration = iteration;
  return r;
}

JournalRecord done(std::uint64_t job, const std::string& status) {
  JournalRecord r;
  r.event = JournalEvent::kDone;
  r.job = job;
  r.status = status;
  r.iteration = 9;
  r.states = 16.0;
  r.seconds = 0.5;
  return r;
}

std::vector<std::uint64_t> liveIds(const JobTable& t) {
  std::vector<std::uint64_t> ids;
  for (const JournalRecord& r : t.live()) ids.push_back(r.job);
  return ids;
}

TEST(SvcJobTable, AcceptedAddsALiveJobUnderItsTenantAndKey) {
  JobTable t(true);
  EXPECT_EQ(t.nextId(), 1u);
  t.apply(accepted(3, "alpha", "k"));
  ASSERT_NE(t.find(3), nullptr);
  EXPECT_EQ(t.find(3)->accepted.line, "circuit=gen:counter:4:7");
  EXPECT_FALSE(t.find(3)->done.has_value());
  EXPECT_EQ(t.find(3)->watermark, 0u);
  EXPECT_EQ(t.findKey("alpha", "k"), t.find(3));
  // Keys are scoped per tenant.
  EXPECT_EQ(t.findKey("bravo", "k"), nullptr);
  EXPECT_EQ(liveIds(t), std::vector<std::uint64_t>{3});
  EXPECT_EQ(t.liveCount(), 1u);
  EXPECT_EQ(t.terminalCount(), 0u);
  EXPECT_EQ(t.nextId(), 4u);
  // A job without a key is not indexed.
  t.apply(accepted(4, "alpha", ""));
  EXPECT_EQ(t.findKey("alpha", ""), nullptr);
  EXPECT_EQ(t.liveCount(), 2u);
}

TEST(SvcJobTable, DispatchedChangesNothing) {
  JobTable t(true);
  t.apply(accepted(1, "alpha", "k"));
  t.apply(checkpointed(1, 4));
  t.apply(dispatched(1));
  ASSERT_NE(t.find(1), nullptr);
  EXPECT_FALSE(t.find(1)->done.has_value());
  EXPECT_EQ(t.find(1)->watermark, 4u);
  EXPECT_EQ(t.liveCount(), 1u);
  EXPECT_EQ(t.nextId(), 2u);
}

TEST(SvcJobTable, CheckpointedAdvancesTheWatermarkOfALiveJob) {
  JobTable t(true);
  t.apply(accepted(1, "alpha", ""));
  t.apply(checkpointed(1, 2));
  t.apply(checkpointed(1, 5));
  EXPECT_EQ(t.find(1)->watermark, 5u);
  // A terminal job's watermark is frozen.
  t.apply(done(1, "done"));
  t.apply(checkpointed(1, 6));
  EXPECT_EQ(t.find(1)->watermark, 5u);
}

TEST(SvcJobTable, DoneMakesTheJobTerminalOrForgetsIt) {
  JobTable kept(true);
  kept.apply(accepted(1, "alpha", "k"));
  kept.apply(done(1, "cancelled"));
  ASSERT_NE(kept.find(1), nullptr);
  ASSERT_TRUE(kept.find(1)->done.has_value());
  EXPECT_EQ(kept.find(1)->done->status, "cancelled");
  EXPECT_EQ(kept.findKey("alpha", "k"), kept.find(1));  // key survives
  EXPECT_TRUE(kept.live().empty());
  EXPECT_EQ(kept.liveCount(), 0u);
  EXPECT_EQ(kept.terminalCount(), 1u);

  // Without a journal a finished job is forgotten, key and all.
  JobTable forgetful(false);
  forgetful.apply(accepted(1, "alpha", "k"));
  forgetful.apply(done(1, "done"));
  EXPECT_EQ(forgetful.find(1), nullptr);
  EXPECT_EQ(forgetful.findKey("alpha", "k"), nullptr);
  EXPECT_EQ(forgetful.liveCount(), 0u);
  EXPECT_EQ(forgetful.terminalCount(), 0u);
  EXPECT_EQ(forgetful.nextId(), 2u);
}

TEST(SvcJobTable, RecordsOfUnknownJobsOnlyAdvanceNextId) {
  // What a compacted journal can hold: transitions whose accepted record
  // is gone.
  JobTable t(true);
  t.apply(dispatched(8));
  t.apply(checkpointed(9, 3));
  t.apply(done(11, "done"));
  EXPECT_EQ(t.find(8), nullptr);
  EXPECT_EQ(t.find(11), nullptr);
  EXPECT_EQ(t.liveCount(), 0u);
  EXPECT_EQ(t.terminalCount(), 0u);
  EXPECT_EQ(t.nextId(), 12u);
}

TEST(SvcJobTable, EveryCrashPrefixReplaysConsistently) {
  // Job 1 (alpha) runs to done; job 2 (bravo, key "shared") is cancelled
  // while queued; job 3 (alpha) checkpoints and stays live; job 4 (alpha)
  // reuses bravo's key "shared" and finishes; job 5 (carol, no key) is
  // left queued.
  const std::vector<JournalRecord> log = {
      accepted(1, "alpha", "a-1"), accepted(2, "bravo", "shared"),
      dispatched(1),               accepted(3, "alpha", "a-3"),
      checkpointed(1, 1),          done(2, "cancelled"),
      dispatched(3),               checkpointed(3, 1),
      checkpointed(1, 2),          accepted(4, "alpha", "shared"),
      done(1, "done"),             dispatched(4),
      checkpointed(3, 2),          accepted(5, "carol", ""),
      done(4, "done"),
  };
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> ends;  // byte offset after each record
  for (const JournalRecord& rec : log) {
    const std::vector<std::uint8_t> b = Journal::encodeRecord(rec);
    bytes.insert(bytes.end(), b.begin(), b.end());
    ends.push_back(bytes.size());
  }

  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    SCOPED_TRACE("prefix of " + std::to_string(cut) + " bytes");
    std::vector<JournalRecord> prefix;
    std::size_t off = 0;
    for (;;) {
      JournalRecord rec;
      const std::size_t n =
          Journal::decodeRecord(bytes.data() + off, cut - off, &rec);
      if (n == 0) break;
      prefix.push_back(rec);
      off += n;
    }
    // The decoded prefix is exactly the records wholly inside the cut.
    std::size_t whole = 0;
    while (whole < ends.size() && ends[whole] <= cut) ++whole;
    ASSERT_EQ(prefix.size(), whole);

    JobTable t(true);
    for (const JournalRecord& rec : prefix) t.apply(rec);

    std::map<std::uint64_t, const JournalRecord*> acc;
    std::set<std::uint64_t> terminal;
    std::map<std::uint64_t, std::uint64_t> last_mark;
    for (const JournalRecord& rec : prefix) {
      if (rec.event == JournalEvent::kAccepted) acc[rec.job] = &rec;
      if (rec.event == JournalEvent::kDone) terminal.insert(rec.job);
      if (rec.event == JournalEvent::kCheckpointed &&
          terminal.count(rec.job) == 0) {
        last_mark[rec.job] = rec.iteration;
      }
      EXPECT_GT(t.nextId(), rec.job);
    }
    const std::vector<std::uint64_t> live = liveIds(t);
    EXPECT_EQ(std::set<std::uint64_t>(live.begin(), live.end()).size(),
              live.size());
    EXPECT_EQ(t.liveCount() + t.terminalCount(), acc.size());
    for (const auto& [id, rec] : acc) {
      // Live or terminal, exactly once; terminal exactly when the prefix
      // holds its done record.
      const JobEntry* job = t.find(id);
      ASSERT_NE(job, nullptr) << "job " << id;
      const bool is_terminal = terminal.count(id) != 0;
      EXPECT_EQ(job->done.has_value(), is_terminal) << "job " << id;
      EXPECT_EQ(std::count(live.begin(), live.end(), id),
                is_terminal ? 0 : 1)
          << "job " << id;
      if (!is_terminal) {
        EXPECT_EQ(job->watermark, last_mark[id]) << "job " << id;
      }
      // Its (tenant, key) leads back to it and to no other id.
      if (!rec->idem.empty()) {
        EXPECT_EQ(t.findKey(rec->tenant, rec->idem), job) << "job " << id;
      }
    }
    // Re-applying the compaction set rebuilds the same live jobs.
    JobTable rebuilt(true);
    for (const JournalRecord& rec : t.live()) rebuilt.apply(rec);
    EXPECT_EQ(liveIds(rebuilt), live);
    EXPECT_EQ(rebuilt.terminalCount(), 0u);
    for (const JournalRecord& rec : rebuilt.live()) {
      EXPECT_EQ(rec.tenant, acc.at(rec.job)->tenant);
      EXPECT_EQ(rec.idem, acc.at(rec.job)->idem);
      EXPECT_EQ(rec.line, acc.at(rec.job)->line);
    }
  }
}

}  // namespace
}  // namespace bfvr::svc

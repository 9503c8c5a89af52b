// Durability and socket-hardening tests for the serving tier.
//
// SvcJournal: the append-only job journal — record codec round-trips and
// rejects every mutation, reopen replays the log, a torn tail (the
// kill -9 signature) is truncated and the file stays appendable, a
// corrupted middle record ends the valid prefix, compaction rewrites
// atomically; then the server-level contract over a real socket: lifecycle
// records land in the log, clean shutdown compacts terminal jobs away,
// duplicate idempotency keys are answered from the journal without
// re-executing (keys are scoped per tenant, and a client that reattaches by
// key to a running job receives the rest of its progress stream), a job
// replay cannot re-admit is retired under its key, and an immediate
// shutdown (the in-process stand-in for a crash) preserves accepted jobs so
// a restarted server resumes them from their spool checkpoint
// bit-identically.
//
// SvcDeadline: the idle reaper closes silent sessions, a slow-loris
// partial frame trips the frame deadline instead of pinning a session
// thread, and the client's deadline-aware next() throws svc::Timeout
// while leaving the session usable (idle timeouts consume no bytes).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "run/run.hpp"
#include "support/hex.hpp"
#include "support/process_dir.hpp"
#include "svc/client.hpp"
#include "svc/journal.hpp"
#include "svc/server.hpp"
#include "svc/socket.hpp"

namespace bfvr::svc {
namespace {

/// Unique-per-process socket path, short enough for sun_path.
std::string sockPath(const char* tag) {
  return "/tmp/bfvr_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// Journal directory inside the process's own scratch directory; any
/// journal an earlier test of this process left there is removed so replay
/// counts start from zero.
std::string journalDir(const char* tag) {
  const std::string dir = test::processDir() + "/jrnl_" + tag;
  ::unlink((dir + "/journal.bin").c_str());
  return dir;
}

std::string freshDir(const char* tag) {
  const std::string dir = test::processDir() + "/dir_" + tag;
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

Server::Options baseOptions(const std::string& sock) {
  Server::Options o;
  o.endpoint = "unix:" + sock;
  o.workers = 2;
  o.tenants = parseTenantsString("alpha:3\nbravo:2\ncarol:1\n");
  o.spool_dir = test::processDir();
  o.checkpoint_every = 1;
  o.name = "svc-test";
  return o;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void appendBytes(const std::string& path, const std::uint8_t* p,
                 std::size_t n) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(p), static_cast<std::streamsize>(n));
}

void rewrite(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

JournalRecord acceptedRec(std::uint64_t job, const std::string& idem = "") {
  JournalRecord r;
  r.event = JournalEvent::kAccepted;
  r.job = job;
  r.tenant = "alpha";
  r.idem = idem;
  r.line = "circuit=gen:counter:4:10 engine=bfv";
  return r;
}

JournalRecord doneRec(std::uint64_t job) {
  JournalRecord r;
  r.event = JournalEvent::kDone;
  r.job = job;
  r.iteration = 11;
  r.status = "done";
  r.states = 10.0;
  r.seconds = 0.25;
  return r;
}

template <class Pred>
bool waitFor(Pred pred, double seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(seconds));
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Journal unit tests: codec, replay, torn tail, compaction.
// ---------------------------------------------------------------------------

TEST(SvcJournal, FsyncPolicyGrammar) {
  EXPECT_EQ(parseFsyncPolicy("never"), FsyncPolicy::kNever);
  EXPECT_EQ(parseFsyncPolicy("batch"), FsyncPolicy::kBatch);
  EXPECT_EQ(parseFsyncPolicy("always"), FsyncPolicy::kAlways);
  EXPECT_THROW(parseFsyncPolicy("sometimes"), Error);
  EXPECT_THROW(parseFsyncPolicy(""), Error);
  EXPECT_STREQ(to_string(FsyncPolicy::kBatch), "batch");
  EXPECT_STREQ(to_string(JournalEvent::kCheckpointed), "checkpointed");
}

TEST(SvcJournal, RecordRoundTripAllFields) {
  JournalRecord rec;
  rec.event = JournalEvent::kDone;
  rec.job = 42;
  rec.tenant = "alpha";
  rec.idem = "key-1";
  rec.line = "circuit=gen:counter:4:10";
  rec.iteration = 7;
  rec.status = "done";
  rec.message = "all good";
  rec.states = 1024.0;
  rec.seconds = 0.5;

  const std::vector<std::uint8_t> bytes = Journal::encodeRecord(rec);
  ASSERT_GT(bytes.size(), kJournalHeaderBytes);

  JournalRecord out;
  ASSERT_EQ(Journal::decodeRecord(bytes.data(), bytes.size(), &out),
            bytes.size());
  EXPECT_EQ(out.event, rec.event);
  EXPECT_EQ(out.job, rec.job);
  EXPECT_EQ(out.tenant, rec.tenant);
  EXPECT_EQ(out.idem, rec.idem);
  EXPECT_EQ(out.line, rec.line);
  EXPECT_EQ(out.iteration, rec.iteration);
  EXPECT_EQ(out.status, rec.status);
  EXPECT_EQ(out.message, rec.message);
  EXPECT_DOUBLE_EQ(out.states, rec.states);
  EXPECT_DOUBLE_EQ(out.seconds, rec.seconds);

  // Every truncated prefix is "not one complete record" — the torn-tail
  // boundary decodeRecord reports as 0, never a throw or a bogus decode.
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    JournalRecord t;
    EXPECT_EQ(Journal::decodeRecord(bytes.data(), n, &t), 0u)
        << "prefix of " << n << " bytes decoded";
  }

  // Every single-byte flip is rejected: header fields are each validated
  // (magic, version, event range, reserved zeros, length) and the payload
  // is CRC-checked, so no position survives an inversion.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> mut = bytes;
    mut[i] ^= 0xFF;
    JournalRecord t;
    EXPECT_EQ(Journal::decodeRecord(mut.data(), mut.size(), &t), 0u)
        << "flip at byte " << i << " decoded";
  }
}

TEST(SvcJournal, ReopenReplaysAppendedRecords) {
  const std::string dir = journalDir("reopen");
  {
    Journal j(dir, FsyncPolicy::kAlways);
    EXPECT_TRUE(j.replayed().empty());
    j.append(acceptedRec(1, "idem-1"));
    JournalRecord disp;
    disp.event = JournalEvent::kDispatched;
    disp.job = 1;
    j.append(disp);
    j.append(doneRec(1));
    j.append(acceptedRec(2));
    EXPECT_EQ(j.stats().appended, 4u);
    EXPECT_GE(j.stats().fsyncs, 4u);  // kAlways: one per append
  }
  Journal j(dir, FsyncPolicy::kNever);
  ASSERT_EQ(j.replayed().size(), 4u);
  EXPECT_EQ(j.stats().replayed_records, 4u);
  EXPECT_EQ(j.stats().torn_bytes, 0u);
  EXPECT_EQ(j.replayed()[0].event, JournalEvent::kAccepted);
  EXPECT_EQ(j.replayed()[0].idem, "idem-1");
  EXPECT_EQ(j.replayed()[1].event, JournalEvent::kDispatched);
  EXPECT_EQ(j.replayed()[2].event, JournalEvent::kDone);
  EXPECT_EQ(j.replayed()[2].status, "done");
  EXPECT_EQ(j.replayed()[3].job, 2u);
}

TEST(SvcJournal, TornTailIsTruncatedAndAppendable) {
  const std::string dir = journalDir("torn");
  std::string path;
  {
    Journal j(dir, FsyncPolicy::kBatch);
    path = j.path();
    j.append(acceptedRec(1));
    j.append(acceptedRec(2));
  }
  const std::size_t intact = slurp(path).size();
  // kill -9 mid-append leaves half a record at the tail.
  const std::vector<std::uint8_t> next = Journal::encodeRecord(doneRec(1));
  appendBytes(path, next.data(), next.size() / 2);
  {
    Journal j(dir, FsyncPolicy::kBatch);
    ASSERT_EQ(j.replayed().size(), 2u);
    EXPECT_EQ(j.stats().torn_bytes, next.size() / 2);
    // The tail was physically truncated back to the valid prefix...
    EXPECT_EQ(slurp(path).size(), intact);
    // ...and the journal accepts appends again at that boundary.
    j.append(doneRec(1));
  }
  Journal j(dir, FsyncPolicy::kNever);
  ASSERT_EQ(j.replayed().size(), 3u);
  EXPECT_EQ(j.replayed()[2].event, JournalEvent::kDone);
}

TEST(SvcJournal, CorruptMiddleRecordEndsReplay) {
  const std::string dir = journalDir("corrupt");
  std::string path;
  {
    Journal j(dir, FsyncPolicy::kAlways);
    path = j.path();
    j.append(acceptedRec(1));
    j.append(acceptedRec(2));
    j.append(doneRec(2));
  }
  const std::size_t r1 = Journal::encodeRecord(acceptedRec(1)).size();
  std::vector<std::uint8_t> bytes = slurp(path);
  // Flip one payload byte of the second record: its CRC no longer matches,
  // so the valid prefix ends after record one and everything from the
  // corruption on is torn tail.
  bytes.at(r1 + kJournalHeaderBytes + 2) ^= 0xFF;
  const std::size_t total = bytes.size();
  rewrite(path, bytes);

  Journal j(dir, FsyncPolicy::kNever);
  ASSERT_EQ(j.replayed().size(), 1u);
  EXPECT_EQ(j.replayed()[0].job, 1u);
  EXPECT_EQ(j.stats().torn_bytes, total - r1);
  EXPECT_EQ(slurp(path).size(), r1);
}

TEST(SvcJournal, CompactionRewritesAtomically) {
  const std::string dir = journalDir("compact");
  {
    Journal j(dir, FsyncPolicy::kBatch);
    for (std::uint64_t id = 1; id <= 5; ++id) j.append(acceptedRec(id));
    for (std::uint64_t id = 1; id <= 3; ++id) j.append(doneRec(id));
    // Keep only the two still-live accepted records.
    j.compact({acceptedRec(4, "keep-4"), acceptedRec(5, "keep-5")});
    EXPECT_EQ(j.stats().compactions, 1u);
    // The reopened-after-rename fd keeps accepting appends.
    j.append(doneRec(4));
  }
  Journal j(dir, FsyncPolicy::kNever);
  ASSERT_EQ(j.replayed().size(), 3u);
  EXPECT_EQ(j.replayed()[0].job, 4u);
  EXPECT_EQ(j.replayed()[0].idem, "keep-4");
  EXPECT_EQ(j.replayed()[1].job, 5u);
  EXPECT_EQ(j.replayed()[2].event, JournalEvent::kDone);
  EXPECT_EQ(j.replayed()[2].job, 4u);
}

/// One record of every JournalEvent, in event order, with its committed
/// bytes.
std::vector<std::pair<JournalRecord, const char*>> goldenRecords() {
  JournalRecord accepted = acceptedRec(1, "key-1");
  JournalRecord dispatched;
  dispatched.event = JournalEvent::kDispatched;
  dispatched.job = 1;
  JournalRecord checkpointed;
  checkpointed.event = JournalEvent::kCheckpointed;
  checkpointed.job = 1;
  checkpointed.iteration = 12;
  JournalRecord done = doneRec(1);
  done.message = "ok";
  return {
      {accepted,
       "4246564a01010000610000004b49490a"
       "010000000000000005000000616c706861050000006b65792d31230000006369"
       "72637569743d67656e3a636f756e7465723a343a313020656e67696e653d6266"
       "7600000000000000000000000000000000000000000000000000000000000000"
       "00"},
      {dispatched,
       "4246564a0102000034000000bdf3e7a5"
       "0100000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000"},
      {checkpointed,
       "4246564a0103000034000000c3dd7937"
       "01000000000000000000000000000000000000000c0000000000000000000000"
       "0000000000000000000000000000000000000000"},
      {done,
       "4246564a010400003a000000c57a1b7f"
       "01000000000000000000000000000000000000000b0000000000000004000000"
       "646f6e65020000006f6b0000000000002440000000000000d03f"},
  };
}

TEST(GoldenBytes, OneJournalRecordPerEvent) {
  // One record of every JournalEvent, as its on-disk bytes: the 16-byte
  // header (magic "BFVJ", version, event, two reserved bytes, payload
  // length, payload CRC-32) and then every field in its fixed order. Each
  // golden string decodes back to the record, which encodes to the same
  // bytes.
  const std::vector<std::pair<JournalRecord, const char*>> cases =
      goldenRecords();
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const auto& [rec, golden] = cases[i];
    SCOPED_TRACE(to_string(rec.event));
    EXPECT_EQ(static_cast<std::size_t>(rec.event), i + 1);
    EXPECT_EQ(test::hex(Journal::encodeRecord(rec)), golden);

    const std::vector<std::uint8_t> bytes = test::unhex(golden);
    JournalRecord back;
    ASSERT_EQ(Journal::decodeRecord(bytes.data(), bytes.size(), &back),
              bytes.size());
    EXPECT_EQ(back.event, rec.event);
    EXPECT_EQ(back.job, rec.job);
    EXPECT_EQ(back.tenant, rec.tenant);
    EXPECT_EQ(back.idem, rec.idem);
    EXPECT_EQ(back.line, rec.line);
    EXPECT_EQ(back.iteration, rec.iteration);
    EXPECT_EQ(back.status, rec.status);
    EXPECT_EQ(back.message, rec.message);
    EXPECT_EQ(back.states, rec.states);
    EXPECT_EQ(back.seconds, rec.seconds);
  }
}

TEST(SvcJournal, EveryRecordRejectsShortAndLongPayloads) {
  // Each golden record with its payload one byte short or one byte long,
  // and the header's length and CRC resealed to match, is not a record:
  // decodeRecord reads the one field list exactly and ends the valid
  // prefix there. The payload resealed as it is still decodes.
  for (const auto& [rec, golden] : goldenRecords()) {
    SCOPED_TRACE(to_string(rec.event));
    const std::vector<std::uint8_t> bytes = test::unhex(golden);
    const std::uint32_t magic = Reader(bytes).u32();
    const auto reseal = [&](int grow) {
      std::vector<std::uint8_t> payload(bytes.begin() + kJournalHeaderBytes,
                                        bytes.end());
      if (grow > 0) payload.push_back(0);
      if (grow < 0) payload.pop_back();
      return io::encodeRecord(magic, kJournalVersion,
                              static_cast<std::uint8_t>(rec.event), payload);
    };
    const std::vector<std::uint8_t> same = reseal(0);
    EXPECT_EQ(Journal::decodeRecord(same.data(), same.size(), nullptr),
              bytes.size());
    for (const int grow : {-1, 1}) {
      const std::vector<std::uint8_t> bad = reseal(grow);
      EXPECT_EQ(Journal::decodeRecord(bad.data(), bad.size(), nullptr), 0u)
          << "payload grown by " << grow;
    }
  }
}

// ---------------------------------------------------------------------------
// Server-level durability over a real socket.
// ---------------------------------------------------------------------------

TEST(SvcJournal, ServerWritesLifecycleRecords) {
  const std::string sock = sockPath("jlife");
  const std::string dir = journalDir("jlife");
  Server::Options opts = baseOptions(sock);
  opts.journal_dir = dir;
  opts.journal_compact_on_shutdown = false;  // keep the full log to inspect
  {
    Server server(opts);
    server.start();
    Client client("unix:" + sock, "alpha");
    const std::uint64_t tag =
        client.submit("circuit=gen:counter:4:10 engine=bfv", "life-1");
    std::optional<std::uint64_t> job = client.awaitAdmission(tag);
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(client.awaitDone(*job).status, "done");
    client.bye();
    server.requestShutdown(true);
    server.waitStopped();
  }
  Journal j(dir, FsyncPolicy::kNever);
  bool accepted = false, dispatched = false, checkpointed = false,
       done = false;
  for (const JournalRecord& r : j.replayed()) {
    switch (r.event) {
      case JournalEvent::kAccepted:
        accepted = true;
        EXPECT_EQ(r.tenant, "alpha");
        EXPECT_EQ(r.idem, "life-1");
        EXPECT_NE(r.line.find("gen:counter:4:10"), std::string::npos);
        break;
      case JournalEvent::kDispatched:
        dispatched = true;
        break;
      case JournalEvent::kCheckpointed:
        checkpointed = true;
        EXPECT_GT(r.iteration, 0u);
        break;
      case JournalEvent::kDone:
        done = true;
        EXPECT_EQ(r.status, "done");
        EXPECT_DOUBLE_EQ(r.states, 10.0);
        break;
    }
  }
  EXPECT_TRUE(accepted);
  EXPECT_TRUE(dispatched);
  EXPECT_TRUE(checkpointed);  // checkpoint_every=1: the watermark advanced
  EXPECT_TRUE(done);
}

TEST(SvcJournal, CompactionOnCleanShutdownEmptiesTheLog) {
  const std::string sock = sockPath("jcompact");
  const std::string dir = journalDir("jcompact");
  Server::Options opts = baseOptions(sock);
  opts.journal_dir = dir;  // journal_compact_on_shutdown defaults to true
  {
    Server server(opts);
    server.start();
    Client client("unix:" + sock, "alpha");
    const std::uint64_t tag = client.submit("circuit=gen:counter:3:4");
    std::optional<std::uint64_t> job = client.awaitAdmission(tag);
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(client.awaitDone(*job).status, "done");
    client.bye();
    server.requestShutdown(true);
    server.waitStopped();
    ASSERT_NE(server.journal(), nullptr);
    EXPECT_EQ(server.journal()->stats().compactions, 1u);
  }
  // Everything was terminal, so the compacted log holds nothing: a restart
  // has no work to replay and no stale records to scan.
  Journal j(dir, FsyncPolicy::kNever);
  EXPECT_TRUE(j.replayed().empty());
}

TEST(SvcJournal, DuplicateIdemAnswersFromCacheWithoutReexecution) {
  const std::string sock = sockPath("jdup");
  const std::string dir = journalDir("jdup");
  Server::Options opts = baseOptions(sock);
  opts.journal_dir = dir;
  Server server(opts);
  server.start();
  {
    Client client("unix:" + sock, "alpha");
    const std::string line = "circuit=gen:counter:4:10 engine=bfv";
    const std::uint64_t tag1 = client.submit(line, "dup-1");
    std::optional<std::uint64_t> job1 = client.awaitAdmission(tag1);
    ASSERT_TRUE(job1.has_value());
    const JobDone first = client.awaitDone(*job1);
    EXPECT_EQ(first.status, "done");

    // Same idempotency key again — the retried-after-reconnect shape. The
    // server answers with the original job id and its cached terminal
    // result instead of executing a second time.
    const std::uint64_t tag2 = client.submit(line, "dup-1");
    std::optional<std::uint64_t> job2 = client.awaitAdmission(tag2);
    ASSERT_TRUE(job2.has_value());
    EXPECT_EQ(*job2, *job1);
    const JobDone replay = client.awaitDone(*job2);
    EXPECT_EQ(replay.status, "done");
    EXPECT_DOUBLE_EQ(replay.states, first.states);
    EXPECT_EQ(replay.iterations, first.iterations);
    client.bye();
  }
  EXPECT_EQ(server.dedupHits(), 1u);
  // One dispatch total: the duplicate never reached a worker.
  EXPECT_EQ(server.dispatchLog().size(), 1u);
  server.requestShutdown(true);
  server.waitStopped();
}

TEST(SvcJournal, RestartAnswersTerminalJobsFromTheJournal) {
  const std::string sock = sockPath("jterm");
  const std::string dir = journalDir("jterm");
  Server::Options opts = baseOptions(sock);
  opts.journal_dir = dir;
  opts.journal_compact_on_shutdown = false;  // keep terminal records around
  const std::string line = "circuit=gen:counter:4:10 engine=bfv";
  JobDone first;
  {
    Server server(opts);
    server.start();
    Client client("unix:" + sock, "alpha");
    const std::uint64_t tag = client.submit(line, "term-1");
    std::optional<std::uint64_t> job = client.awaitAdmission(tag);
    ASSERT_TRUE(job.has_value());
    first = client.awaitDone(*job);
    EXPECT_EQ(first.status, "done");
    client.bye();
    server.requestShutdown(true);
    server.waitStopped();
  }
  // Restart over the same journal: the terminal job is remembered, and a
  // duplicate submission is answered entirely from the log — the dispatch
  // log stays empty because nothing executed.
  Server server(opts);
  server.start();
  {
    Client client("unix:" + sock, "alpha");
    const std::uint64_t tag = client.submit(line, "term-1");
    std::optional<std::uint64_t> job = client.awaitAdmission(tag);
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(*job, first.job);
    const JobDone replay = client.awaitDone(*job);
    EXPECT_EQ(replay.status, "done");
    EXPECT_DOUBLE_EQ(replay.states, first.states);
    EXPECT_EQ(replay.iterations, first.iterations);
    client.bye();
  }
  EXPECT_EQ(server.dedupHits(), 1u);
  EXPECT_TRUE(server.dispatchLog().empty());
  server.requestShutdown(true);
  server.waitStopped();
}

TEST(SvcJournal, IdempotencyKeysAreScopedPerTenant) {
  const std::string sock = sockPath("jtenkey");
  const std::string dir = journalDir("jtenkey");
  Server::Options opts = baseOptions(sock);
  opts.journal_dir = dir;
  Server server(opts);
  server.start();
  // Two tenants run their batches under the same key (both clients use
  // `--idem batch`): they are two jobs, and each gets its own answer.
  JobDone alpha_done, bravo_done;
  {
    Client alpha("unix:" + sock, "alpha");
    const std::uint64_t tag = alpha.submit("circuit=gen:counter:4:10", "batch");
    std::optional<std::uint64_t> job = alpha.awaitAdmission(tag);
    ASSERT_TRUE(job.has_value());
    alpha_done = alpha.awaitDone(*job);
    alpha.bye();
  }
  {
    Client bravo("unix:" + sock, "bravo");
    const std::uint64_t tag = bravo.submit("circuit=gen:counter:3:4", "batch");
    std::optional<std::uint64_t> job = bravo.awaitAdmission(tag);
    ASSERT_TRUE(job.has_value());
    bravo_done = bravo.awaitDone(*job);
    bravo.bye();
  }
  EXPECT_NE(alpha_done.job, bravo_done.job);
  EXPECT_EQ(alpha_done.status, "done");
  EXPECT_EQ(bravo_done.status, "done");
  EXPECT_DOUBLE_EQ(alpha_done.states, 10.0);
  EXPECT_DOUBLE_EQ(bravo_done.states, 4.0);
  EXPECT_EQ(server.dedupHits(), 0u);
  EXPECT_EQ(server.dispatchLog().size(), 2u);
  server.requestShutdown(true);
  server.waitStopped();
}

TEST(SvcJournal, JobReplayCannotReadmitKeepsItsKey) {
  const std::string sock = sockPath("jbadline");
  const std::string dir = journalDir("jbadline");
  {
    // A journaled job whose line no longer parses (say, the key was
    // retired by a newer build).
    Journal j(dir, FsyncPolicy::kNever);
    JournalRecord rec = acceptedRec(7, "bad-1");
    rec.line = "circuit=gen:counter:4:10 nosuchkey=1";
    j.append(rec);
  }
  Server::Options opts = baseOptions(sock);
  opts.journal_dir = dir;
  opts.journal_compact_on_shutdown = false;  // keep the log to audit it
  {
    Server server(opts);
    EXPECT_EQ(server.replayedJobs(), 0u);
    server.start();
    {
      // The client retries its row under the same key: the answer is the
      // retired job's, not a second execution.
      Client client("unix:" + sock, "alpha");
      const std::uint64_t tag =
          client.submit("circuit=gen:counter:4:10", "bad-1");
      std::optional<std::uint64_t> job = client.awaitAdmission(tag);
      ASSERT_TRUE(job.has_value());
      EXPECT_EQ(*job, 7u);
      const JobDone done = client.awaitDone(*job);
      EXPECT_EQ(done.status, "error");
      EXPECT_NE(done.message.find("replay failed"), std::string::npos);
      client.bye();
    }
    EXPECT_TRUE(server.dispatchLog().empty());
    EXPECT_EQ(server.dedupHits(), 1u);
    server.requestShutdown(true);
    server.waitStopped();
  }
  // The log holds the key under one id, terminal exactly once.
  Journal j(dir, FsyncPolicy::kNever);
  std::map<std::uint64_t, unsigned> accepted_under_key, done_records;
  for (const JournalRecord& r : j.replayed()) {
    if (r.event == JournalEvent::kAccepted && r.idem == "bad-1") {
      accepted_under_key[r.job] += 1;
    }
    if (r.event == JournalEvent::kDone) done_records[r.job] += 1;
  }
  ASSERT_EQ(accepted_under_key.size(), 1u);
  EXPECT_EQ(accepted_under_key.begin()->first, 7u);
  EXPECT_EQ(accepted_under_key.begin()->second, 1u);
  EXPECT_EQ(done_records[7], 1u);
}

TEST(SvcJournal, ReattachedSessionReceivesLaterIterationUpdates) {
  const std::string sock = sockPath("jreatt");
  const std::string dir = journalDir("jreatt");
  Server::Options opts = baseOptions(sock);
  opts.journal_dir = dir;
  Server server(opts);
  server.start();
  const std::string line = "circuit=gen:counter:20:1000000 deadline=5";
  std::uint64_t job = 0;
  {
    // The first client watches the job for a while, then goes away; with
    // a journal the job keeps running, detached.
    Client first("unix:" + sock, "alpha");
    const std::uint64_t tag = first.submit(line, "watch-1");
    std::optional<std::uint64_t> admitted = first.awaitAdmission(tag);
    ASSERT_TRUE(admitted.has_value());
    job = *admitted;
    for (unsigned updates = 0; updates < 2;) {
      std::optional<Event> ev = first.next();
      ASSERT_TRUE(ev.has_value());
      if (const auto* u = std::get_if<IterationUpdate>(&*ev)) {
        if (u->job == job) ++updates;
      }
    }
    first.bye();
  }
  // A new session takes the job over by key; the progress stream must
  // follow it there well before the job's deadline.
  Client second("unix:" + sock, "alpha");
  const std::uint64_t tag = second.submit(line, "watch-1");
  std::optional<std::uint64_t> again = second.awaitAdmission(tag);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, job);
  bool updated = false;
  while (!updated) {
    std::optional<Event> ev = second.next();
    ASSERT_TRUE(ev.has_value());
    if (const auto* u = std::get_if<IterationUpdate>(&*ev)) {
      updated = u->job == job;
    } else if (std::get_if<JobDone>(&*ev) != nullptr) {
      FAIL() << "JobDone before any IterationUpdate reached the new session";
    }
  }
  second.cancel(job);
  EXPECT_EQ(second.awaitDone(job).status, "cancelled");
  second.bye();
  EXPECT_EQ(server.dedupHits(), 1u);
  server.requestShutdown(true);
  server.waitStopped();
}

TEST(SvcJournal, ImmediateShutdownPreservesJobsAndRestartResumesBitIdentical) {
  const std::string sock = sockPath("jresume");
  const std::string dir = journalDir("jresume");
  const std::string spool = freshDir("jresume_spool");
  const std::string line = "circuit=gen:counter:12:4096";
  Server::Options opts = baseOptions(sock);
  opts.journal_dir = dir;
  opts.spool_dir = spool;

  // Phase 1: get the job well into its run, then pull the plug. Immediate
  // shutdown with a journal is the in-process stand-in for a crash: the
  // cancelled-by-shutdown job keeps its accepted record and its spool
  // checkpoint, and no JobDone is fabricated.
  {
    Server server(opts);
    server.start();
    Client client("unix:" + sock, "alpha");
    const std::uint64_t tag = client.submit(line, "resume-1");
    std::optional<std::uint64_t> job = client.awaitAdmission(tag);
    ASSERT_TRUE(job.has_value());
    unsigned updates = 0;
    while (updates < 3) {
      std::optional<Event> ev = client.next();
      ASSERT_TRUE(ev.has_value());
      if (const auto* u = std::get_if<IterationUpdate>(&*ev)) {
        if (u->job == *job) ++updates;
      } else if (std::get_if<JobDone>(&*ev) != nullptr) {
        FAIL() << "job finished before the simulated crash";
      }
    }
    server.requestShutdown(false);
    server.waitStopped();
  }

  // Phase 2: a fresh server over the same journal + spool re-enqueues the
  // preserved job and resumes it from its checkpoint. Alongside it runs an
  // uninterrupted control of the same line; the resume contract is that
  // both land on identical states and iteration counts.
  Server::Options opts2 = opts;
  opts2.stream_iterations = false;
  Server server(opts2);
  EXPECT_GE(server.replayedJobs(), 1u);
  server.start();
  {
    Client client("unix:" + sock, "alpha");
    const std::uint64_t tag_base = client.submit(line);
    const std::uint64_t tag_dup = client.submit(line, "resume-1");
    std::uint64_t base_job = 0, dup_job = 0;
    std::map<std::uint64_t, JobDone> dones;
    while (base_job == 0 || dup_job == 0 || dones.count(base_job) == 0 ||
           dones.count(dup_job) == 0) {
      std::optional<Event> ev = client.next();
      ASSERT_TRUE(ev.has_value());
      if (const auto* a = std::get_if<Accepted>(&*ev)) {
        if (a->tag == tag_base) base_job = a->job;
        if (a->tag == tag_dup) dup_job = a->job;
      } else if (const auto* r = std::get_if<Rejected>(&*ev)) {
        FAIL() << "rejected: " << r->reason;
      } else if (const auto* d = std::get_if<JobDone>(&*ev)) {
        dones[d->job] = *d;
      }
    }
    EXPECT_NE(base_job, dup_job);
    const JobDone& control = dones[base_job];
    const JobDone& resumed = dones[dup_job];
    EXPECT_EQ(control.status, "done");
    EXPECT_EQ(resumed.status, "done");
    EXPECT_FALSE(control.resumed);
    EXPECT_TRUE(resumed.resumed);
    // Bit-identical resume: same reachable-state count, same iteration
    // count, as if the crash never happened.
    EXPECT_DOUBLE_EQ(resumed.states, control.states);
    EXPECT_DOUBLE_EQ(resumed.states, 4096.0);
    EXPECT_EQ(resumed.iterations, control.iterations);
    client.bye();
  }
  EXPECT_EQ(server.dedupHits(), 1u);
  server.requestShutdown(true);
  server.waitStopped();
}

// ---------------------------------------------------------------------------
// Socket deadlines: idle reaper, slow-loris frame deadline, client timeout.
// ---------------------------------------------------------------------------

TEST(SvcDeadline, IdleSessionsAreReaped) {
  const std::string sock = sockPath("didle");
  Server::Options opts = baseOptions(sock);
  opts.idle_timeout = 0.2;
  Server server(opts);
  server.start();
  {
    Client client("unix:" + sock, "alpha");
    // Say nothing. The reaper must notice within a few timeout periods.
    ASSERT_TRUE(waitFor([&] { return server.sessionsReaped() >= 1; }, 5.0))
        << "idle session was never reaped";
    // The server closed our socket: the next read ends the stream (either
    // a clean EOF or a reset, depending on close timing).
    bool closed = false;
    try {
      for (int i = 0; i < 10 && !closed; ++i) {
        if (!client.next().has_value()) closed = true;
      }
    } catch (const Error&) {
      closed = true;
    }
    EXPECT_TRUE(closed);
  }
  EXPECT_EQ(server.sessionsReaped(), 1u);
  EXPECT_EQ(server.frameTimeouts(), 0u);
  server.requestShutdown(true);
  server.waitStopped();
}

TEST(SvcDeadline, SlowLorisPartialFrameTimesOut) {
  const std::string sock = sockPath("dloris");
  Server::Options opts = baseOptions(sock);
  opts.frame_timeout = 0.3;  // no idle timeout: only the started frame stalls
  Server server(opts);
  server.start();
  {
    // A raw connection that sends 4 bytes of a frame header and stalls —
    // the slow-loris shape. The frame clock starts at byte one, so the
    // session is dropped ~frame_timeout later instead of pinning its
    // thread forever.
    Fd fd = connectTo(Endpoint::parse("unix:" + sock));
    ASSERT_EQ(::send(fd.get(), "BFVS", 4, MSG_NOSIGNAL), 4);
    ASSERT_TRUE(waitFor([&] { return server.frameTimeouts() >= 1; }, 5.0))
        << "stalled frame never timed out";
  }
  EXPECT_EQ(server.frameTimeouts(), 1u);
  EXPECT_EQ(server.sessionsReaped(), 0u);
  // The server is unharmed: a well-behaved client still gets service.
  {
    Client client("unix:" + sock, "alpha");
    const std::uint64_t tag = client.submit("circuit=gen:counter:3:4");
    std::optional<std::uint64_t> job = client.awaitAdmission(tag);
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(client.awaitDone(*job).status, "done");
    client.bye();
  }
  server.requestShutdown(true);
  server.waitStopped();
}

TEST(SvcDeadline, ClientNextDeadlineThrowsTimeoutAndSessionSurvives) {
  const std::string sock = sockPath("dnext");
  Server server(baseOptions(sock));
  server.start();
  {
    Client client("unix:" + sock, "alpha");
    // Nothing is in flight, so a deadline-bounded next() must time out —
    // and because an idle timeout consumes no bytes, the stream is still
    // clean afterwards.
    const auto t0 = std::chrono::steady_clock::now();
    bool timed_out = false;
    try {
      client.next(0.2);
    } catch (const Timeout& t) {
      timed_out = true;
      EXPECT_TRUE(t.idle);
    }
    EXPECT_TRUE(timed_out);
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_GE(waited, 0.15);
    const std::uint64_t tag = client.submit("circuit=gen:counter:4:10");
    std::optional<std::uint64_t> job = client.awaitAdmission(tag);
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(client.awaitDone(*job).status, "done");
    client.bye();
  }
  server.requestShutdown(true);
  server.waitStopped();
}

}  // namespace
}  // namespace bfvr::svc

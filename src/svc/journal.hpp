// Durable job journal of the serving tier: an append-only, CRC-framed log
// of job lifecycle transitions (accepted / dispatched / checkpointed /
// done) that survives kill -9 and lets a restarted server re-enqueue every
// non-terminal job and answer duplicate submissions without re-executing
// them.
//
// Record layout: the 16-byte record header of the io/bytes.hpp codec, the
// one the wire frames use, with this format's magic and version (all
// integers little-endian):
//
//   offset size  field
//   0      4     magic "BFVJ"
//   4      1     journal format version (kJournalVersion)
//   5      1     event (JournalEvent)
//   6      2     reserved, must be 0
//   8      4     payload byte count (<= wire kMaxFramePayload)
//   12     4     CRC-32 (IEEE 802.3) of the payload bytes
//   16     ...   payload: JournalRecord::fields() in list order, written
//                and read by the codec's field walker (its Reader checks
//                each string length against the bytes left)
//
// Recovery contract: on open the whole file is scanned record by record;
// the first malformed point — bad magic, unknown version/event, nonzero
// reserved bytes, oversized length, CRC mismatch, a payload the codec's
// Reader rejects, or a record cut short by the crash — ends the valid
// prefix, and the file is truncated back to it (a torn tail is expected
// after kill -9 mid-append, never an error). Replayed records are handed
// to the server in append order; last transition per job wins.
//
// Durability knob (FsyncPolicy): `always` fsyncs after every append,
// `batch` only after the transitions that change what a restart must do
// (accepted / done), `never` leaves flushing to the kernel. Compaction
// (clean shutdown) rewrites the log with only the records still needed via
// the same tmp+rename discipline as io::save, then fsyncs file and
// directory, so a crash mid-compaction leaves the old journal intact.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "svc/wire.hpp"

namespace bfvr::svc {

inline constexpr std::uint8_t kJournalVersion = 1;
inline constexpr std::size_t kJournalHeaderBytes = io::kRecordHeaderBytes;

/// Job lifecycle transitions worth surviving a crash.
enum class JournalEvent : std::uint8_t {
  kAccepted = 1,      ///< admitted: carries tenant, idempotency key, job line
  kDispatched = 2,    ///< handed to a worker
  kCheckpointed = 3,  ///< spool snapshot cadence hit (progress watermark)
  kDone = 4,          ///< terminal: carries status/message/states/seconds
};

/// When appends reach the disk.
enum class FsyncPolicy : std::uint8_t {
  kNever = 0,   ///< leave it to the kernel (fastest, weakest)
  kBatch = 1,   ///< fsync on accepted/done — the restart-relevant records
  kAlways = 2,  ///< fsync every append
};

/// Parse "never" | "batch" | "always" (the --fsync grammar). Throws
/// svc::Error on anything else.
FsyncPolicy parseFsyncPolicy(const std::string& s);
const char* to_string(FsyncPolicy p) noexcept;
const char* to_string(JournalEvent e) noexcept;

/// One journal record. The event travels as the header's type byte; the
/// payload is fields() in list order, every field for every event (the
/// codec stays trivially self-describing), and fields an event does not
/// use are written as their zero values.
struct JournalRecord {
  JournalEvent event = JournalEvent::kAccepted;
  std::uint64_t job = 0;
  std::string tenant;          ///< kAccepted
  std::string idem;            ///< kAccepted: client idempotency key ("" = none)
  std::string line;            ///< kAccepted: the manifest-grammar job line
  std::uint64_t iteration = 0; ///< kCheckpointed / kDone
  std::string status;          ///< kDone: RunStatus tag
  std::string message;         ///< kDone: failure reason
  double states = 0.0;         ///< kDone
  double seconds = 0.0;        ///< kDone: execution wall-clock
  static auto fields(auto& r) {
    return std::tie(r.job, r.tenant, r.idem, r.line, r.iteration, r.status,
                    r.message, r.states, r.seconds);
  }
};

/// Counters the server folds into JOURNAL_<name>.json and the metrics
/// registry.
struct JournalStats {
  std::uint64_t appended = 0;          ///< records appended this process
  std::uint64_t fsyncs = 0;
  std::uint64_t replayed_records = 0;  ///< valid records found at open
  std::uint64_t torn_bytes = 0;        ///< bytes truncated off a torn tail
  std::uint64_t compactions = 0;
};

/// The journal file. Thread-safe: append/compact/stats serialize on an
/// internal mutex (the server calls append from frame handlers and worker
/// threads alike).
class Journal {
 public:
  /// Opens (creating the directory and file as needed) `dir`/journal.bin,
  /// replays every valid record and truncates any torn tail. Throws
  /// svc::Error when the directory or file cannot be opened.
  Journal(std::string dir, FsyncPolicy policy);
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  const std::string& path() const noexcept { return path_; }
  FsyncPolicy policy() const noexcept { return policy_; }

  /// Records recovered at open, in append order.
  const std::vector<JournalRecord>& replayed() const noexcept {
    return replayed_;
  }

  /// Append one record (write-ahead: call before acting on the
  /// transition). Throws svc::Error on a write failure.
  void append(const JournalRecord& rec);

  /// Rewrite the journal to contain exactly `keep` (tmp + rename + fsync
  /// of file and directory): clean-shutdown compaction. Throws svc::Error
  /// on failure; the old journal survives any failed attempt.
  void compact(const std::vector<JournalRecord>& keep);

  JournalStats stats() const;

  /// One record as its on-disk bytes (header + payload) — exposed for the
  /// torn-tail tests.
  static std::vector<std::uint8_t> encodeRecord(const JournalRecord& rec);
  /// Decode the record at `p`; returns the bytes consumed, or 0 when the
  /// prefix at `p` is not one complete valid record (torn tail).
  static std::size_t decodeRecord(const std::uint8_t* p, std::size_t n,
                                  JournalRecord* out);

 private:
  void replayAndTruncate();

  std::string dir_;
  std::string path_;
  FsyncPolicy policy_;
  int fd_ = -1;
  mutable std::mutex mu_;
  std::vector<JournalRecord> replayed_;
  JournalStats stats_;
};

}  // namespace bfvr::svc

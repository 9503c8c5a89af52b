// Typed messages of the reachability-service protocol: one struct per
// FrameType, each with an encode() to a Frame and a decode() from one.
// Encodings are explicit field-by-field little-endian (see io/bytes.hpp for
// the primitive codec); decode validates exhaustively and throws svc::Error
// on any malformed payload.
//
// Session flow:
//
//   client                       server
//     | -- Hello{tenant} ------->  |    (must be the first frame)
//     | <------- HelloAck{session}|
//     | -- Submit{tag, line} ---->|
//     | <-- Accepted{tag, job} ---|    (or Rejected{tag, reason})
//     | <-- JobStarted{job} ------|
//     | <-- IterationUpdate ... --|    (streaming, 0..n per job)
//     | <-- JobEvicted{job} ------|    (only if evicted; later a second
//     | <-- JobStarted{resumed} --|     JobStarted announces the resume)
//     | <-- JobDone{job, ...} ----|
//     | -- Bye ------------------>|
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "svc/wire.hpp"

namespace bfvr::svc {

/// Client's opening frame. `proto` lets the server reject a client built
/// against a different protocol revision with a readable error instead of
/// a codec failure further in.
struct Hello {
  std::string tenant;
  std::uint8_t proto = kWireVersion;

  Frame encode() const;
  static Hello decode(const Frame& f);
};

struct HelloAck {
  std::uint64_t session = 0;
  std::string server;  ///< server build/instance tag, for logs

  Frame encode() const;
  static HelloAck decode(const Frame& f);
};

/// One job submission. `line` uses the manifest-line grammar
/// (key=value ..., see run::parseManifest) — the same vocabulary as the
/// batch runner, so clients and manifests are interchangeable. `tag` is a
/// client-chosen correlation id echoed in Accepted/Rejected.
///
/// `idem` (wire v3) is an optional client-chosen idempotency key: a
/// journaling server remembers it across submissions — and across its own
/// restarts — and answers a duplicate with the original job's identity
/// (and its terminal result, if already finished) instead of running the
/// job twice. Empty means "no dedup, every submit is a fresh job".
struct Submit {
  std::uint64_t tag = 0;
  std::string line;
  std::string idem;

  Frame encode() const;
  static Submit decode(const Frame& f);
};

struct Accepted {
  std::uint64_t tag = 0;
  std::uint64_t job = 0;  ///< server-assigned id used in all later frames
  /// Server-assigned span trace id: the key of this job's span timeline in
  /// the stats report and SVC_*.json, so a client can correlate its jobs
  /// with the server-side trace without guessing.
  std::uint64_t trace = 0;

  Frame encode() const;
  static Accepted decode(const Frame& f);
};

struct Rejected {
  std::uint64_t tag = 0;
  std::string reason;

  Frame encode() const;
  static Rejected decode(const Frame& f);
};

struct JobStarted {
  std::uint64_t job = 0;
  bool resumed = false;  ///< true when resuming from an eviction image

  Frame encode() const;
  static JobStarted decode(const Frame& f);
};

/// One live frontier iteration, streamed as the engine completes it.
struct IterationUpdate {
  std::uint64_t job = 0;
  std::uint64_t iteration = 0;
  std::uint64_t frontier_nodes = 0;
  std::uint64_t live_nodes = 0;
  std::uint64_t peak_nodes = 0;
  double frontier_states = 0.0;

  Frame encode() const;
  static IterationUpdate decode(const Frame& f);
};

struct JobEvicted {
  std::uint64_t job = 0;
  std::uint64_t iteration = 0;  ///< iterations completed at suspension
  std::uint32_t worker = 0;     ///< worker it ran on (the resume avoids it)

  Frame encode() const;
  static JobEvicted decode(const Frame& f);
};

/// Final result of a job (terminal frame for that job id).
struct JobDone {
  std::uint64_t job = 0;
  std::string status;   ///< RunStatus tag: done / T.O. / M.O. / ...
  std::string message;  ///< failure reason, empty when done
  double seconds = 0.0;
  double queue_seconds = 0.0;
  std::uint32_t worker = 0;
  std::uint64_t iterations = 0;
  double states = 0.0;
  std::uint64_t peak_live_nodes = 0;
  std::uint32_t attempts = 0;
  std::uint32_t evictions = 0;
  bool resumed = false;

  Frame encode() const;
  static JobDone decode(const Frame& f);
};

struct Cancel {
  std::uint64_t job = 0;

  Frame encode() const;
  static Cancel decode(const Frame& f);
};

/// Suspend a running job to a checkpoint and requeue it; the resumed run
/// is steered to a different worker (migration).
struct Evict {
  std::uint64_t job = 0;

  Frame encode() const;
  static Evict decode(const Frame& f);
};

/// Stats request. `flags` selects which live sections the reply's report
/// embeds beyond the always-present counters; unknown bits are a protocol
/// error (both ends ship together, so skew is a bug worth surfacing).
struct StatsQuery {
  static constexpr std::uint32_t kIncludeMetrics = 1u << 0;  ///< registry
  static constexpr std::uint32_t kIncludeSpans = 1u << 1;    ///< timelines
  static constexpr std::uint32_t kIncludeFlight = 1u << 2;   ///< event ring
  static constexpr std::uint32_t kAllSections =
      kIncludeMetrics | kIncludeSpans | kIncludeFlight;

  std::uint32_t flags = 0;

  Frame encode() const;
  static StatsQuery decode(const Frame& f);
};

struct StatsReply {
  std::string json;  ///< the server report (Server::statsJson)

  Frame encode() const;
  static StatsReply decode(const Frame& f);
};

struct Shutdown {
  bool drain = true;  ///< finish queued jobs first vs. cancel everything

  Frame encode() const;
  static Shutdown decode(const Frame& f);
};

struct Bye {
  Frame encode() const;
  static Bye decode(const Frame& f);
};

/// Server-side protocol error report, sent (best-effort) before the server
/// drops a misbehaving session.
struct WireError {
  std::string message;

  Frame encode() const;
  static WireError decode(const Frame& f);
};

}  // namespace bfvr::svc

// Typed messages of the reachability-service protocol: one struct per
// FrameType. Each names its FrameType once (kType) and its payload fields
// once, in their byte order (fields(), walked by io/bytes.hpp's field
// walker), so svc::encode(msg) and svc::decode<Msg>(frame) are one
// generic body for every message. decode checks the frame type, reads
// every field, rejects a short or long payload and a bool byte above 1,
// and throws svc::Error on any of them.
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
#include <tuple>
#include <utility>
#include <vector>

#include "svc/wire.hpp"

namespace bfvr::svc {

/// Client's opening frame. `proto` lets the server reject a client built
/// against a different protocol revision with a readable error instead of
/// a codec failure further in.
struct Hello {
  static constexpr FrameType kType = FrameType::kHello;
  std::string tenant;
  std::uint8_t proto = kWireVersion;
  static auto fields(auto& m) { return std::tie(m.tenant, m.proto); }
};

struct HelloAck {
  static constexpr FrameType kType = FrameType::kHelloAck;
  std::uint64_t session = 0;
  std::string server;  ///< server build/instance tag, for logs
  static auto fields(auto& m) { return std::tie(m.session, m.server); }
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
  static constexpr FrameType kType = FrameType::kSubmit;
  std::uint64_t tag = 0;
  std::string line;
  std::string idem;
  static auto fields(auto& m) { return std::tie(m.tag, m.line, m.idem); }
};

struct Accepted {
  static constexpr FrameType kType = FrameType::kAccepted;
  std::uint64_t tag = 0;
  std::uint64_t job = 0;  ///< server-assigned id used in all later frames
  /// Server-assigned span trace id: the key of this job's span timeline in
  /// the stats report and SVC_*.json, so a client can correlate its jobs
  /// with the server-side trace without guessing.
  std::uint64_t trace = 0;
  static auto fields(auto& m) { return std::tie(m.tag, m.job, m.trace); }
};

struct Rejected {
  static constexpr FrameType kType = FrameType::kRejected;
  std::uint64_t tag = 0;
  std::string reason;
  static auto fields(auto& m) { return std::tie(m.tag, m.reason); }
};

struct JobStarted {
  static constexpr FrameType kType = FrameType::kJobStarted;
  std::uint64_t job = 0;
  bool resumed = false;  ///< true when resuming from a spool snapshot
  static auto fields(auto& m) { return std::tie(m.job, m.resumed); }
};

/// One live frontier iteration, streamed as the engine completes it.
struct IterationUpdate {
  static constexpr FrameType kType = FrameType::kIteration;
  std::uint64_t job = 0;
  std::uint64_t iteration = 0;
  std::uint64_t frontier_nodes = 0;
  std::uint64_t live_nodes = 0;
  std::uint64_t peak_nodes = 0;
  double frontier_states = 0.0;
  static auto fields(auto& m) {
    return std::tie(m.job, m.iteration, m.frontier_nodes, m.live_nodes,
                    m.peak_nodes, m.frontier_states);
  }
};

struct JobEvicted {
  static constexpr FrameType kType = FrameType::kJobEvicted;
  std::uint64_t job = 0;
  std::uint64_t iteration = 0;  ///< iterations completed at suspension
  std::uint32_t worker = 0;     ///< worker it ran on (the resume avoids it)
  static auto fields(auto& m) {
    return std::tie(m.job, m.iteration, m.worker);
  }
};

/// Final result of a job (terminal frame for that job id).
struct JobDone {
  static constexpr FrameType kType = FrameType::kJobDone;
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
  static auto fields(auto& m) {
    return std::tie(m.job, m.status, m.message, m.seconds, m.queue_seconds,
                    m.worker, m.iterations, m.states, m.peak_live_nodes,
                    m.attempts, m.evictions, m.resumed);
  }
};

struct Cancel {
  static constexpr FrameType kType = FrameType::kCancel;
  std::uint64_t job = 0;
  static auto fields(auto& m) { return std::tie(m.job); }
};

/// Suspend a running job to a checkpoint and requeue it; the resumed run
/// is steered to a different worker (migration).
struct Evict {
  static constexpr FrameType kType = FrameType::kEvict;
  std::uint64_t job = 0;
  static auto fields(auto& m) { return std::tie(m.job); }
};

/// Stats request. `flags` selects which live sections the reply's report
/// embeds beyond the always-present counters; unknown bits are a protocol
/// error (both ends ship together, so skew is a bug worth surfacing).
struct StatsQuery {
  static constexpr FrameType kType = FrameType::kStats;
  static constexpr std::uint32_t kIncludeMetrics = 1u << 0;  ///< registry
  static constexpr std::uint32_t kIncludeSpans = 1u << 1;    ///< timelines
  static constexpr std::uint32_t kIncludeFlight = 1u << 2;   ///< event ring
  static constexpr std::uint32_t kAllSections =
      kIncludeMetrics | kIncludeSpans | kIncludeFlight;

  std::uint32_t flags = 0;
  static auto fields(auto& m) { return std::tie(m.flags); }
  /// Throws svc::Error on an unknown flag bit; decode<StatsQuery> calls
  /// it after reading the fields.
  void check() const;
};

struct StatsReply {
  static constexpr FrameType kType = FrameType::kStatsReply;
  std::string json;  ///< the server report (Server::statsJson)
  static auto fields(auto& m) { return std::tie(m.json); }
};

struct Shutdown {
  static constexpr FrameType kType = FrameType::kShutdown;
  bool drain = true;  ///< finish queued jobs first vs. cancel everything
  static auto fields(auto& m) { return std::tie(m.drain); }
};

struct Bye {
  static constexpr FrameType kType = FrameType::kBye;
  static auto fields(auto&) { return std::tie(); }
};

/// Server-side protocol error report, sent (best-effort) before the server
/// drops a misbehaving session.
struct WireError {
  static constexpr FrameType kType = FrameType::kError;
  std::string message;
  static auto fields(auto& m) { return std::tie(m.message); }
};

/// Throws svc::Error unless `f` is a `want` frame.
void checkFrameType(const Frame& f, FrameType want);

/// The frame of message `m`: M::kType and m's fields in list order.
template <class M>
Frame encode(const M& m) {
  Writer w;
  io::writeFields(w, m);
  return {M::kType, std::move(w.buf)};
}

/// The M in frame `f`. Throws svc::Error when `f` is not an M::kType
/// frame, when its payload is not exactly M's fields, and when M's check()
/// refuses the values.
template <class M>
M decode(const Frame& f) {
  checkFrameType(f, M::kType);
  Reader r(f.payload);
  M m;
  io::readFields(r, m);
  if constexpr (requires { m.check(); }) m.check();
  return m;
}

}  // namespace bfvr::svc

// Framed binary wire protocol of the reachability service (bfv_serve /
// bfv_client): compact, self-described, length-prefixed frames. Frames are
// written and read through the one byte codec of io/bytes.hpp, which the
// job journal and the checkpoints use too.
//
// Frame layout: the codec's 16-byte record header (all integers
// little-endian) with this format's magic and version:
//
//   offset size  field
//   0      4     magic "BFVS"
//   4      1     protocol version (kWireVersion)
//   5      1     frame type (FrameType)
//   6      2     reserved, must be 0
//   8      4     payload byte count (<= kMaxFramePayload)
//   12     4     CRC-32 (IEEE 802.3) of the payload bytes
//   16     ...   payload
//
// Every malformed input — bad magic, unknown version, oversized length
// prefix, CRC mismatch, truncated payload, short read mid-frame — is a
// svc::Error, never undefined behaviour and never a crash: the payload
// reader is the codec's bounds-checked cursor, which checks every length
// and count against the bytes left before anything is sized by it. Frame
// payloads are typed per FrameType (see protocol.hpp): each message's one
// field list, walked by the codec's field walker both ways. A frame is
// self-described by its (version, type) pair plus that list, so either
// end can skip or reject frames it does not know.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/bytes.hpp"

namespace bfvr::svc {

/// Thrown on any protocol failure: malformed frame, CRC mismatch, version
/// skew, oversized payload, short read/write, or a broken connection.
struct Error : std::runtime_error {
  using std::runtime_error::runtime_error;
  static constexpr const char* kFormat = "wire";  ///< Reader messages
};

/// Protocol revision. v2 added observability: Accepted carries the
/// server-assigned span trace id, and Stats carries a flags word selecting
/// which live sections (metrics / spans / flight ring) the reply embeds.
/// v3 added durability: Submit carries a client-chosen idempotency key so
/// a retried submission after a crash or disconnect can be deduplicated
/// against the server's job journal instead of executing twice.
inline constexpr std::uint8_t kWireVersion = 3;
inline constexpr std::size_t kFrameHeaderBytes = io::kRecordHeaderBytes;
/// Hard ceiling on one frame's payload: the codec's record cap.
inline constexpr std::uint32_t kMaxFramePayload = io::kMaxRecordPayload;

/// Frame types. Client->server frames are marked (c), server->client (s);
/// a few flow both ways.
enum class FrameType : std::uint8_t {
  kHello = 1,        ///< (c) tenant name + protocol version
  kHelloAck = 2,     ///< (s) session id + server tag
  kSubmit = 3,       ///< (c) one manifest-format job line
  kAccepted = 4,     ///< (s) job admitted: client tag -> server job id
  kRejected = 5,     ///< (s) job refused by admission control
  kJobStarted = 6,   ///< (s) job dispatched to a worker
  kIteration = 7,    ///< (s) one live frontier-iteration record
  kJobEvicted = 8,   ///< (s) job suspended via checkpoint, requeued
  kJobDone = 9,      ///< (s) final result of a job
  kCancel = 10,      ///< (c) cancel a queued or running job
  kEvict = 11,       ///< (c) suspend a running job to its checkpoint
  kStats = 12,       ///< (c) request the server metrics report
  kStatsReply = 13,  ///< (s) the report, as one JSON document
  kShutdown = 14,    ///< (c) stop the server (drain or immediate)
  kBye = 15,         ///< (c/s) orderly end of session
  kError = 16,       ///< (s) protocol-level error report
};

/// One decoded frame: type plus raw payload bytes.
struct Frame {
  FrameType type = FrameType::kError;
  std::vector<std::uint8_t> payload;
};

/// Payload codec: the io/bytes.hpp builder and cursor, failing with
/// svc::Error ("wire: ...").
using Writer = io::Writer;
using Reader = io::Reader<Error>;

/// Serialize a frame: header (magic, version, type, length, CRC) + payload.
/// Throws svc::Error when the payload exceeds kMaxFramePayload.
std::vector<std::uint8_t> encodeFrame(const Frame& f);

/// Parse and validate the 16-byte frame header. Returns the payload length
/// and writes the type/expected CRC through the out-params. Throws
/// svc::Error on bad magic, version skew, nonzero reserved bits or an
/// oversized length prefix.
std::uint32_t decodeFrameHeader(const std::uint8_t header[kFrameHeaderBytes],
                                FrameType* type, std::uint32_t* crc);

/// Verify a received payload against the header's CRC. Throws svc::Error
/// on mismatch.
void checkPayloadCrc(const std::uint8_t* payload, std::size_t n,
                     std::uint32_t want);

const char* to_string(FrameType t) noexcept;

}  // namespace bfvr::svc

#include "svc/wire.hpp"

namespace bfvr::svc {

constexpr std::uint32_t kWireMagic = 0x53564642u;  // "BFVS" little-endian

std::vector<std::uint8_t> encodeFrame(const Frame& f) {
  if (f.payload.size() > kMaxFramePayload) {
    throw Error("wire: frame payload exceeds the " +
                std::to_string(kMaxFramePayload) + "-byte cap");
  }
  return io::encodeRecord(kWireMagic, kWireVersion,
                          static_cast<std::uint8_t>(f.type), f.payload);
}

std::uint32_t decodeFrameHeader(const std::uint8_t header[kFrameHeaderBytes],
                                FrameType* type, std::uint32_t* crc) {
  io::RecordHeader h;
  switch (io::decodeRecordHeader(header, kWireMagic, kWireVersion, &h)) {
    case io::HeaderFault::kNone:
      break;
    case io::HeaderFault::kMagic:
      throw Error("wire: bad frame magic (not a BFVS stream)");
    case io::HeaderFault::kVersion:
      throw Error("wire: protocol version " + std::to_string(h.version) +
                  " (this build speaks " + std::to_string(kWireVersion) + ")");
    case io::HeaderFault::kReserved:
      throw Error("wire: nonzero reserved header bits");
    case io::HeaderFault::kLength:
      throw Error("wire: oversized length prefix (" +
                  std::to_string(h.length) + " bytes)");
  }
  *type = static_cast<FrameType>(h.type);
  *crc = h.crc;
  return h.length;
}

void checkPayloadCrc(const std::uint8_t* payload, std::size_t n,
                     std::uint32_t want) {
  if (io::crc32(payload, n) != want) {
    throw Error("wire: payload CRC mismatch (frame corrupted in transit)");
  }
}

const char* to_string(FrameType t) noexcept {
  switch (t) {
    case FrameType::kHello:
      return "hello";
    case FrameType::kHelloAck:
      return "hello-ack";
    case FrameType::kSubmit:
      return "submit";
    case FrameType::kAccepted:
      return "accepted";
    case FrameType::kRejected:
      return "rejected";
    case FrameType::kJobStarted:
      return "job-started";
    case FrameType::kIteration:
      return "iteration";
    case FrameType::kJobEvicted:
      return "job-evicted";
    case FrameType::kJobDone:
      return "job-done";
    case FrameType::kCancel:
      return "cancel";
    case FrameType::kEvict:
      return "evict";
    case FrameType::kStats:
      return "stats";
    case FrameType::kStatsReply:
      return "stats-reply";
    case FrameType::kShutdown:
      return "shutdown";
    case FrameType::kBye:
      return "bye";
    case FrameType::kError:
      return "error";
  }
  return "?";
}

}  // namespace bfvr::svc

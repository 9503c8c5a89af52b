#include "io/bytes.hpp"

#include <array>
#include <stdexcept>
#include <utility>

namespace bfvr::io {

namespace {

/// The error type of the record-header cursor, which is never thrown: the
/// caller of decodeRecordHeader hands it all kRecordHeaderBytes bytes.
struct HeaderError : std::runtime_error {
  using std::runtime_error::runtime_error;
  static constexpr const char* kFormat = "record header";
};

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t n,
                    std::uint32_t seed) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = seed ^ 0xFFFFFFFFU;
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFU] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFU;
}

std::vector<std::uint8_t> encodeRecord(
    std::uint32_t magic, std::uint8_t version, std::uint8_t type,
    const std::vector<std::uint8_t>& payload) {
  Writer w;
  w.buf.reserve(kRecordHeaderBytes + payload.size());
  w.u32(magic);
  w.u8(version);
  w.u8(type);
  w.u8(0);  // reserved
  w.u8(0);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(crc32(payload.data(), payload.size()));
  w.raw(payload.data(), payload.size());
  return std::move(w.buf);
}

HeaderFault decodeRecordHeader(const std::uint8_t* p, std::uint32_t magic,
                               std::uint8_t version, RecordHeader* h) {
  Reader<HeaderError> r(p, kRecordHeaderBytes);
  const std::uint32_t got_magic = r.u32();
  h->version = r.u8();
  h->type = r.u8();
  const std::uint8_t reserved_lo = r.u8();
  const std::uint8_t reserved_hi = r.u8();
  h->length = r.u32();
  h->crc = r.u32();
  if (got_magic != magic) return HeaderFault::kMagic;
  if (h->version != version) return HeaderFault::kVersion;
  if (reserved_lo != 0 || reserved_hi != 0) return HeaderFault::kReserved;
  if (h->length > kMaxRecordPayload) return HeaderFault::kLength;
  return HeaderFault::kNone;
}

}  // namespace bfvr::io

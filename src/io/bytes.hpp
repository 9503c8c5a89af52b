// The one byte codec under every binary format of the repository: the
// service's wire frames (svc/wire.hpp), its job journal (svc/journal.hpp)
// and the reachability checkpoints (io/checkpoint.hpp). It holds the
// CRC-32, the little-endian Writer/Reader, the field walker that encodes
// and decodes a record from its one field list (the wire messages and the
// journal record), and the 16-byte record header that wire frames and
// journal records share.
//
// Rules every format built on it keeps:
//   - integers are little-endian, doubles travel as their IEEE-754 bits,
//     strings as a u32 byte count and the bytes;
//   - a Reader never reads past its end, and every malformed input is the
//     format's own error type (the Reader's template argument), never
//     undefined behaviour;
//   - a count read from the input is checked against the bytes left
//     (count <= bytes left / encoded item size) before anything is sized
//     by it, so a forged count cannot drive an allocation.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

namespace bfvr::io {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320). `seed` chains a
/// running CRC across buffers: crc32(b + k, n - k, crc32(b, k)) equals
/// crc32(b, n).
std::uint32_t crc32(const std::uint8_t* data, std::size_t n,
                    std::uint32_t seed = 0);

/// Append-only little-endian builder.
struct Writer {
  std::vector<std::uint8_t> buf;

  void u8(std::uint8_t v) { buf.push_back(v); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf.insert(buf.end(), b, b + n);
  }
  /// Length-prefixed (u32) byte string.
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf.insert(buf.end(), s.begin(), s.end());
  }

 private:
  void le(std::uint64_t v, unsigned bytes) {
    for (unsigned i = 0; i < bytes; ++i) {
      buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
};

/// Bounds-checked little-endian cursor over `size` bytes. Every failure
/// throws `Error`, the format's exception type, whose `kFormat` names the
/// format in the message ("wire: truncated payload").
template <class Error>
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) : p_(data), n_(size) {}
  explicit Reader(const std::vector<std::uint8_t>& b)
      : Reader(b.data(), b.size()) {}

  std::size_t left() const noexcept { return n_ - pos_; }

  std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  double f64() { return std::bit_cast<double>(u64()); }
  /// The next `k` bytes, in place.
  const std::uint8_t* raw(std::size_t k) {
    need(k);
    const std::uint8_t* at = p_ + pos_;
    pos_ += k;
    return at;
  }
  /// Length-prefixed (u32) byte string.
  std::string str() {
    const std::uint32_t len = u32();
    return std::string(reinterpret_cast<const char*>(raw(len)), len);
  }
  /// A count of `items` items of `item_bytes` encoded bytes each, checked
  /// against the bytes left before the caller sizes anything by it.
  std::size_t count(std::uint64_t items, std::size_t item_bytes) const {
    if (items > left() / item_bytes) {
      fail("count " + std::to_string(items) + " exceeds the bytes left");
    }
    return static_cast<std::size_t>(items);
  }
  /// A payload must be consumed exactly; trailing bytes mean the two ends
  /// disagree about its layout.
  void done() const {
    if (left() != 0) fail("trailing bytes in payload");
  }
  /// Throw the format's error: "<kFormat>: <what>".
  [[noreturn]] static void fail(const std::string& what) {
    throw Error(std::string(Error::kFormat) + ": " + what);
  }

 private:
  void need(std::size_t k) const {
    if (left() < k) fail("truncated payload");
  }
  std::uint64_t le(unsigned bytes) {
    need(bytes);
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i) {
      v |= std::uint64_t{p_[pos_++]} << (8 * i);
    }
    return v;
  }

  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Field walker. A record names its payload fields once, in their byte
// order:
//
//   static auto fields(auto& m) { return std::tie(m.a, m.b, ...); }
//
// and writeFields / readFields walk that one list both ways. Each field's
// type picks its encoding: std::uint8_t and bool one byte each (a bool
// byte above 1 is the format's error), std::uint32_t, std::uint64_t,
// double and std::string as the Writer writes them. A field of any other
// type does not compile.
// ---------------------------------------------------------------------------

template <class T>
void put(Writer& w, const T& v) = delete;
inline void put(Writer& w, std::uint8_t v) { w.u8(v); }
inline void put(Writer& w, bool v) { w.u8(v ? 1 : 0); }
inline void put(Writer& w, std::uint32_t v) { w.u32(v); }
inline void put(Writer& w, std::uint64_t v) { w.u64(v); }
inline void put(Writer& w, double v) { w.f64(v); }
inline void put(Writer& w, const std::string& v) { w.str(v); }

template <class E>
void get(Reader<E>& r, std::uint8_t& v) { v = r.u8(); }
template <class E>
void get(Reader<E>& r, bool& v) {
  const std::uint8_t b = r.u8();
  if (b > 1) r.fail("boolean field out of range");
  v = b != 0;
}
template <class E>
void get(Reader<E>& r, std::uint32_t& v) { v = r.u32(); }
template <class E>
void get(Reader<E>& r, std::uint64_t& v) { v = r.u64(); }
template <class E>
void get(Reader<E>& r, double& v) { v = r.f64(); }
template <class E>
void get(Reader<E>& r, std::string& v) { v = r.str(); }

/// Append `m`'s fields in list order.
template <class Rec>
void writeFields(Writer& w, const Rec& m) {
  std::apply([&w](const auto&... f) { (put(w, f), ...); }, Rec::fields(m));
}

/// Read `m`'s fields in list order; the payload must end with the last
/// one (Reader::done).
template <class Rec, class E>
void readFields(Reader<E>& r, Rec& m) {
  std::apply([&r](auto&... f) { (get(r, f), ...); }, Rec::fields(m));
  r.done();
}

// ---------------------------------------------------------------------------
// Record header of wire frames and journal records (all integers
// little-endian):
//
//   offset size  field
//   0      4     magic (the format's)
//   4      1     format version (the format's)
//   5      1     record type
//   6      2     reserved, must be 0
//   8      4     payload byte count (<= kMaxRecordPayload)
//   12     4     CRC-32 of the payload bytes
//   16     ...   payload
// ---------------------------------------------------------------------------

inline constexpr std::size_t kRecordHeaderBytes = 16;
/// Ceiling on one record's payload: large enough for any checkpoint image
/// the shipped workloads produce, small enough that a corrupted (or
/// hostile) length prefix cannot drive an allocation bomb.
inline constexpr std::uint32_t kMaxRecordPayload = 64u << 20;

struct RecordHeader {
  std::uint8_t version = 0;
  std::uint8_t type = 0;
  std::uint32_t length = 0;  ///< payload byte count
  std::uint32_t crc = 0;     ///< CRC-32 of the payload
};

/// What is wrong with a record header, if anything. Each format turns a
/// fault into its own verdict: the wire throws, the journal ends its valid
/// prefix.
enum class HeaderFault { kNone, kMagic, kVersion, kReserved, kLength };

/// The header for `payload` followed by the payload. The caller keeps
/// `payload` within kMaxRecordPayload.
std::vector<std::uint8_t> encodeRecord(
    std::uint32_t magic, std::uint8_t version, std::uint8_t type,
    const std::vector<std::uint8_t>& payload);

/// Parse the kRecordHeaderBytes header at `p` into `*h` and check its
/// magic and version against the format's, its reserved bytes and its
/// length against kMaxRecordPayload, in that order.
HeaderFault decodeRecordHeader(const std::uint8_t* p, std::uint32_t magic,
                               std::uint8_t version, RecordHeader* h);

}  // namespace bfvr::io

// The service wire protocol (src/svc): frame encode/decode round-trips for
// every message type, and the adversarial paths — truncated frames, bad
// magic, version skew, corrupted payloads (CRC), oversized length prefixes
// and mid-stream disconnects — all of which must surface as clean
// svc::Error, never a crash, hang or misparse.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <iterator>
#include <thread>
#include <tuple>
#include <type_traits>

#include "support/hex.hpp"
#include "svc/protocol.hpp"
#include "svc/socket.hpp"
#include "svc/wire.hpp"

namespace bfvr::svc {
namespace {

/// Encode + header-decode + CRC-check + payload-decode round trip, the way
/// recvFrame reassembles a frame off the stream.
Frame roundTrip(const Frame& f) {
  const std::vector<std::uint8_t> bytes = encodeFrame(f);
  EXPECT_GE(bytes.size(), kFrameHeaderBytes);
  Frame out;
  std::uint32_t crc = 0;
  const std::uint32_t len = decodeFrameHeader(bytes.data(), &out.type, &crc);
  EXPECT_EQ(len, bytes.size() - kFrameHeaderBytes);
  out.payload.assign(bytes.begin() + kFrameHeaderBytes, bytes.end());
  checkPayloadCrc(out.payload.data(), out.payload.size(), crc);
  return out;
}

TEST(SvcWire, HelloRoundTrip) {
  Hello h;
  h.tenant = "alpha";
  const Hello back = decode<Hello>(roundTrip(encode(h)));
  EXPECT_EQ(back.tenant, "alpha");
  EXPECT_EQ(back.proto, kWireVersion);
}

TEST(SvcWire, SubmitRoundTrip) {
  Submit s;
  s.tag = 42;
  s.line = "circuit=gen:counter:4:10 engine=bfv deadline=5";
  const Submit back = decode<Submit>(roundTrip(encode(s)));
  EXPECT_EQ(back.tag, 42u);
  EXPECT_EQ(back.line, s.line);
}

TEST(SvcWire, JobDoneRoundTrip) {
  JobDone d;
  d.job = 7;
  d.status = "done";
  d.message = "";
  d.seconds = 1.25;
  d.queue_seconds = 0.5;
  d.worker = 3;
  d.iterations = 201;
  d.states = 200.0;
  d.peak_live_nodes = 12345;
  d.attempts = 2;
  d.evictions = 1;
  d.resumed = true;
  const JobDone back = decode<JobDone>(roundTrip(encode(d)));
  EXPECT_EQ(back.job, 7u);
  EXPECT_EQ(back.status, "done");
  EXPECT_DOUBLE_EQ(back.seconds, 1.25);
  EXPECT_DOUBLE_EQ(back.states, 200.0);
  EXPECT_EQ(back.worker, 3u);
  EXPECT_EQ(back.iterations, 201u);
  EXPECT_EQ(back.peak_live_nodes, 12345u);
  EXPECT_EQ(back.attempts, 2u);
  EXPECT_EQ(back.evictions, 1u);
  EXPECT_TRUE(back.resumed);
}

TEST(SvcWire, EveryMessageTypeRoundTrips) {
  EXPECT_EQ(decode<HelloAck>(roundTrip(encode(HelloAck{9, "srv"}))).session,
            9u);
  EXPECT_EQ(decode<Accepted>(roundTrip(encode(Accepted{1, 2}))).job, 2u);
  EXPECT_EQ(decode<Rejected>(roundTrip(encode(Rejected{3, "no"}))).reason,
            "no");
  {
    JobStarted m;
    m.job = 4;
    m.resumed = true;
    const JobStarted back = decode<JobStarted>(roundTrip(encode(m)));
    EXPECT_EQ(back.job, 4u);
    EXPECT_TRUE(back.resumed);
  }
  {
    IterationUpdate m;
    m.job = 5;
    m.iteration = 17;
    m.frontier_states = 96.0;
    const IterationUpdate back =
        decode<IterationUpdate>(roundTrip(encode(m)));
    EXPECT_EQ(back.iteration, 17u);
    EXPECT_DOUBLE_EQ(back.frontier_states, 96.0);
  }
  {
    JobEvicted m;
    m.job = 6;
    m.iteration = 8;
    m.worker = 2;
    const JobEvicted back = decode<JobEvicted>(roundTrip(encode(m)));
    EXPECT_EQ(back.iteration, 8u);
    EXPECT_EQ(back.worker, 2u);
  }
  EXPECT_EQ(decode<Cancel>(roundTrip(encode(Cancel{11}))).job, 11u);
  EXPECT_EQ(decode<Evict>(roundTrip(encode(Evict{12}))).job, 12u);
  (void)decode<StatsQuery>(roundTrip(encode(StatsQuery{})));
  EXPECT_EQ(decode<StatsReply>(roundTrip(encode(StatsReply{"{}"}))).json,
            "{}");
  EXPECT_FALSE(decode<Shutdown>(roundTrip(encode(Shutdown{false}))).drain);
  (void)decode<Bye>(roundTrip(encode(Bye{})));
  EXPECT_EQ(decode<WireError>(roundTrip(encode(WireError{"boom"}))).message,
            "boom");
}

TEST(SvcWire, AcceptedCarriesTheTraceId) {
  Accepted a;
  a.tag = 3;
  a.job = 9;
  a.trace = 0xDEADBEEFCAFEULL;
  const Accepted back = decode<Accepted>(roundTrip(encode(a)));
  EXPECT_EQ(back.tag, 3u);
  EXPECT_EQ(back.job, 9u);
  EXPECT_EQ(back.trace, 0xDEADBEEFCAFEULL);
}

TEST(SvcWire, StatsQueryFlagsRoundTrip) {
  for (const std::uint32_t flags :
       {std::uint32_t{0}, StatsQuery::kIncludeMetrics,
        StatsQuery::kIncludeSpans, StatsQuery::kIncludeFlight,
        StatsQuery::kAllSections}) {
    StatsQuery q;
    q.flags = flags;
    EXPECT_EQ(decode<StatsQuery>(roundTrip(encode(q))).flags, flags);
  }
}

TEST(SvcWire, StatsQueryUnknownSectionFlagsRejected) {
  // Forward-compat guard: a client asking for a section this server does
  // not know must get a protocol error, not a silently-wrong reply.
  StatsQuery q;
  q.flags = StatsQuery::kAllSections;
  Frame f = encode(q);
  f.payload[0] |= 0x80;  // set a flag bit beyond kAllSections
  EXPECT_THROW(decode<StatsQuery>(f), Error);
}

TEST(SvcWire, TruncatedStatsQueryPayloadRejected) {
  Frame f = encode(StatsQuery{});
  ASSERT_FALSE(f.payload.empty());
  f.payload.pop_back();
  EXPECT_THROW(decode<StatsQuery>(f), Error);
}

TEST(SvcWire, CorruptedStatsReplyCrcMismatch) {
  StatsReply reply;
  reply.json = "{\"queue_depth\": 3}";
  std::vector<std::uint8_t> bytes = encodeFrame(encode(reply));
  bytes[kFrameHeaderBytes + 2] ^= 0x10;
  FrameType t;
  std::uint32_t crc;
  const std::uint32_t len = decodeFrameHeader(bytes.data(), &t, &crc);
  EXPECT_THROW(
      checkPayloadCrc(bytes.data() + kFrameHeaderBytes, len, crc), Error);
}

TEST(SvcWire, DecodeRejectsWrongFrameType) {
  const Frame f = encode(Cancel{1});
  EXPECT_THROW(decode<Evict>(f), Error);
}

TEST(SvcWire, BadMagicRejected) {
  std::vector<std::uint8_t> bytes = encodeFrame(encode(Bye{}));
  bytes[0] ^= 0xFF;
  FrameType t;
  std::uint32_t crc;
  EXPECT_THROW(decodeFrameHeader(bytes.data(), &t, &crc), Error);
}

TEST(SvcWire, VersionSkewRejected) {
  std::vector<std::uint8_t> bytes = encodeFrame(encode(Bye{}));
  bytes[4] = kWireVersion + 1;
  FrameType t;
  std::uint32_t crc;
  EXPECT_THROW(decodeFrameHeader(bytes.data(), &t, &crc), Error);
}

TEST(SvcWire, ReservedBitsRejected) {
  std::vector<std::uint8_t> bytes = encodeFrame(encode(Bye{}));
  bytes[6] = 1;
  FrameType t;
  std::uint32_t crc;
  EXPECT_THROW(decodeFrameHeader(bytes.data(), &t, &crc), Error);
}

TEST(SvcWire, OversizedLengthPrefixRejected) {
  // A corrupted (or hostile) length prefix must be rejected from the
  // header alone — before any allocation happens.
  std::vector<std::uint8_t> bytes = encodeFrame(encode(Bye{}));
  const std::uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(bytes.data() + 8, &huge, 4);
  FrameType t;
  std::uint32_t crc;
  EXPECT_THROW(decodeFrameHeader(bytes.data(), &t, &crc), Error);
}

TEST(SvcWire, CorruptedPayloadCrcMismatch) {
  Submit s;
  s.tag = 1;
  s.line = "circuit=gen:counter:4:10";
  std::vector<std::uint8_t> bytes = encodeFrame(encode(s));
  bytes[kFrameHeaderBytes + 3] ^= 0x40;  // flip one payload bit
  FrameType t;
  std::uint32_t crc;
  const std::uint32_t len = decodeFrameHeader(bytes.data(), &t, &crc);
  EXPECT_THROW(
      checkPayloadCrc(bytes.data() + kFrameHeaderBytes, len, crc), Error);
}

TEST(SvcWire, EncodeRejectsOversizedPayload) {
  Frame f;
  f.type = FrameType::kSubmit;
  f.payload.resize(kMaxFramePayload + 1);
  EXPECT_THROW(encodeFrame(f), Error);
}

TEST(SvcWire, ReaderRejectsTruncationAndTrailingBytes) {
  Writer w;
  w.u64(7);
  w.str("abc");
  {
    // Truncated: drop the string's last byte.
    std::vector<std::uint8_t> cut(w.buf.begin(), w.buf.end() - 1);
    Reader r(cut);
    EXPECT_EQ(r.u64(), 7u);
    EXPECT_THROW(r.str(), Error);
  }
  {
    // Trailing: a reader that does not consume everything must fail done().
    Reader r(w.buf);
    EXPECT_EQ(r.u64(), 7u);
    EXPECT_THROW(r.done(), Error);
  }
}

TEST(SvcWire, ReaderLengthPrefixBeyondPayloadRejected) {
  // A string whose length prefix points past the payload end must not read
  // out of bounds.
  Writer w;
  w.u32(1000);  // claims 1000 bytes follow
  w.u8('x');    // only 1 does
  Reader r(w.buf);
  EXPECT_THROW(r.str(), Error);
}

// --- stream-level robustness over a real socketpair ---------------------

struct Pair {
  Fd a, b;
  Pair() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    a = Fd(fds[0]);
    b = Fd(fds[1]);
  }
};

TEST(SvcWire, SendRecvAcrossSocket) {
  Pair p;
  Submit s;
  s.tag = 5;
  s.line = "circuit=gen:johnson:8";
  sendFrame(p.a, encode(s));
  std::optional<Frame> got = recvFrame(p.b);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(decode<Submit>(*got).line, s.line);
}

TEST(SvcWire, CleanEofAtFrameBoundaryIsNotAnError) {
  Pair p;
  sendFrame(p.a, encode(Bye{}));
  p.a.close();
  EXPECT_TRUE(recvFrame(p.b).has_value());   // the Bye
  EXPECT_FALSE(recvFrame(p.b).has_value());  // then orderly EOF
}

TEST(SvcWire, DisconnectMidHeaderIsAnError) {
  Pair p;
  const std::vector<std::uint8_t> bytes = encodeFrame(encode(Bye{}));
  ASSERT_EQ(::send(p.a.get(), bytes.data(), 7, 0), 7);  // header cut short
  p.a.close();
  EXPECT_THROW(recvFrame(p.b), Error);
}

TEST(SvcWire, DisconnectMidPayloadIsAnError) {
  Pair p;
  Submit s;
  s.tag = 1;
  s.line = "circuit=gen:counter:4:10";
  const std::vector<std::uint8_t> bytes = encodeFrame(encode(s));
  const std::size_t cut = kFrameHeaderBytes + 5;  // header + partial payload
  ASSERT_EQ(::send(p.a.get(), bytes.data(), cut, 0),
            static_cast<ssize_t>(cut));
  p.a.close();
  EXPECT_THROW(recvFrame(p.b), Error);
}

TEST(SvcWire, GarbageBytesAreAnErrorNotACrash) {
  Pair p;
  std::vector<std::uint8_t> junk(64);
  for (std::size_t i = 0; i < junk.size(); ++i) {
    junk[i] = static_cast<std::uint8_t>(0xA5 ^ (i * 31));
  }
  ASSERT_EQ(::send(p.a.get(), junk.data(), junk.size(), 0),
            static_cast<ssize_t>(junk.size()));
  EXPECT_THROW(recvFrame(p.b), Error);
}

TEST(SvcWire, EndpointParse) {
  const Endpoint u = Endpoint::parse("unix:/tmp/x.sock");
  EXPECT_TRUE(u.is_unix);
  EXPECT_EQ(u.path, "/tmp/x.sock");
  const Endpoint t = Endpoint::parse("tcp:localhost:9000");
  EXPECT_FALSE(t.is_unix);
  EXPECT_EQ(t.host, "localhost");
  EXPECT_EQ(t.port, 9000);
  EXPECT_THROW(Endpoint::parse("ftp:nope"), Error);
  EXPECT_THROW(Endpoint::parse("unix:"), Error);
  EXPECT_THROW(Endpoint::parse("tcp:host:notaport"), Error);
  EXPECT_THROW(Endpoint::parse("tcp:host:70000"), Error);
}

// --- golden bytes --------------------------------------------------------

/// Decode a frame as message M and encode it again.
template <class M>
Frame reencode(const Frame& f) {
  return encode(decode<M>(f));
}

/// One frame of every FrameType, in type order, with its committed bytes.
struct GoldenFrame {
  Frame frame;
  Frame (*reencode)(const Frame&);
  const char* hex;
};

std::vector<GoldenFrame> goldenFrames() {
  IterationUpdate iter;
  iter.job = 5;
  iter.iteration = 17;
  iter.frontier_nodes = 33;
  iter.live_nodes = 1234;
  iter.peak_nodes = 2345;
  iter.frontier_states = 96.0;
  JobDone done;
  done.job = 7;
  done.status = "done";
  done.seconds = 1.25;
  done.queue_seconds = 0.5;
  done.worker = 3;
  done.iterations = 201;
  done.states = 200.0;
  done.peak_live_nodes = 12345;
  done.attempts = 2;
  done.evictions = 1;
  done.resumed = true;
  return {
      {encode(Hello{"alpha", kWireVersion}), reencode<Hello>,
       "42465653030100000a000000d9d4dd52"
       "05000000616c70686103"},
      {encode(HelloAck{0x0102030405060708u, "srv"}), reencode<HelloAck>,
       "42465653030200000f0000001d2e533f"
       "080706050403020103000000737276"},
      {encode(Submit{42, "circuit=gen:counter:4:10 engine=bfv", "key-1"}),
       reencode<Submit>,
       "424656530303000038000000624653d7"
       "2a0000000000000023000000636972637569743d67656e3a636f756e7465723a"
       "343a313020656e67696e653d626676050000006b65792d31"},
      {encode(Accepted{3, 9, 0xDEADBEEFCAFEu}), reencode<Accepted>,
       "424656530304000018000000ab6ddbd4"
       "03000000000000000900000000000000fecaefbeadde0000"},
      {encode(Rejected{4, "queue full"}), reencode<Rejected>,
       "424656530305000016000000457b98fb"
       "04000000000000000a00000071756575652066756c6c"},
      {encode(JobStarted{5, true}), reencode<JobStarted>,
       "424656530306000009000000776199db"
       "050000000000000001"},
      {encode(iter), reencode<IterationUpdate>,
       "424656530307000030000000864cd4dc"
       "050000000000000011000000000000002100000000000000d204000000000000"
       "29090000000000000000000000005840"},
      {encode(JobEvicted{6, 8, 2}), reencode<JobEvicted>,
       "4246565303080000140000002db8f327"
       "0600000000000000080000000000000002000000"},
      {encode(done), reencode<JobDone>,
       "42465653030900004900000006ca522c"
       "070000000000000004000000646f6e6500000000000000000000f43f00000000"
       "0000e03f03000000c90000000000000000000000000069403930000000000000"
       "020000000100000001"},
      {encode(Cancel{11}), reencode<Cancel>,
       "42465653030a0000080000003fc34838"
       "0b00000000000000"},
      {encode(Evict{12}), reencode<Evict>,
       "42465653030b00000800000026ca8d32"
       "0c00000000000000"},
      {encode(StatsQuery{StatsQuery::kAllSections}), reencode<StatsQuery>,
       "42465653030c000004000000a5e793bc"
       "07000000"},
      {encode(StatsReply{"{}"}), reencode<StatsReply>,
       "42465653030d00000600000014ad751e"
       "020000007b7d"},
      {encode(Shutdown{false}), reencode<Shutdown>,
       "42465653030e0000010000008def02d2"
       "00"},
      {encode(Bye{}), reencode<Bye>,
       "42465653030f00000000000000000000"},
      {encode(WireError{"boom"}), reencode<WireError>,
       "4246565303100000080000008b08aae2"
       "04000000626f6f6d"},
  };
}

TEST(GoldenBytes, OneWireFramePerType) {
  // One frame of every FrameType, as the bytes a peer receives: the 16-byte
  // header (magic "BFVS", version, type, two reserved bytes, payload length,
  // payload CRC-32) and then the payload. Each golden string decodes back to
  // its message, which encodes to the same bytes.
  const std::vector<GoldenFrame> cases = goldenFrames();
  ASSERT_EQ(std::size(cases), 16u);  // every FrameType, kHello..kError
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const GoldenFrame& c = cases[i];
    SCOPED_TRACE(to_string(c.frame.type));
    EXPECT_EQ(static_cast<std::size_t>(c.frame.type), i + 1);
    EXPECT_EQ(test::hex(encodeFrame(c.frame)), c.hex);

    const std::vector<std::uint8_t> bytes = test::unhex(c.hex);
    ASSERT_GE(bytes.size(), kFrameHeaderBytes);
    Frame back;
    std::uint32_t crc = 0;
    const std::uint32_t len = decodeFrameHeader(bytes.data(), &back.type, &crc);
    ASSERT_EQ(kFrameHeaderBytes + len, bytes.size());
    back.payload.assign(bytes.begin() + kFrameHeaderBytes, bytes.end());
    checkPayloadCrc(back.payload.data(), back.payload.size(), crc);
    EXPECT_EQ(back.type, c.frame.type);
    EXPECT_EQ(test::hex(encodeFrame(c.reencode(back))), c.hex);
  }
}

/// Every message type, in FrameType order.
template <class... M>
struct Messages {};
using AllMessages =
    Messages<Hello, HelloAck, Submit, Accepted, Rejected, JobStarted,
             IterationUpdate, JobEvicted, JobDone, Cancel, Evict, StatsQuery,
             StatsReply, Shutdown, Bye, WireError>;

/// fn(std::type_identity<M>{}) for every message type M.
template <class... M, class Fn>
void forEachMessage(Messages<M...>, Fn fn) {
  (fn(std::type_identity<M>{}), ...);
}

/// Payload offsets of the bool fields in the encoding of `m`.
template <class M>
std::vector<std::size_t> boolOffsets(const M& m) {
  std::vector<std::size_t> at;
  Writer w;
  std::apply(
      [&](const auto&... field) {
        ((std::is_same_v<std::decay_t<decltype(field)>, bool>
              ? at.push_back(w.buf.size())
              : void(),
          io::put(w, field)),
         ...);
      },
      M::fields(m));
  return at;
}

TEST(SvcWire, EveryMessageRejectsShortLongAndOutOfRangePayloads) {
  // Each golden frame's payload one byte short or one byte long, any of
  // its bool bytes set to 2, and the frame decoded as any other message
  // type: each is an svc::Error, because decode reads the message's one
  // field list exactly.
  const std::vector<GoldenFrame> golden = goldenFrames();
  std::size_t bools = 0;
  forEachMessage(AllMessages{}, [&](auto type) {
    using M = typename decltype(type)::type;
    SCOPED_TRACE(to_string(M::kType));
    const Frame& f = golden.at(static_cast<std::size_t>(M::kType) - 1).frame;
    ASSERT_EQ(f.type, M::kType);
    if (!f.payload.empty()) {
      Frame shorter = f;
      shorter.payload.pop_back();
      EXPECT_THROW(decode<M>(shorter), Error);
    }
    Frame longer = f;
    longer.payload.push_back(0);
    EXPECT_THROW(decode<M>(longer), Error);
    for (const std::size_t at : boolOffsets(decode<M>(f))) {
      Frame bad = f;
      bad.payload.at(at) = 2;
      EXPECT_THROW(decode<M>(bad), Error);
      bools += 1;
    }
    forEachMessage(AllMessages{}, [&](auto other) {
      using N = typename decltype(other)::type;
      if constexpr (!std::is_same_v<M, N>) {
        EXPECT_THROW(decode<N>(f), Error);
      }
    });
  });
  EXPECT_EQ(bools, 3u);  // JobStarted.resumed, JobDone.resumed, Shutdown.drain
}

}  // namespace
}  // namespace bfvr::svc

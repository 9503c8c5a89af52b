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
  const Hello back = Hello::decode(roundTrip(h.encode()));
  EXPECT_EQ(back.tenant, "alpha");
  EXPECT_EQ(back.proto, kWireVersion);
}

TEST(SvcWire, SubmitRoundTrip) {
  Submit s;
  s.tag = 42;
  s.line = "circuit=gen:counter:4:10 engine=bfv deadline=5";
  const Submit back = Submit::decode(roundTrip(s.encode()));
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
  const JobDone back = JobDone::decode(roundTrip(d.encode()));
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
  EXPECT_EQ(HelloAck::decode(roundTrip(HelloAck{9, "srv"}.encode())).session,
            9u);
  EXPECT_EQ(Accepted::decode(roundTrip(Accepted{1, 2}.encode())).job, 2u);
  EXPECT_EQ(Rejected::decode(roundTrip(Rejected{3, "no"}.encode())).reason,
            "no");
  {
    JobStarted m;
    m.job = 4;
    m.resumed = true;
    const JobStarted back = JobStarted::decode(roundTrip(m.encode()));
    EXPECT_EQ(back.job, 4u);
    EXPECT_TRUE(back.resumed);
  }
  {
    IterationUpdate m;
    m.job = 5;
    m.iteration = 17;
    m.frontier_states = 96.0;
    const IterationUpdate back =
        IterationUpdate::decode(roundTrip(m.encode()));
    EXPECT_EQ(back.iteration, 17u);
    EXPECT_DOUBLE_EQ(back.frontier_states, 96.0);
  }
  {
    JobEvicted m;
    m.job = 6;
    m.iteration = 8;
    m.worker = 2;
    const JobEvicted back = JobEvicted::decode(roundTrip(m.encode()));
    EXPECT_EQ(back.iteration, 8u);
    EXPECT_EQ(back.worker, 2u);
  }
  EXPECT_EQ(Cancel::decode(roundTrip(Cancel{11}.encode())).job, 11u);
  EXPECT_EQ(Evict::decode(roundTrip(Evict{12}.encode())).job, 12u);
  (void)StatsQuery::decode(roundTrip(StatsQuery{}.encode()));
  EXPECT_EQ(StatsReply::decode(roundTrip(StatsReply{"{}"}.encode())).json,
            "{}");
  EXPECT_FALSE(Shutdown::decode(roundTrip(Shutdown{false}.encode())).drain);
  (void)Bye::decode(roundTrip(Bye{}.encode()));
  EXPECT_EQ(WireError::decode(roundTrip(WireError{"boom"}.encode())).message,
            "boom");
}

TEST(SvcWire, AcceptedCarriesTheTraceId) {
  Accepted a;
  a.tag = 3;
  a.job = 9;
  a.trace = 0xDEADBEEFCAFEULL;
  const Accepted back = Accepted::decode(roundTrip(a.encode()));
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
    EXPECT_EQ(StatsQuery::decode(roundTrip(q.encode())).flags, flags);
  }
}

TEST(SvcWire, StatsQueryUnknownSectionFlagsRejected) {
  // Forward-compat guard: a client asking for a section this server does
  // not know must get a protocol error, not a silently-wrong reply.
  StatsQuery q;
  q.flags = StatsQuery::kAllSections;
  Frame f = q.encode();
  f.payload[0] |= 0x80;  // set a flag bit beyond kAllSections
  EXPECT_THROW(StatsQuery::decode(f), Error);
}

TEST(SvcWire, TruncatedStatsQueryPayloadRejected) {
  Frame f = StatsQuery{}.encode();
  ASSERT_FALSE(f.payload.empty());
  f.payload.pop_back();
  EXPECT_THROW(StatsQuery::decode(f), Error);
}

TEST(SvcWire, CorruptedStatsReplyCrcMismatch) {
  StatsReply reply;
  reply.json = "{\"queue_depth\": 3}";
  std::vector<std::uint8_t> bytes = encodeFrame(reply.encode());
  bytes[kFrameHeaderBytes + 2] ^= 0x10;
  FrameType t;
  std::uint32_t crc;
  const std::uint32_t len = decodeFrameHeader(bytes.data(), &t, &crc);
  EXPECT_THROW(
      checkPayloadCrc(bytes.data() + kFrameHeaderBytes, len, crc), Error);
}

TEST(SvcWire, DecodeRejectsWrongFrameType) {
  const Frame f = Cancel{1}.encode();
  EXPECT_THROW(Evict::decode(f), Error);
}

TEST(SvcWire, BadMagicRejected) {
  std::vector<std::uint8_t> bytes = encodeFrame(Bye{}.encode());
  bytes[0] ^= 0xFF;
  FrameType t;
  std::uint32_t crc;
  EXPECT_THROW(decodeFrameHeader(bytes.data(), &t, &crc), Error);
}

TEST(SvcWire, VersionSkewRejected) {
  std::vector<std::uint8_t> bytes = encodeFrame(Bye{}.encode());
  bytes[4] = kWireVersion + 1;
  FrameType t;
  std::uint32_t crc;
  EXPECT_THROW(decodeFrameHeader(bytes.data(), &t, &crc), Error);
}

TEST(SvcWire, ReservedBitsRejected) {
  std::vector<std::uint8_t> bytes = encodeFrame(Bye{}.encode());
  bytes[6] = 1;
  FrameType t;
  std::uint32_t crc;
  EXPECT_THROW(decodeFrameHeader(bytes.data(), &t, &crc), Error);
}

TEST(SvcWire, OversizedLengthPrefixRejected) {
  // A corrupted (or hostile) length prefix must be rejected from the
  // header alone — before any allocation happens.
  std::vector<std::uint8_t> bytes = encodeFrame(Bye{}.encode());
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
  std::vector<std::uint8_t> bytes = encodeFrame(s.encode());
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
  sendFrame(p.a, s.encode());
  std::optional<Frame> got = recvFrame(p.b);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(Submit::decode(*got).line, s.line);
}

TEST(SvcWire, CleanEofAtFrameBoundaryIsNotAnError) {
  Pair p;
  sendFrame(p.a, Bye{}.encode());
  p.a.close();
  EXPECT_TRUE(recvFrame(p.b).has_value());   // the Bye
  EXPECT_FALSE(recvFrame(p.b).has_value());  // then orderly EOF
}

TEST(SvcWire, DisconnectMidHeaderIsAnError) {
  Pair p;
  const std::vector<std::uint8_t> bytes = encodeFrame(Bye{}.encode());
  ASSERT_EQ(::send(p.a.get(), bytes.data(), 7, 0), 7);  // header cut short
  p.a.close();
  EXPECT_THROW(recvFrame(p.b), Error);
}

TEST(SvcWire, DisconnectMidPayloadIsAnError) {
  Pair p;
  Submit s;
  s.tag = 1;
  s.line = "circuit=gen:counter:4:10";
  const std::vector<std::uint8_t> bytes = encodeFrame(s.encode());
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
  return M::decode(f).encode();
}

TEST(GoldenBytes, OneWireFramePerType) {
  // One frame of every FrameType, as the bytes a peer receives: the 16-byte
  // header (magic "BFVS", version, type, two reserved bytes, payload length,
  // payload CRC-32) and then the payload. Each golden string decodes back to
  // its message, which encodes to the same bytes.
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
  struct Case {
    Frame frame;
    Frame (*reencode)(const Frame&);
    const char* hex;
  };
  const Case cases[] = {
      {Hello{"alpha", kWireVersion}.encode(), reencode<Hello>,
       "42465653030100000a000000d9d4dd52"
       "05000000616c70686103"},
      {HelloAck{0x0102030405060708u, "srv"}.encode(), reencode<HelloAck>,
       "42465653030200000f0000001d2e533f"
       "080706050403020103000000737276"},
      {Submit{42, "circuit=gen:counter:4:10 engine=bfv", "key-1"}.encode(),
       reencode<Submit>,
       "424656530303000038000000624653d7"
       "2a0000000000000023000000636972637569743d67656e3a636f756e7465723a"
       "343a313020656e67696e653d626676050000006b65792d31"},
      {Accepted{3, 9, 0xDEADBEEFCAFEu}.encode(), reencode<Accepted>,
       "424656530304000018000000ab6ddbd4"
       "03000000000000000900000000000000fecaefbeadde0000"},
      {Rejected{4, "queue full"}.encode(), reencode<Rejected>,
       "424656530305000016000000457b98fb"
       "04000000000000000a00000071756575652066756c6c"},
      {JobStarted{5, true}.encode(), reencode<JobStarted>,
       "424656530306000009000000776199db"
       "050000000000000001"},
      {iter.encode(), reencode<IterationUpdate>,
       "424656530307000030000000864cd4dc"
       "050000000000000011000000000000002100000000000000d204000000000000"
       "29090000000000000000000000005840"},
      {JobEvicted{6, 8, 2}.encode(), reencode<JobEvicted>,
       "4246565303080000140000002db8f327"
       "0600000000000000080000000000000002000000"},
      {done.encode(), reencode<JobDone>,
       "42465653030900004900000006ca522c"
       "070000000000000004000000646f6e6500000000000000000000f43f00000000"
       "0000e03f03000000c90000000000000000000000000069403930000000000000"
       "020000000100000001"},
      {Cancel{11}.encode(), reencode<Cancel>,
       "42465653030a0000080000003fc34838"
       "0b00000000000000"},
      {Evict{12}.encode(), reencode<Evict>,
       "42465653030b00000800000026ca8d32"
       "0c00000000000000"},
      {StatsQuery{StatsQuery::kAllSections}.encode(), reencode<StatsQuery>,
       "42465653030c000004000000a5e793bc"
       "07000000"},
      {StatsReply{"{}"}.encode(), reencode<StatsReply>,
       "42465653030d00000600000014ad751e"
       "020000007b7d"},
      {Shutdown{false}.encode(), reencode<Shutdown>,
       "42465653030e0000010000008def02d2"
       "00"},
      {Bye{}.encode(), reencode<Bye>,
       "42465653030f00000000000000000000"},
      {WireError{"boom"}.encode(), reencode<WireError>,
       "4246565303100000080000008b08aae2"
       "04000000626f6f6d"},
  };
  ASSERT_EQ(std::size(cases), 16u);  // every FrameType, kHello..kError
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const Case& c = cases[i];
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

}  // namespace
}  // namespace bfvr::svc

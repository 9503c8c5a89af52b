// Checkpoint serialization (src/io) and resumable reachability: byte-level
// format checks (magic/version/CRC/truncation), DAG round trips across
// managers, and the headline guarantee — a run killed mid-fixpoint and
// resumed from its checkpoint in a fresh manager finishes with bit-identical
// states / iterations / status on every shipped .bench circuit and engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "circuit/bench_io.hpp"
#include "circuit/generators.hpp"
#include "io/checkpoint.hpp"
#include "reach/engine.hpp"
#include "support/forge_count.hpp"
#include "support/hex.hpp"
#include "support/process_dir.hpp"

#ifndef BFVR_DATA_DIR
#define BFVR_DATA_DIR "data"
#endif

namespace bfvr::reach {

// gtest prints the parameter into the discovered ctest name, so it must print
// the same on every run: a std::string prints its text (a const char* would
// print its ASLR-dependent address) and an Engine prints its tag.
void PrintTo(Engine e, std::ostream* os) { *os << tag(e); }

}  // namespace bfvr::reach

namespace bfvr::io {
namespace {

using bdd::Bdd;
using bdd::Manager;

std::string tmpPath(const std::string& name) {
  return test::processDir() + "/bfvr_ckpt_" + name;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Crc32, MatchesTheIeeeCheckValue) {
  // The standard check vector for CRC-32/ISO-HDLC.
  const char* s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xCBF43926U);
  EXPECT_EQ(crc32(nullptr, 0), 0U);
}

TEST(Crc32, SeedChains) {
  const char* s = "123456789";
  const auto* b = reinterpret_cast<const std::uint8_t*>(s);
  EXPECT_EQ(crc32(b + 4, 5, crc32(b, 4)), crc32(b, 9));
}

Checkpoint sampleCheckpoint(Manager& m) {
  Checkpoint c;
  c.engine = "tr";
  c.kind = RootKind::kChi;
  c.iteration = 7;
  c.level2var = m.currentOrder();
  const Bdd f = (m.var(0) & m.var(1)) | (~m.var(2) ^ m.var(3));
  const Bdd g = m.var(1) | ~m.var(3);
  c.reached = {f};
  c.frontier = {g};
  return c;
}

TEST(CheckpointFile, RoundTripsAcrossManagers) {
  const std::string path = tmpPath("roundtrip.bin");
  Manager a(4);
  const Checkpoint c = sampleCheckpoint(a);
  save(path, c);

  Manager b(4);
  const Checkpoint d = load(path, b);
  EXPECT_EQ(d.engine, "tr");
  EXPECT_EQ(d.kind, RootKind::kChi);
  EXPECT_EQ(d.iteration, 7U);
  EXPECT_EQ(d.level2var, a.currentOrder());
  ASSERT_EQ(d.reached.size(), 1U);
  ASSERT_EQ(d.frontier.size(), 1U);
  // Semantically identical on every assignment, and node-for-node the same
  // shape (same order, canonical form).
  for (unsigned bits = 0; bits < 16; ++bits) {
    std::vector<bool> v(4);
    for (unsigned i = 0; i < 4; ++i) v[i] = ((bits >> i) & 1U) != 0;
    EXPECT_EQ(b.eval(d.reached[0], v), a.eval(c.reached[0], v)) << bits;
    EXPECT_EQ(b.eval(d.frontier[0], v), a.eval(c.frontier[0], v)) << bits;
  }
  EXPECT_EQ(b.nodeCount(d.reached[0]), a.nodeCount(c.reached[0]));
  std::remove(path.c_str());
}

TEST(CheckpointMemory, EncodeBytesAreExactlyTheFileBytes) {
  // encode() is the wire/migration twin of save(): byte-identical output,
  // and decode() restores the same checkpoint without touching the
  // filesystem.
  const std::string path = tmpPath("encode_twin.bin");
  Manager a(4);
  const Checkpoint c = sampleCheckpoint(a);
  const std::vector<std::uint8_t> image = encode(c);
  save(path, c);
  const std::vector<char> file = slurp(path);
  ASSERT_EQ(image.size(), file.size());
  EXPECT_TRUE(std::equal(image.begin(), image.end(),
                         reinterpret_cast<const std::uint8_t*>(file.data())));

  Manager b(4);
  const Checkpoint d = decode(image.data(), image.size(), b);
  EXPECT_EQ(d.engine, c.engine);
  EXPECT_EQ(d.iteration, c.iteration);
  ASSERT_EQ(d.reached.size(), 1U);
  EXPECT_EQ(b.nodeCount(d.reached[0]), a.nodeCount(c.reached[0]));
  std::remove(path.c_str());
}

TEST(CheckpointMemory, DecodeRejectsACorruptedImage) {
  Manager a(4);
  std::vector<std::uint8_t> image = encode(sampleCheckpoint(a));
  image[image.size() / 2] ^= 0x01;  // one payload bit
  Manager b(4);
  EXPECT_THROW(decode(image.data(), image.size(), b), Error);
  // Truncation is rejected too, at any cut point.
  const std::vector<std::uint8_t> ok = encode(sampleCheckpoint(a));
  Manager c2(4);
  EXPECT_THROW(decode(ok.data(), ok.size() - 1, c2), Error);
  EXPECT_THROW(decode(ok.data(), 10, c2), Error);
}

TEST(CheckpointFile, RestoresTheRecordedVariableOrder) {
  const std::string path = tmpPath("order.bin");
  Manager a(4);
  const std::vector<unsigned> order{3, 1, 0, 2};
  a.setVarOrder(order);
  save(path, sampleCheckpoint(a));

  Manager b(4);  // natural order until load() restores the recorded one
  load(path, b);
  EXPECT_EQ(b.currentOrder(), order);
  std::remove(path.c_str());
}

TEST(CheckpointFile, ConstantAndSharedRootsSurvive) {
  const std::string path = tmpPath("shared.bin");
  Manager a(3);
  Checkpoint c;
  c.engine = "bfv";
  c.kind = RootKind::kBfv;
  c.level2var = a.currentOrder();
  c.choice_vars = {0, 2};
  const Bdd f = a.var(0) ^ a.var(1);
  c.reached = {f, ~f, a.one(), a.zero()};  // shared DAG + both constants
  c.frontier = {};
  save(path, c);

  Manager b(3);
  const Checkpoint d = load(path, b);
  EXPECT_EQ(d.choice_vars, (std::vector<unsigned>{0, 2}));
  ASSERT_EQ(d.reached.size(), 4U);
  EXPECT_EQ(d.reached[1], ~d.reached[0]);
  EXPECT_TRUE(d.reached[2].isTrue());
  EXPECT_TRUE(d.reached[3].isFalse());
  EXPECT_TRUE(d.frontier.empty());
  std::remove(path.c_str());
}

TEST(CheckpointFile, MissingFileThrows) {
  Manager m(2);
  EXPECT_THROW(load(tmpPath("no-such-file.bin"), m), Error);
}

class CheckpointCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = tmpPath("corrupt.bin");
    Manager a(4);
    save(path_, sampleCheckpoint(a));
    bytes_ = slurp(path_);
    ASSERT_GT(bytes_.size(), 24U);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void expectRejected() {
    spit(path_, bytes_);
    Manager m(4);
    EXPECT_THROW(load(path_, m), Error);
  }

  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(CheckpointCorruption, BadMagic) {
  bytes_[0] ^= 0x40;
  expectRejected();
}

TEST_F(CheckpointCorruption, FutureVersion) {
  bytes_[8] = static_cast<char>(kCheckpointVersion + 1);
  expectRejected();
}

TEST_F(CheckpointCorruption, FlippedPayloadByteFailsCrc) {
  bytes_[bytes_.size() / 2] ^= 0x01;
  expectRejected();
}

TEST_F(CheckpointCorruption, TruncatedPayload) {
  bytes_.resize(bytes_.size() - 3);
  expectRejected();
}

TEST_F(CheckpointCorruption, TruncatedHeader) {
  bytes_.resize(12);
  expectRejected();
}

TEST_F(CheckpointCorruption, TrailingGarbage) {
  bytes_.push_back('x');
  expectRejected();
}

// ---------------------------------------------------------------------------
// Fuzz-style corruption sweeps: EVERY truncated prefix and EVERY
// single-byte-flipped variant of a valid image must be rejected with
// io::Error — never a crash, hang, or silently-wrong checkpoint. Runs in
// memory through decode() (the common core of load()), so the whole sweep
// is a few thousand decodes; the ASan/UBSan CI lane runs these by name to
// catch any out-of-bounds read a malformed length could provoke.
// ---------------------------------------------------------------------------

TEST_F(CheckpointCorruption, EveryTruncatedPrefixIsRejected) {
  const auto* data = reinterpret_cast<const std::uint8_t*>(bytes_.data());
  Manager m(4);
  for (std::size_t n = 0; n < bytes_.size(); ++n) {
    EXPECT_THROW(decode(data, n, m), Error) << "prefix length " << n;
  }
  // The untouched image still decodes — the sweep failed for the right
  // reason, not because the fixture image was bad.
  EXPECT_NO_THROW(decode(data, bytes_.size(), m));
}

TEST_F(CheckpointCorruption, EverySingleByteFlipIsRejected) {
  // Two flip patterns per position: the low bit (minimal corruption, the
  // classic bit-rot shape) and all eight bits (maximal). Either must trip
  // magic, version, CRC, or a size check — there is no unvalidated byte.
  std::vector<std::uint8_t> image(bytes_.begin(), bytes_.end());
  Manager m(4);
  for (const std::uint8_t flip : {0x01, 0xFF}) {
    for (std::size_t i = 0; i < image.size(); ++i) {
      image[i] ^= flip;
      EXPECT_THROW(decode(image.data(), image.size(), m), Error)
          << "byte " << i << " ^ " << static_cast<int>(flip);
      image[i] ^= flip;  // restore
    }
  }
  EXPECT_NO_THROW(decode(image.data(), image.size(), m));
}

// ---------------------------------------------------------------------------
// Forged counts: a CRC-valid image whose count fields claim 2^30 items. The
// decoder checks every count against the bytes left before it sizes a
// vector by it, so each is an io::Error, never a std::bad_alloc or gigabytes
// of zero-fill.
// ---------------------------------------------------------------------------

void expectForgedCountRejected(const std::vector<char>& file,
                               test::CheckpointCount which) {
  for (const std::uint64_t count :
       {std::uint64_t{0x40000000}, ~std::uint64_t{0}}) {
    std::vector<std::uint8_t> image(file.begin(), file.end());
    test::forgeCount(image, which, count);
    Manager m(4);
    EXPECT_THROW(decode(image.data(), image.size(), m), Error)
        << "count " << count;
  }
}

TEST_F(CheckpointCorruption, ForgedLevelOrderCountIsRejected) {
  expectForgedCountRejected(bytes_, test::CheckpointCount::kLevel2Var);
}

TEST_F(CheckpointCorruption, ForgedChoiceVarCountIsRejected) {
  expectForgedCountRejected(bytes_, test::CheckpointCount::kChoiceVars);
}

TEST_F(CheckpointCorruption, ForgedNodeCountIsRejected) {
  expectForgedCountRejected(bytes_, test::CheckpointCount::kNodes);
}

TEST_F(CheckpointCorruption, ForgedReachedRootCountIsRejected) {
  expectForgedCountRejected(bytes_, test::CheckpointCount::kReached);
}

TEST_F(CheckpointCorruption, ForgedFrontierRootCountIsRejected) {
  expectForgedCountRejected(bytes_, test::CheckpointCount::kFrontier);
}

TEST_F(CheckpointCorruption, OrderThatIsNotAPermutation) {
  // A CRC-valid image whose variable order repeats a variable, or names
  // one the manager does not have, is an io::Error before the decoder
  // touches the manager's order.
  const std::vector<std::uint8_t> clean(bytes_.begin(), bytes_.end());
  for (const std::uint32_t var : {0U, 4U}) {
    std::vector<std::uint8_t> image = clean;
    test::forgeOrderEntry(image, 1, var);
    Manager m(4);
    const std::vector<unsigned> order = m.currentOrder();
    EXPECT_THROW(decode(image.data(), image.size(), m), Error)
        << "level2var[1] = " << var;
    EXPECT_EQ(m.currentOrder(), order);
  }
}

TEST(CheckpointFile, FailedWriteKeepsThePreviousCheckpoint) {
  // The tmp file links to a full device. The image is small enough that
  // its write succeeds into the stdio buffer and only the close fails; the
  // save must throw and leave the previous checkpoint where it was.
  const std::string path = tmpPath("full.bin");
  const std::string tmp = path + ".tmp";
  const circuit::Netlist n = circuit::makeCounter(5, 20);
  Manager m(0);
  sym::StateSpace s(m, n, circuit::makeOrder(n, {}));
  reach::ReachOptions opts;
  opts.checkpoint_path = path;
  opts.checkpoint_every = 1;
  opts.max_iterations = 3;
  ASSERT_EQ(reach::reachBfv(s, opts).status, RunStatus::kDone);
  const std::vector<char> before = slurp(path);
  ASSERT_EQ(before.size(), 243U);
  const Checkpoint c = load(path, m);
  std::filesystem::remove(tmp);
  std::filesystem::create_symlink("/dev/full", tmp);
  EXPECT_THROW(save(path, c), Error);
  EXPECT_FALSE(std::filesystem::is_symlink(tmp));  // the tmp link is gone
  // Reading /dev/full never ends: make sure the path is still the file.
  ASSERT_EQ(std::filesystem::symlink_status(path).type(),
            std::filesystem::file_type::regular);
  EXPECT_EQ(slurp(path), before);
  std::filesystem::remove(tmp);
  std::filesystem::remove(path);
}

TEST(CheckpointFile, SaveIsAtomicNoTmpLeftBehind) {
  const std::string path = tmpPath("atomic.bin");
  Manager a(4);
  save(path, sampleCheckpoint(a));
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());  // renamed away
  std::remove(path.c_str());
}

TEST(GoldenBytes, OneSmallCheckpoint) {
  // A BFV checkpoint over four variables in a non-natural order, as its file
  // bytes: the 24-byte header (magic "BFVRCKPT", version, payload CRC-32,
  // payload length), then the engine tag, root kind, two flags, iteration,
  // variable order, choice variables, node table and both root lists. The
  // golden image decodes into a fresh manager and encodes to the same bytes.
  const char* golden =
      "42465652434b5054010000000abc880bab00000000000000"
      "0362667601000105000000040000000200000000000000030000000100000002"
      "0000000000000002000000040000000000000001000000000000000000000001"
      "0000000000000000000000020000000000000003000000000000000300000000"
      "0000000000000001000000000000000000000006000000000000000100000000"
      "0000000300000005000000000000000900000000000000000000000000000001"
      "0000000100000000000000";
  const std::vector<unsigned> order{2, 0, 3, 1};
  Manager a(4);
  a.setVarOrder(order);
  Checkpoint c;
  c.engine = "bfv";
  c.kind = RootKind::kBfv;
  c.iteration = 5;
  c.level2var = a.currentOrder();
  c.choice_vars = {0, 2};
  c.frontier_empty = true;
  c.reached = {a.var(0) ^ a.var(1), ~(a.var(0) & a.var(3)), a.one()};
  c.frontier = {a.zero()};
  EXPECT_EQ(test::hex(encode(c)), golden);

  const std::vector<std::uint8_t> bytes = test::unhex(golden);
  Manager b(4);
  const Checkpoint d = decode(bytes.data(), bytes.size(), b);
  EXPECT_EQ(b.currentOrder(), order);
  EXPECT_EQ(d.engine, "bfv");
  EXPECT_EQ(d.kind, RootKind::kBfv);
  EXPECT_EQ(d.iteration, 5U);
  EXPECT_EQ(d.choice_vars, c.choice_vars);
  EXPECT_FALSE(d.reached_empty);
  EXPECT_TRUE(d.frontier_empty);
  EXPECT_EQ(test::hex(encode(d)), golden);
}

// ---------------------------------------------------------------------------
// Kill-and-resume on the shipped circuits: the PR's acceptance matrix.
// ---------------------------------------------------------------------------

using reach::Engine;

/// Continue engine `e` from checkpoint bytes as the job runner continues a
/// job from its file: decode into the state space's manager, then run the
/// engine seeded with the result.
reach::ReachResult resume(sym::StateSpace& s, Engine e,
                          const std::vector<std::uint8_t>& image) {
  const Checkpoint c = decode(image.data(), image.size(), s.manager());
  reach::ReachOptions opts;
  opts.resume = &c;
  return reach::runEngine(s, e, opts);
}

class ResumeMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, Engine>> {};

TEST_P(ResumeMatrix, KilledRunResumesToBitIdenticalFixpoint) {
  const auto [file, engine] = GetParam();
  const char* tag = reach::tag(engine);
  const circuit::Netlist n =
      circuit::parseBenchFile(std::string(BFVR_DATA_DIR) + "/" + file);
  const circuit::OrderSpec order{circuit::OrderKind::kTopo, 0};

  // Reference: the uninterrupted fixpoint.
  reach::ReachResult ref;
  std::size_t ref_chi_nodes = 0;
  {
    Manager m(0);
    sym::StateSpace s(m, n, circuit::makeOrder(n, order));
    ref = reach::runEngine(s, engine);
    ref_chi_nodes = reach::reachedSizes(s, ref).chi_nodes;
    ref.reached_bfv.reset();
    ref.reached_chi = Bdd();
  }
  EXPECT_GT(ref_chi_nodes, 0U) << file << " " << tag;
  ASSERT_EQ(ref.status, RunStatus::kDone) << file << " " << tag;

  const std::string path = tmpPath("resume_" + file + "_" + tag);
  if (ref.iterations > 1) {
    // Kill the run mid-fixpoint (max_iterations plays the crash), leaving a
    // checkpoint of every completed iteration behind.
    Manager m(0);
    sym::StateSpace s(m, n, circuit::makeOrder(n, order));
    reach::ReachOptions opts;
    opts.checkpoint_every = 1;
    opts.checkpoint_path = path;
    opts.max_iterations = ref.iterations / 2;
    const reach::ReachResult killed = reach::runEngine(s, engine, opts);
    ASSERT_EQ(killed.status, RunStatus::kDone);
    ASSERT_EQ(killed.iterations, ref.iterations / 2);
  } else {
    // One-iteration fixpoints (arb4) break out of the loop before the
    // post-iteration checkpoint hook ever runs, so there is no mid-run
    // snapshot to crash on. Drive the same save -> load -> resume path from
    // a handwritten iteration-0 checkpoint instead: reached = frontier =
    // initial state, which is exactly where a fresh run starts.
    Manager m(0);
    sym::StateSpace s(m, n, circuit::makeOrder(n, order));
    Checkpoint c;
    c.engine = tag;
    c.iteration = 0;
    c.level2var = m.currentOrder();
    switch (engine) {
      case Engine::kBfv: {
        const bfv::Bfv init =
            bfv::Bfv::point(m, s.currentVars(), s.initialBits());
        c.kind = RootKind::kBfv;
        c.choice_vars = s.currentVars();
        c.reached = init.comps();
        c.frontier = init.comps();
        break;
      }
      case Engine::kCdec: {
        const cdec::Cdec init = cdec::Cdec::fromBfv(
            bfv::Bfv::point(m, s.currentVars(), s.initialBits()));
        c.kind = RootKind::kCdec;
        c.choice_vars = s.currentVars();
        c.reached = init.constraints();
        c.frontier = init.constraints();
        break;
      }
      default: {  // the chi engines
        const Bdd init = sym::initialChar(s);
        c.kind = RootKind::kChi;
        c.reached = {init};
        c.frontier = {init};
        break;
      }
    }
    save(path, c);
  }

  // Resume in a completely fresh universe.
  Manager m(0);
  sym::StateSpace s(m, n, circuit::makeOrder(n, order));
  const Checkpoint c = load(path, m);
  reach::ReachOptions opts;
  opts.resume = &c;
  const reach::ReachResult resumed = reach::runEngine(s, engine, opts);
  EXPECT_EQ(resumed.status, ref.status) << file << " " << tag;
  EXPECT_EQ(resumed.iterations, ref.iterations) << file << " " << tag;
  EXPECT_DOUBLE_EQ(resumed.states, ref.states) << file << " " << tag;
  EXPECT_EQ(reach::reachedSizes(s, resumed).chi_nodes, ref_chi_nodes)
      << file << " " << tag;
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Shipped, ResumeMatrix,
    ::testing::Combine(::testing::Values(std::string("arb4.bench"),
                                         std::string("cnt8m200.bench"),
                                         std::string("crc8.bench"),
                                         std::string("fifo3.bench"),
                                         std::string("johnson8.bench"),
                                         std::string("twin6.bench")),
                       ::testing::Values(Engine::kTr, Engine::kCbm,
                                         Engine::kBfv, Engine::kCdec,
                                         Engine::kHybrid)));

TEST(Resume, MissingCheckpointThrowsIoError) {
  const circuit::Netlist n = circuit::makeJohnson(5);
  Manager m(0);
  sym::StateSpace s(m, n,
                    circuit::makeOrder(n, {circuit::OrderKind::kTopo, 0}));
  EXPECT_THROW(load(tmpPath("never-written.bin"), m), Error);
}

TEST(Resume, InconsistentVectorCheckpointThrowsIoError) {
  // CRC-valid checkpoints whose contents do not fit the state space: a root
  // count that is not the choice-variable count, and choice variables that
  // are not the current-state bank. Both Fig. 2 backends reject them with
  // io::Error, never another exception from deeper in the run.
  const circuit::Netlist n = circuit::makeCounter(4, 10);
  for (const RootKind kind : {RootKind::kBfv, RootKind::kCdec}) {
    const Engine e = kind == RootKind::kBfv ? Engine::kBfv : Engine::kCdec;
    const char* engine = reach::tag(e);
    Manager m(0);
    sym::StateSpace s(m, n,
                      circuit::makeOrder(n, {circuit::OrderKind::kTopo, 0}));
    const bfv::Bfv init = bfv::Bfv::point(m, s.currentVars(), s.initialBits());
    const std::vector<Bdd> roots =
        kind == RootKind::kBfv ? init.comps()
                               : cdec::Cdec::fromBfv(init).constraints();
    Checkpoint c;
    c.engine = engine;
    c.kind = kind;
    c.level2var = m.currentOrder();
    c.choice_vars = s.currentVars();
    c.reached = c.frontier = std::vector<Bdd>(roots.begin(), roots.end() - 1);
    EXPECT_THROW(resume(s, e, encode(c)), Error) << engine << ": root count";
    c.choice_vars = s.paramVars();
    c.reached = c.frontier = roots;
    EXPECT_THROW(resume(s, e, encode(c)), Error)
        << engine << ": choice variables";
  }
}

TEST(Resume, TagThatNamesNoBddEngineThrowsIoError) {
  // CRC-valid chi checkpoints whose tag the engine table lacks ("warp",
  // "") or names an engine that writes no checkpoint of its own: lz runs
  // without a manager, and tr-mono runs write "tr". No BDD engine
  // continues one.
  const circuit::Netlist n = circuit::makeCounter(4, 10);
  for (const char* tag : {"lz", "tr-mono", "warp", ""}) {
    for (const reach::EngineInfo& info : reach::kEngines) {
      if (info.engine == Engine::kLz) continue;
      Manager m(0);
      sym::StateSpace s(m, n,
                        circuit::makeOrder(n, {circuit::OrderKind::kTopo, 0}));
      Checkpoint c;
      c.engine = tag;
      c.level2var = m.currentOrder();
      c.reached = c.frontier = {sym::initialChar(s)};
      EXPECT_THROW(resume(s, info.engine, encode(c)), Error)
          << "'" << tag << "' resumed by " << info.tag;
    }
  }
}

}  // namespace
}  // namespace bfvr::io

#include "io/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <unordered_map>
#include <utility>

namespace bfvr::io {

namespace {

constexpr char kMagic[8] = {'B', 'F', 'V', 'R', 'C', 'K', 'P', 'T'};

// ---------------------------------------------------------------------------
// Little-endian byte buffer
// ---------------------------------------------------------------------------

void put8(std::vector<std::uint8_t>& b, std::uint8_t v) { b.push_back(v); }

void put32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put64(std::vector<std::uint8_t>& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// Bounds-checked cursor over the payload; every malformed-input path is an
/// io::Error, never undefined behaviour.
struct Reader {
  const std::uint8_t* p;
  std::size_t n;
  std::size_t pos = 0;

  void need(std::size_t k) const {
    if (n - pos < k) throw Error("checkpoint: truncated payload");
  }
  std::uint8_t get8() {
    need(1);
    return p[pos++];
  }
  std::uint32_t get32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[pos++]} << (8 * i);
    return v;
  }
  std::uint64_t get64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[pos++]} << (8 * i);
    return v;
  }
  std::string getStr() {
    const std::size_t len = get8();
    need(len);
    std::string s(reinterpret_cast<const char*>(p + pos), len);
    pos += len;
    return s;
  }
};

// ---------------------------------------------------------------------------
// Shared-DAG encoder: dense topological ids, children before parents,
// id 0 = terminal (regular constant = TRUE), edge = (id << 1) | complement.
// ---------------------------------------------------------------------------

struct NodeRec {
  std::uint32_t var;
  std::uint64_t hi;
  std::uint64_t lo;
};

class DagEncoder {
 public:
  /// Encode one root edge, appending any nodes not yet in the table.
  std::uint64_t encode(const Bdd& b) {
    if (b.isConst()) return b.isFalse() ? 1 : 0;
    const bool compl_in = (b.raw() & 1U) != 0;
    const Bdd reg = compl_in ? ~b : b;
    visit(reg);
    return (std::uint64_t{id_.at(reg.raw())} << 1) |
           static_cast<std::uint64_t>(compl_in);
  }

  const std::vector<NodeRec>& nodes() const noexcept { return nodes_; }

 private:
  /// Iterative postorder from a regular, non-constant edge: an explicit
  /// stack instead of recursion so deep DAGs cannot overflow the C stack.
  void visit(const Bdd& root) {
    if (id_.count(root.raw()) != 0) return;
    std::vector<std::pair<Bdd, bool>> stack;
    stack.emplace_back(root, false);
    while (!stack.empty()) {
      auto [n, expanded] = stack.back();
      stack.pop_back();
      if (id_.count(n.raw()) != 0) continue;
      if (!expanded) {
        stack.emplace_back(n, true);
        for (const Bdd& c : {n.high(), n.low()}) {
          if (c.isConst()) continue;
          const Bdd creg = (c.raw() & 1U) != 0 ? ~c : c;
          if (id_.count(creg.raw()) == 0) stack.emplace_back(creg, false);
        }
      } else {
        NodeRec rec;
        rec.var = n.topVar();
        rec.hi = childEdge(n.high());
        rec.lo = childEdge(n.low());
        nodes_.push_back(rec);
        id_.emplace(n.raw(), static_cast<std::uint32_t>(nodes_.size()));
      }
    }
  }

  std::uint64_t childEdge(const Bdd& c) const {
    if (c.isConst()) return c.isFalse() ? 1 : 0;
    const bool compl_in = (c.raw() & 1U) != 0;
    const Bdd reg = compl_in ? ~c : c;
    return (std::uint64_t{id_.at(reg.raw())} << 1) |
           static_cast<std::uint64_t>(compl_in);
  }

  std::unordered_map<bdd::Edge, std::uint32_t> id_;  // regular edge -> dense id
  std::vector<NodeRec> nodes_;
};

void putRoots(std::vector<std::uint8_t>& buf, DagEncoder& enc,
              const std::vector<Bdd>& roots) {
  put32(buf, static_cast<std::uint32_t>(roots.size()));
  for (const Bdd& b : roots) {
    if (b.isNull()) throw Error("checkpoint: null root");
    put64(buf, enc.encode(b));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// save / load
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode(const Checkpoint& c) {
  if (c.engine.size() > 255) throw Error("checkpoint: engine tag too long");
  // Find the manager behind the roots (level2var alone does not carry it).
  const Manager* mgr = nullptr;
  for (const auto* roots : {&c.reached, &c.frontier}) {
    for (const Bdd& b : *roots) {
      if (b.isNull()) throw Error("checkpoint: null root");
      if (mgr == nullptr) mgr = b.manager();
      if (b.manager() != mgr) throw Error("checkpoint: mixed managers");
    }
  }

  std::vector<std::uint8_t> payload;
  put8(payload, static_cast<std::uint8_t>(c.engine.size()));
  payload.insert(payload.end(), c.engine.begin(), c.engine.end());
  put8(payload, static_cast<std::uint8_t>(c.kind));
  put8(payload, c.reached_empty ? 1 : 0);
  put8(payload, c.frontier_empty ? 1 : 0);
  put32(payload, c.iteration);
  put32(payload, static_cast<std::uint32_t>(c.level2var.size()));
  for (const unsigned v : c.level2var) put32(payload, v);
  put32(payload, static_cast<std::uint32_t>(c.choice_vars.size()));
  for (const unsigned v : c.choice_vars) put32(payload, v);

  // Encode the roots first into a scratch buffer: the node table they
  // reference must precede them in the payload (decode is single-pass).
  DagEncoder enc;
  std::vector<std::uint8_t> roots_buf;
  putRoots(roots_buf, enc, c.reached);
  putRoots(roots_buf, enc, c.frontier);
  put64(payload, enc.nodes().size());
  for (const NodeRec& n : enc.nodes()) {
    put32(payload, n.var);
    put64(payload, n.hi);
    put64(payload, n.lo);
  }
  payload.insert(payload.end(), roots_buf.begin(), roots_buf.end());

  std::vector<std::uint8_t> file;
  file.insert(file.end(), kMagic, kMagic + sizeof(kMagic));
  put32(file, kCheckpointVersion);
  put32(file, crc32(payload.data(), payload.size()));
  put64(file, payload.size());
  file.insert(file.end(), payload.begin(), payload.end());
  return file;
}

void save(const std::string& path, const Checkpoint& c) {
  const std::vector<std::uint8_t> file = encode(c);

  // Atomic publish: write the sibling tmp file, then rename over the
  // destination. A crash mid-write leaves the old checkpoint intact.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw Error("checkpoint: cannot open " + tmp);
    out.write(reinterpret_cast<const char*>(file.data()),
              static_cast<std::streamsize>(file.size()));
    if (!out) throw Error("checkpoint: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("checkpoint: rename to " + path + " failed");
  }
}

Checkpoint decode(const std::uint8_t* data, std::size_t n, Manager& m) {
  if (n < 24) throw Error("checkpoint: file too short");
  if (!std::equal(kMagic, kMagic + sizeof(kMagic), data)) {
    throw Error("checkpoint: bad magic");
  }
  Reader hdr{data + 8, n - 8};
  const std::uint32_t version = hdr.get32();
  if (version != kCheckpointVersion) {
    throw Error("checkpoint: unsupported version " + std::to_string(version));
  }
  const std::uint32_t want_crc = hdr.get32();
  const std::uint64_t payload_size = hdr.get64();
  if (payload_size != n - 24) {
    throw Error("checkpoint: payload size mismatch");
  }
  const std::uint8_t* payload = data + 24;
  if (crc32(payload, payload_size) != want_crc) {
    throw Error("checkpoint: CRC mismatch (corrupt file)");
  }

  Reader r{payload, payload_size};
  Checkpoint c;
  c.engine = r.getStr();
  const std::uint8_t kind = r.get8();
  if (kind > static_cast<std::uint8_t>(RootKind::kCdec)) {
    throw Error("checkpoint: unknown root kind");
  }
  c.kind = static_cast<RootKind>(kind);
  c.reached_empty = r.get8() != 0;
  c.frontier_empty = r.get8() != 0;
  c.iteration = r.get32();
  c.level2var.resize(r.get32());
  for (unsigned& v : c.level2var) v = r.get32();
  c.choice_vars.resize(r.get32());
  for (unsigned& v : c.choice_vars) v = r.get32();

  if (c.level2var.size() != m.numVars()) {
    throw Error("checkpoint: variable count mismatch (file " +
                std::to_string(c.level2var.size()) + ", manager " +
                std::to_string(m.numVars()) + ")");
  }
  // Restore the recorded order before decoding: with the same order the
  // rebuilt DAG is canonical node-for-node as saved, which is what makes
  // the resumed fixpoint bit-identical.
  m.setVarOrder(c.level2var);

  const std::uint64_t node_count = r.get64();
  std::vector<Bdd> table;
  table.reserve(node_count);
  const auto resolve = [&](std::uint64_t e) -> Bdd {
    const std::uint64_t id = e >> 1;
    if (id > table.size()) throw Error("checkpoint: forward edge reference");
    Bdd b = id == 0 ? m.one() : table[id - 1];
    return (e & 1U) != 0 ? ~b : b;
  };
  for (std::uint64_t i = 0; i < node_count; ++i) {
    const std::uint32_t var = r.get32();
    if (var >= m.numVars()) throw Error("checkpoint: variable out of range");
    const Bdd hi = resolve(r.get64());
    const Bdd lo = resolve(r.get64());
    // ite(v, hi, lo) re-interns exactly the saved node (the order matches,
    // so v sits above hi/lo); a corrupt-but-CRC-valid file still only ever
    // produces some canonical BDD, never an invalid one.
    table.push_back(m.ite(m.var(var), hi, lo));
  }
  const auto readRoots = [&](std::vector<Bdd>& out) {
    out.resize(r.get32());
    for (Bdd& b : out) b = resolve(r.get64());
  };
  readRoots(c.reached);
  readRoots(c.frontier);
  if (r.pos != r.n) throw Error("checkpoint: trailing bytes");
  return c;
}

Checkpoint load(const std::string& path, Manager& m) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("checkpoint: cannot open " + path);
  std::vector<std::uint8_t> file((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
  return decode(file.data(), file.size(), m);
}

}  // namespace bfvr::io

#include "io/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <unordered_map>
#include <utility>

#include "util/file.hpp"

namespace bfvr::io {

namespace {

constexpr char kMagic[8] = {'B', 'F', 'V', 'R', 'C', 'K', 'P', 'T'};
constexpr std::size_t kHeaderBytes = 24;  // magic, version, CRC, size
// Encoded sizes of the counted payload items: a variable index, a node
// (var, high edge, low edge) and a root edge.
constexpr std::size_t kVarBytes = 4;
constexpr std::size_t kNodeBytes = 4 + 8 + 8;
constexpr std::size_t kEdgeBytes = 8;

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

void putRoots(Writer& w, DagEncoder& enc, const std::vector<Bdd>& roots) {
  w.u32(static_cast<std::uint32_t>(roots.size()));
  for (const Bdd& b : roots) {
    if (b.isNull()) throw Error("checkpoint: null root");
    w.u64(enc.encode(b));
  }
}

}  // namespace

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

  Writer payload;
  payload.u8(static_cast<std::uint8_t>(c.engine.size()));
  payload.raw(c.engine.data(), c.engine.size());
  payload.u8(static_cast<std::uint8_t>(c.kind));
  payload.u8(c.reached_empty ? 1 : 0);
  payload.u8(c.frontier_empty ? 1 : 0);
  payload.u32(c.iteration);
  payload.u32(static_cast<std::uint32_t>(c.level2var.size()));
  for (const unsigned v : c.level2var) payload.u32(v);
  payload.u32(static_cast<std::uint32_t>(c.choice_vars.size()));
  for (const unsigned v : c.choice_vars) payload.u32(v);

  // Encode the roots first into a scratch buffer: the node table they
  // reference must precede them in the payload (decode is single-pass).
  DagEncoder enc;
  Writer roots;
  putRoots(roots, enc, c.reached);
  putRoots(roots, enc, c.frontier);
  payload.u64(enc.nodes().size());
  for (const NodeRec& n : enc.nodes()) {
    payload.u32(n.var);
    payload.u64(n.hi);
    payload.u64(n.lo);
  }
  payload.raw(roots.buf.data(), roots.buf.size());

  Writer file;
  file.buf.reserve(kHeaderBytes + payload.buf.size());
  file.raw(kMagic, sizeof(kMagic));
  file.u32(kCheckpointVersion);
  file.u32(crc32(payload.buf.data(), payload.buf.size()));
  file.u64(payload.buf.size());
  file.raw(payload.buf.data(), payload.buf.size());
  return std::move(file.buf);
}

void save(const std::string& path, const Checkpoint& c) {
  const std::vector<std::uint8_t> file = encode(c);

  // Atomic publish: write the sibling tmp file, then rename over the
  // destination. A crash or a failed write leaves the old checkpoint intact.
  const std::string tmp = path + ".tmp";
  if (!util::writeFile(tmp, {reinterpret_cast<const char*>(file.data()),
                             file.size()})) {
    std::remove(tmp.c_str());
    throw Error("checkpoint: cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("checkpoint: rename to " + path + " failed");
  }
}

Checkpoint decode(const std::uint8_t* data, std::size_t n, Manager& m) {
  if (n < kHeaderBytes) throw Error("checkpoint: file too short");
  Reader<Error> hdr(data, kHeaderBytes);
  if (!std::equal(kMagic, kMagic + sizeof(kMagic), hdr.raw(sizeof(kMagic)))) {
    throw Error("checkpoint: bad magic");
  }
  const std::uint32_t version = hdr.u32();
  if (version != kCheckpointVersion) {
    throw Error("checkpoint: unsupported version " + std::to_string(version));
  }
  const std::uint32_t want_crc = hdr.u32();
  const std::uint64_t payload_size = hdr.u64();
  if (payload_size != n - kHeaderBytes) {
    throw Error("checkpoint: payload size mismatch");
  }
  const std::uint8_t* payload = data + kHeaderBytes;
  if (crc32(payload, payload_size) != want_crc) {
    throw Error("checkpoint: CRC mismatch (corrupt file)");
  }

  // Every count below is checked against the bytes left before anything is
  // sized by it: a CRC-valid file with a forged count is an io::Error, not
  // an allocation of gigabytes.
  Reader<Error> r(payload, payload_size);
  Checkpoint c;
  const std::uint8_t tag_len = r.u8();
  c.engine.assign(reinterpret_cast<const char*>(r.raw(tag_len)), tag_len);
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(RootKind::kCdec)) {
    throw Error("checkpoint: unknown root kind");
  }
  c.kind = static_cast<RootKind>(kind);
  c.reached_empty = r.u8() != 0;
  c.frontier_empty = r.u8() != 0;
  c.iteration = r.u32();
  c.level2var.resize(r.count(r.u32(), kVarBytes));
  for (unsigned& v : c.level2var) v = r.u32();
  c.choice_vars.resize(r.count(r.u32(), kVarBytes));
  for (unsigned& v : c.choice_vars) v = r.u32();

  if (c.level2var.size() != m.numVars()) {
    throw Error("checkpoint: variable count mismatch (file " +
                std::to_string(c.level2var.size()) + ", manager " +
                std::to_string(m.numVars()) + ")");
  }
  std::vector<bool> placed(c.level2var.size());
  for (const unsigned v : c.level2var) {
    if (v >= placed.size() || placed[v]) {
      throw Error("checkpoint: variable order is not a permutation");
    }
    placed[v] = true;
  }
  // Restore the recorded order before decoding: with the same order the
  // rebuilt DAG is canonical node-for-node as saved, which is what makes
  // the resumed fixpoint bit-identical.
  m.setVarOrder(c.level2var);

  const std::size_t node_count = r.count(r.u64(), kNodeBytes);
  std::vector<Bdd> table;
  table.reserve(node_count);
  const auto resolve = [&](std::uint64_t e) -> Bdd {
    const std::uint64_t id = e >> 1;
    if (id > table.size()) throw Error("checkpoint: forward edge reference");
    Bdd b = id == 0 ? m.one() : table[id - 1];
    return (e & 1U) != 0 ? ~b : b;
  };
  for (std::size_t i = 0; i < node_count; ++i) {
    const std::uint32_t var = r.u32();
    if (var >= m.numVars()) throw Error("checkpoint: variable out of range");
    const Bdd hi = resolve(r.u64());
    const Bdd lo = resolve(r.u64());
    // ite(v, hi, lo) re-interns exactly the saved node (the order matches,
    // so v sits above hi/lo); a corrupt-but-CRC-valid file still only ever
    // produces some canonical BDD, never an invalid one.
    table.push_back(m.ite(m.var(var), hi, lo));
  }
  const auto readRoots = [&](std::vector<Bdd>& out) {
    out.resize(r.count(r.u32(), kEdgeBytes));
    for (Bdd& b : out) b = resolve(r.u64());
  };
  readRoots(c.reached);
  readRoots(c.frontier);
  if (r.left() != 0) throw Error("checkpoint: trailing bytes");
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

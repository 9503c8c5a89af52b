// Versioned, CRC-checked binary checkpoints of reachability state: the
// shared BDD DAG of the reached set and the frontier, the component choice
// variables (BFV/CDEC engines), and the manager's variable order at
// snapshot time. A checkpoint written mid-run by any engine can be loaded
// into a *fresh* manager and continued to a bit-identical fixpoint
// (reach/resume.cpp): the reached-set sequence depends only on the (reached,
// from) pair and the variable order, both of which the file captures
// exactly.
//
// File layout, written and read through the io/bytes.hpp codec (all
// integers little-endian):
//
//   offset size  field
//   0      8     magic "BFVRCKPT"
//   8      4     format version (kCheckpointVersion)
//   12     4     CRC-32 (IEEE 802.3) of the payload bytes
//   16     8     payload byte count
//   24     ...   payload
//
// Payload: engine tag (one length byte), root kind, two empty-set flags,
// iteration, variable order (level -> var), choice variables, then the
// shared DAG as a dense topologically-ordered node table — children
// strictly precede parents, id 0 is the terminal — with edges encoded as
// (id << 1) | complement_bit. Roots for the reached set and the frontier
// are edge lists into that table. Each list is preceded by its count, and
// decode checks every count against the bytes left before it sizes
// anything by it.
//
// Writes are atomic: the bytes go to "<path>.tmp" which is renamed over the
// destination only after a successful close, so a crash mid-write never
// leaves a truncated file where a resumable checkpoint used to be.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "io/bytes.hpp"

namespace bfvr::io {

using bdd::Bdd;
using bdd::Manager;

inline constexpr std::uint32_t kCheckpointVersion = 1;

/// Thrown on any serialization failure: unreadable/unwritable file, bad
/// magic, version mismatch, CRC mismatch, or a malformed payload.
struct Error : std::runtime_error {
  using std::runtime_error::runtime_error;
  static constexpr const char* kFormat = "checkpoint";  ///< Reader messages
};

/// What kind of state-set representation the roots encode.
enum class RootKind : std::uint8_t {
  kChi = 0,   ///< one root each: characteristic functions (TR/CBM/hybrid)
  kBfv = 1,   ///< roots are BFV components over `choice_vars`
  kCdec = 2,  ///< roots are CDEC constraints over `choice_vars`
};

/// Decoded in-memory image of a checkpoint. On save the Bdd roots may live
/// in any manager; on load they are rebuilt inside the manager passed to
/// load() (which also receives the recorded variable order first, so the
/// decoded DAG is canonical and node-for-node the shape that was saved).
struct Checkpoint {
  std::string engine;  ///< its writer's engine tag (reach::kEngines)
  RootKind kind = RootKind::kChi;
  std::uint32_t iteration = 0;       ///< completed frontier iterations
  std::vector<unsigned> level2var;   ///< variable order: level -> var index
  std::vector<unsigned> choice_vars; ///< BFV/CDEC component variables
  bool reached_empty = false;        ///< BFV/CDEC empty-set flag
  bool frontier_empty = false;
  std::vector<Bdd> reached;
  std::vector<Bdd> frontier;
};

/// Serialize `c` to a self-contained byte image — the exact bytes save()
/// writes (magic, version, CRC, payload), so an image can travel over a
/// wire or sit in memory as a job-migration unit and still round-trip
/// through decode() on the far side. All non-null roots must belong to one
/// manager. Throws io::Error on failure.
std::vector<std::uint8_t> encode(const Checkpoint& c);

/// Inverse of encode(): verify magic/version/CRC, restore the recorded
/// variable order into `m` (whose numVars() must match) and decode the DAG
/// into it. Throws io::Error on any mismatch or malformed input.
Checkpoint decode(const std::uint8_t* data, std::size_t n, Manager& m);

/// Serialize `c` to `path` (atomically, via "<path>.tmp" + rename). All
/// non-null roots must belong to one manager. Throws io::Error on failure.
void save(const std::string& path, const Checkpoint& c);

/// Read `path` and decode() it. Throws io::Error on any mismatch or
/// malformed input.
Checkpoint load(const std::string& path, Manager& m);

}  // namespace bfvr::io

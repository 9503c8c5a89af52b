// Checkpoint images with one count field, or one variable-order entry,
// forged. The header CRC is recomputed, so the image passes every
// integrity check and only the decoder's own checks can reject it.
#pragma once

#include <cstdint>
#include <vector>

#include "io/checkpoint.hpp"

namespace bfvr::test {

/// The five counts of a checkpoint payload, in file order.
enum class CheckpointCount {
  kLevel2Var,
  kChoiceVars,
  kNodes,
  kReached,
  kFrontier,
};

/// Recompute the header CRC of a checkpoint image over its payload.
inline void resealCrc(std::vector<std::uint8_t>& image) {
  const std::uint32_t crc = io::crc32(image.data() + 24, image.size() - 24);
  for (unsigned i = 0; i < 4; ++i) {
    image.at(12 + i) = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

/// Byte offset of the first counted section (the variable order). The
/// layout walked here is the one io/checkpoint.hpp documents: a 24-byte
/// header, then the engine tag (one length byte), the root kind, two flags
/// and the iteration, then the five counted sections.
inline std::size_t firstCountAt(const std::vector<std::uint8_t>& image) {
  return 24 + 1 + image.at(24) + 3 + 4;
}

/// Overwrite entry `level` of the image's variable order (level2var) with
/// `var` and recompute the header CRC.
inline void forgeOrderEntry(std::vector<std::uint8_t>& image,
                            std::size_t level, std::uint32_t var) {
  const std::size_t at = firstCountAt(image) + 4 + 4 * level;
  for (unsigned i = 0; i < 4; ++i) {
    image.at(at + i) = static_cast<std::uint8_t>(var >> (8 * i));
  }
  resealCrc(image);
}

/// Overwrite count `which` of the checkpoint `image` with `value` and
/// recompute the header CRC.
inline void forgeCount(std::vector<std::uint8_t>& image, CheckpointCount which,
                       std::uint64_t value) {
  const auto readLe = [&image](std::size_t at, unsigned width) {
    std::uint64_t v = 0;
    for (unsigned i = 0; i < width; ++i) {
      v |= std::uint64_t{image.at(at + i)} << (8 * i);
    }
    return v;
  };
  struct Section {
    unsigned count_bytes;
    std::uint64_t item_bytes;
  };
  // level2var and choice_vars (u32 items), the node table (u32 var, u64
  // high edge, u64 low edge), the reached and frontier roots (u64 edges).
  const Section sections[] = {{4, 4}, {4, 4}, {8, 20}, {4, 8}, {4, 8}};
  std::size_t at = firstCountAt(image);
  const auto target = static_cast<unsigned>(which);
  for (unsigned s = 0; s < target; ++s) {
    at += sections[s].count_bytes +
          sections[s].item_bytes * readLe(at, sections[s].count_bytes);
  }
  for (unsigned i = 0; i < sections[target].count_bytes; ++i) {
    image.at(at + i) = static_cast<std::uint8_t>(value >> (8 * i));
  }
  resealCrc(image);
}

}  // namespace bfvr::test

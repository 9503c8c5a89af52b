// Hex text for the golden-bytes tests: the wire frames, journal records and
// checkpoints they pin are committed as lowercase hex, one string per
// encoded object.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace bfvr::test {

inline std::string hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  s.reserve(2 * bytes.size());
  for (const std::uint8_t b : bytes) {
    s.push_back(kDigits[b >> 4]);
    s.push_back(kDigits[b & 0xF]);
  }
  return s;
}

inline std::vector<std::uint8_t> unhex(std::string_view s) {
  const auto digit = [](char c) -> std::uint8_t {
    if (c >= '0' && c <= '9') return static_cast<std::uint8_t>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<std::uint8_t>(c - 'a' + 10);
    throw std::invalid_argument("unhex: not a lowercase hex digit");
  };
  if (s.size() % 2 != 0) throw std::invalid_argument("unhex: odd length");
  std::vector<std::uint8_t> bytes(s.size() / 2);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(digit(s[2 * i]) << 4 |
                                         digit(s[2 * i + 1]));
  }
  return bytes;
}

}  // namespace bfvr::test

#include "util/file.hpp"

#include <cstdio>

namespace bfvr::util {

bool writeFile(const std::string& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && wrote;
}

}  // namespace bfvr::util

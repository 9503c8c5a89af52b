#include "support/process_dir.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

namespace bfvr::test {

namespace {

struct ProcessDir {
  std::string path;

  ProcessDir()
      : path(::testing::TempDir() + "bfvr_test_" +
             std::to_string(::getpid())) {
    std::filesystem::remove_all(path);  // left by a crashed run, same pid
    std::filesystem::create_directories(path);
  }
  ~ProcessDir() {
    std::error_code ec;  // never throw from a static destructor
    std::filesystem::remove_all(path, ec);
  }
};

}  // namespace

const std::string& processDir() {
  static const ProcessDir dir;
  return dir.path;
}

}  // namespace bfvr::test

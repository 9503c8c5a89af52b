// A scratch directory private to the running test process.
#pragma once

#include <string>

namespace bfvr::test {

/// "<gtest TempDir>bfvr_test_<pid>" (no trailing slash), created on first
/// use and removed with everything in it when the process exits.
/// ctest runs every discovered case as a process of its own, in parallel
/// under -j, so files a case writes here can never collide with another
/// case's.
const std::string& processDir();

}  // namespace bfvr::test

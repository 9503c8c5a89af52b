// What a test does to a manager between two calls of an operation whose
// results must not depend on it, for the `Disturbed/...` suites.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "bdd/bdd.hpp"

namespace bfvr::test {

enum class Between { kNothing, kGc, kSift, kReset };

inline std::string betweenName(const ::testing::TestParamInfo<Between>& i) {
  switch (i.param) {
    case Between::kNothing:
      return "Nothing";
    case Between::kGc:
      return "Gc";
    case Between::kSift:
      return "Sift";
    case Between::kReset:
      return "Reset";
  }
  return "?";
}

/// gc() and reorder() run with the tested functions alive. resetForReuse
/// needs every handle gone, so for kReset (as for kNothing) this does
/// nothing: the tests drop their handles and reset the manager themselves.
inline void disturb(bdd::Manager& m, Between b) {
  switch (b) {
    case Between::kNothing:
    case Between::kReset:
      break;
    case Between::kGc:
      m.gc();
      break;
    case Between::kSift:
      m.reorder(bdd::ReorderMethod::kSift);
      break;
  }
}

}  // namespace bfvr::test

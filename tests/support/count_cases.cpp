#include "support/count_cases.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <vector>

#include "circuit/bench_io.hpp"
#include "reach/engine.hpp"
#include "util/rng.hpp"

namespace bfvr::test {

namespace {

std::vector<unsigned> firstVars(unsigned n) {
  std::vector<unsigned> vars(n);
  for (unsigned i = 0; i < n; ++i) vars[i] = i;
  return vars;
}

/// Union of `cubes` random cubes, each component a don't care with
/// probability dc_num / 16.
bfv::Bfv randomCubeUnion(bdd::Manager& m, unsigned n, Rng& rng, int cubes,
                         std::uint64_t dc_num) {
  const std::vector<unsigned> vars = firstVars(n);
  bfv::Bfv acc = bfv::Bfv::emptySet(m, vars);
  std::vector<signed char> values(n);
  for (int c = 0; c < cubes; ++c) {
    for (signed char& v : values) {
      v = rng.chance(dc_num, 16) ? -1 : (rng.flip() ? 1 : 0);
    }
    acc = setUnion(acc, bfv::Bfv::cubeSet(m, vars, values));
  }
  return acc;
}

}  // namespace

void forEachCountCase(
    const std::function<void(const bfv::Bfv&, const std::string&)>& check) {
  Rng rng(2003);
  for (unsigned n = 1; n <= 64; ++n) {
    bdd::Manager m(n);
    const std::string w = "width " + std::to_string(n);
    check(bfv::Bfv::emptySet(m, firstVars(n)), w + " empty");
    std::vector<bool> bits(n);
    for (int t = 0; t < 2; ++t) {
      for (unsigned i = 0; i < n; ++i) bits[i] = rng.flip();
      check(bfv::Bfv::point(m, firstVars(n), bits), w + " singleton");
    }
    for (const std::uint64_t dc : {2U, 8U, 14U, 15U}) {
      for (const int cubes : {1, 3, 6}) {
        check(randomCubeUnion(m, n, rng, cubes, dc),
              w + " union of " + std::to_string(cubes) + " cubes, dc " +
                  std::to_string(dc) + "/16");
      }
    }
  }
  {
    bdd::Manager m(64);
    check(bfv::Bfv::universe(m, firstVars(64)), "width-64 universe");
  }
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(BFVR_DATA_DIR)) {
    if (e.path().extension() == ".bench") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  EXPECT_GE(files.size(), 9U);
  for (const std::filesystem::path& path : files) {
    const circuit::Netlist n = circuit::parseBenchFile(path.string());
    bdd::Manager m(0);
    sym::StateSpace s(m, n,
                      circuit::makeOrder(n, {circuit::OrderKind::kTopo, 0}));
    reach::ReachOptions opts;
    opts.max_iterations = 64;
    const reach::ReachResult r = reach::reachBfv(s, opts);
    ASSERT_EQ(r.status, RunStatus::kDone) << path;
    ASSERT_TRUE(r.reached_bfv.has_value()) << path;
    check(*r.reached_bfv, path.filename().string() + " reached set");
  }
}

void expectCountAgrees(double got, double want, const std::string& label) {
  if (want < 0x1p53) {
    EXPECT_EQ(got, want) << label;
  } else {
    EXPECT_GE(got, std::nextafter(want, 0.0)) << label;
    EXPECT_LE(got, std::nextafter(want, INFINITY)) << label;
  }
}

}  // namespace bfvr::test

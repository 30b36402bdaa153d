// Shared helpers for the test suites.

#ifndef SAS_TESTS_API_TEST_UTIL_H_
#define SAS_TESTS_API_TEST_UTIL_H_

#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/random.h"
#include "core/simd.h"
#include "core/types.h"

namespace sas::test {

/// n distinct 2-D points with Pareto(1.3) weights and sequential key ids.
inline std::vector<WeightedKey> RandomItems(std::size_t n, Coord domain,
                                            Rng* rng) {
  std::set<std::pair<Coord, Coord>> seen;
  while (seen.size() < n) {
    seen.insert({rng->NextBounded(domain), rng->NextBounded(domain)});
  }
  std::vector<WeightedKey> items;
  KeyId id = 0;
  for (const auto& [x, y] : seen) {
    items.push_back({id++, rng->NextPareto(1.3), {x, y}});
  }
  return items;
}

/// Runs `check` with the kernels dispatched to the scalar level, then to
/// the best level of this build and host, and restores the active level.
/// A pin checked this way fails the default build when an output bit
/// depends on the level, not only a scalar-only build.
template <class Check>
void AtEverySimdLevel(Check check) {
  const simd::Level saved = simd::ActiveLevel();
  for (const simd::Level level : {simd::Level::kScalar, simd::DetectLevel()}) {
    simd::SetLevel(level);
    SCOPED_TRACE(testing::Message() << "simd=" << simd::LevelName(level));
    check();
  }
  simd::SetLevel(saved);
}

}  // namespace sas::test

#endif  // SAS_TESTS_API_TEST_UTIL_H_

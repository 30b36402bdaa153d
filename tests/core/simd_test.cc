// Scalar-vs-AVX2 equivalence suite for the dispatched kernels in
// core/simd.h, pinning the contracts the header documents:
//
//  * per-lane kernels (FillIppsProbabilities, U64ToUnitDoubles,
//    Rng::FillDoubles, InBoxesMask) are bit-identical on every level;
//  * ThresholdPass, a reduction in one fixed 4-lane association, is
//    bit-identical on every level too;
//  * the dispatch override (SetLevel) honors DetectLevel as a ceiling.
//
// With SAS_SIMD=OFF — or on a host without AVX2 — DetectLevel() is kScalar
// and the cross-level comparisons degenerate to scalar-vs-scalar, which
// keeps the suite runnable (and the scalar contracts still checked) on
// every build configuration.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/random.h"
#include "core/simd.h"
#include "core/types.h"
#include "oracles/lane_sum.h"

namespace sas {
namespace {

/// Restores the dispatch level on scope exit so one test's override cannot
/// leak into another (or into other suites in this binary).
class LevelGuard {
 public:
  LevelGuard() : saved_(simd::ActiveLevel()) {}
  ~LevelGuard() { simd::SetLevel(saved_); }

 private:
  simd::Level saved_;
};

std::vector<double> ParetoWeights(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w(n);
  for (auto& x : w) x = rng.NextPareto(1.15);
  return w;
}

// The sizes below straddle the AVX2 width (4 doubles) and the FillDoubles
// block size (RngStream::kBlock = 256) so remainders of every phase run.
const std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 63,
                              255, 256, 257, 1000, 4096};

// --- Dispatch plumbing -----------------------------------------------------

TEST(SimdDispatch, ActiveDefaultsToDetectAndOverrideIsCapped) {
  LevelGuard guard;
  const simd::Level best = simd::DetectLevel();
  EXPECT_EQ(simd::ActiveLevel(), best);

  // Scalar is always accepted.
  EXPECT_TRUE(simd::SetLevel(simd::Level::kScalar));
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);

  if (best == simd::Level::kAvx2) {
    EXPECT_TRUE(simd::SetLevel(simd::Level::kAvx2));
    EXPECT_EQ(simd::ActiveLevel(), simd::Level::kAvx2);
  } else {
    // Requesting an unsupported level fails and changes nothing.
    EXPECT_FALSE(simd::SetLevel(simd::Level::kAvx2));
    EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  }
}

TEST(SimdDispatch, LevelNames) {
  EXPECT_STREQ(simd::LevelName(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::LevelName(simd::Level::kAvx2), "avx2");
}

// --- FillIppsProbabilities -------------------------------------------------

TEST(SimdFillIppsProbabilities, ScalarMatchesClassicLoop) {
  LevelGuard guard;
  ASSERT_TRUE(simd::SetLevel(simd::Level::kScalar));
  for (std::size_t n : kSizes) {
    const std::vector<double> w = ParetoWeights(n, 100 + n);
    const double tau = 2.5;
    std::vector<double> probs(n, -1.0);
    simd::FillIppsProbabilities(w.data(), n, tau, probs.data());
    for (std::size_t i = 0; i < n; ++i) {
      const double want = std::min(1.0, w[i] / tau);
      ASSERT_EQ(probs[i], want) << "n=" << n << " i=" << i;
    }
  }
}

TEST(SimdFillIppsProbabilities, ElementsBitIdenticalAcrossLevels) {
  LevelGuard guard;
  for (std::size_t n : kSizes) {
    const std::vector<double> w = ParetoWeights(n, 200 + n);
    for (double tau : {0.3, 1.0, 17.25}) {
      ASSERT_TRUE(simd::SetLevel(simd::Level::kScalar));
      std::vector<double> scalar(n, -1.0);
      simd::FillIppsProbabilities(w.data(), n, tau, scalar.data());

      simd::SetLevel(simd::DetectLevel());
      std::vector<double> best(n, -1.0);
      simd::FillIppsProbabilities(w.data(), n, tau, best.data());

      ASSERT_EQ(scalar, best) << "n=" << n << " tau=" << tau;
    }
  }
}

TEST(SimdFillIppsProbabilities, QuotientsExactOverWideDynamicRange) {
  // The AVX2 path computes w/tau via Markstein's corrected-reciprocal
  // sequence; this stresses its bit-identity against the hardware divide
  // across many magnitude combinations (quotients from ~1e-250 to ~1e250,
  // all normal), not just the Pareto weights the other tests use.
  if (simd::DetectLevel() == simd::Level::kScalar) {
    GTEST_SKIP() << "no vector level available in this build/host";
  }
  LevelGuard guard;
  Rng rng(271828);
  const std::size_t n = 4096;
  std::vector<double> w(n), scalar(n), best(n);
  for (int trial = 0; trial < 50; ++trial) {
    for (auto& x : w) {
      const int mag = static_cast<int>(rng.NextBounded(500)) - 250;
      x = (1.0 + rng.NextDouble()) * std::pow(10.0, mag);
    }
    const int tau_mag = static_cast<int>(rng.NextBounded(200)) - 100;
    const double tau = (1.0 + rng.NextDouble()) * std::pow(10.0, tau_mag);
    ASSERT_TRUE(simd::SetLevel(simd::Level::kScalar));
    simd::FillIppsProbabilities(w.data(), n, tau, scalar.data());
    ASSERT_TRUE(simd::SetLevel(simd::Level::kAvx2));
    simd::FillIppsProbabilities(w.data(), n, tau, best.data());
    ASSERT_EQ(scalar, best) << "trial=" << trial << " tau=" << tau;
  }
}

// --- ThresholdPass ---------------------------------------------------------

/// The pass as SolveTau's contract defines it, one weight at a time: heavy
/// iff w >= x, light iff 0 < w < x, the light sum in LaneSum's association.
simd::ThresholdSplit ReferencePass(const std::vector<double>& w, double x) {
  simd::ThresholdSplit r;
  for (double v : w) {
    if (v >= x) {
      ++r.heavy_count;
      r.min_heavy = std::min(r.min_heavy, v);
    } else if (v > 0.0 && v < x) {
      ++r.light_count;
      r.max_light = std::max(r.max_light, v);
    }
  }
  r.light_sum =
      LaneSum(w, [&](std::size_t i) { return w[i] > 0.0 && w[i] < x; });
  return r;
}

void ExpectSameSplit(const simd::ThresholdSplit& got,
                     const simd::ThresholdSplit& want) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.light_sum),
            std::bit_cast<std::uint64_t>(want.light_sum));
  EXPECT_EQ(got.max_light, want.max_light);
  EXPECT_EQ(got.min_heavy, want.min_heavy);
  EXPECT_EQ(got.light_count, want.light_count);
  EXPECT_EQ(got.heavy_count, want.heavy_count);
}

TEST(SimdThresholdPass, BitIdenticalAcrossLevelsForEveryTail) {
  LevelGuard guard;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(4711);
  for (std::size_t n = 0; n <= 67; ++n) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<double> w(n);
      for (auto& v : w) {
        const double u = rng.NextDouble();
        v = u < 0.1    ? 0.0
            : u < 0.15 ? nan
            : u < 0.25 ? 2.0
                       : rng.NextPareto(1.1);
      }
      // x = 2 puts the repeated 2.0 weights exactly on the cut (heavy).
      for (double x : {0.5, 2.0, 3.0, 1e300, inf}) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " trial=" << trial
                                        << " x=" << x);
        const simd::ThresholdSplit want = ReferencePass(w, x);
        ASSERT_TRUE(simd::SetLevel(simd::Level::kScalar));
        ExpectSameSplit(simd::ThresholdPass(w.data(), n, x), want);
        simd::SetLevel(simd::DetectLevel());
        ExpectSameSplit(simd::ThresholdPass(w.data(), n, x), want);
      }
    }
  }
}

TEST(SimdThresholdPass, EmptyAndAllMaskedInputs) {
  LevelGuard guard;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> masked = {0.0, nan, 0.0, nan, 0.0, 0.0, nan};
  for (simd::Level level : {simd::Level::kScalar, simd::DetectLevel()}) {
    simd::SetLevel(level);
    for (std::size_t n : {std::size_t{0}, masked.size()}) {
      const simd::ThresholdSplit r = simd::ThresholdPass(masked.data(), n, inf);
      EXPECT_EQ(r.light_sum, 0.0);
      EXPECT_FALSE(std::signbit(r.light_sum));
      EXPECT_EQ(r.max_light, 0.0);
      EXPECT_EQ(r.min_heavy, inf);
      EXPECT_EQ(r.light_count, 0u);
      EXPECT_EQ(r.heavy_count, 0u);
    }
  }
}

TEST(SimdThresholdPass, LongInputsBitIdenticalAcrossLevels) {
  LevelGuard guard;
  const std::vector<double> w = ParetoWeights(4096, 21);
  for (std::size_t n : kSizes) {
    for (double x : {1.0, 5.0, std::numeric_limits<double>::infinity()}) {
      ASSERT_TRUE(simd::SetLevel(simd::Level::kScalar));
      const simd::ThresholdSplit scalar = simd::ThresholdPass(w.data(), n, x);
      simd::SetLevel(simd::DetectLevel());
      SCOPED_TRACE(testing::Message() << "n=" << n << " x=" << x);
      ExpectSameSplit(simd::ThresholdPass(w.data(), n, x), scalar);
      ExpectSameSplit(scalar, ReferencePass({w.begin(), w.begin() + n}, x));
    }
  }
}

// --- U64ToUnitDoubles ------------------------------------------------------

TEST(SimdU64ToUnitDoubles, BitIdenticalAcrossLevelsAndToTheMapping) {
  LevelGuard guard;
  Rng rng(3131);
  for (std::size_t n : kSizes) {
    std::vector<std::uint64_t> raw(n);
    for (auto& x : raw) x = rng.Next();
    // Seed the extremes through the front lanes.
    if (n > 0) raw[0] = 0;
    if (n > 1) raw[1] = ~std::uint64_t{0};

    ASSERT_TRUE(simd::SetLevel(simd::Level::kScalar));
    std::vector<double> scalar(n, -1.0);
    simd::U64ToUnitDoubles(raw.data(), scalar.data(), n);

    simd::SetLevel(simd::DetectLevel());
    std::vector<double> best(n, -1.0);
    simd::U64ToUnitDoubles(raw.data(), best.data(), n);

    ASSERT_EQ(scalar, best) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i) {
      const double want =
          static_cast<double>(raw[i] >> 11) * 0x1.0p-53;
      ASSERT_EQ(scalar[i], want) << "n=" << n << " i=" << i;
      ASSERT_GE(scalar[i], 0.0);
      ASSERT_LT(scalar[i], 1.0);
    }
  }
}

// --- Rng::FillDoubles through the dispatcher -------------------------------

TEST(SimdFillDoubles, BitIdenticalAcrossLevelsAndToNextDouble) {
  LevelGuard guard;
  for (std::size_t n : kSizes) {
    Rng loop_rng(500 + n);
    std::vector<double> loop(n);
    for (auto& u : loop) u = loop_rng.NextDouble();

    ASSERT_TRUE(simd::SetLevel(simd::Level::kScalar));
    Rng scalar_rng(500 + n);
    std::vector<double> scalar(n);
    scalar_rng.FillDoubles(scalar.data(), n);

    simd::SetLevel(simd::DetectLevel());
    Rng best_rng(500 + n);
    std::vector<double> best(n);
    best_rng.FillDoubles(best.data(), n);

    ASSERT_EQ(loop, scalar) << "n=" << n;
    ASSERT_EQ(scalar, best) << "n=" << n;
    // The generators must land in the same state as the draw loop.
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t want = loop_rng.Next();
      ASSERT_EQ(scalar_rng.Next(), want);
      ASSERT_EQ(best_rng.Next(), want);
    }
  }
}

// --- InBoxesMask -------------------------------------------------------------

// The membership test of the Sample scans before the kernel existed,
// verbatim: short-circuit Box::Contains per box, first match wins.
std::uint64_t ClassicInBoxesMask(const WeightedKey* entries, std::size_t n,
                                 const Box* boxes, std::size_t nb) {
  std::uint64_t mask = 0;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t b = 0; b < nb; ++b) {
      if (boxes[b].Contains(entries[j].pt)) {
        mask |= std::uint64_t{1} << j;
        break;  // overlapping boxes count an entry once
      }
    }
  }
  return mask;
}

TEST(SimdInBoxesMask, BitIdenticalToClassicLoopOnEveryLevel) {
  LevelGuard guard;
  // Coordinates and box bounds share one pool, so entries sit exactly on
  // box edges; it holds both sides of the 2^63 sign flip and the extremes.
  constexpr Coord kMax = ~Coord{0};
  constexpr Coord kHalf = Coord{1} << 63;
  const std::vector<Coord> pool = {0,         1,    2,         3,
                                   1000,      1001, kHalf - 2, kHalf - 1,
                                   kHalf,     kHalf + 1,       kMax - 1,
                                   kMax};
  Rng rng(4242);
  const auto coord = [&] {
    // Mostly pool values; sometimes an arbitrary 64-bit value.
    return rng.NextBounded(4) == 0 ? rng.Next()
                                   : pool[rng.NextBounded(pool.size())];
  };
  for (int trial = 0; trial < 50; ++trial) {
    for (std::size_t n : {0u, 1u, 3u, 4u, 5u, 63u, 64u}) {
      std::vector<WeightedKey> entries(n);
      for (std::size_t j = 0; j < n; ++j) {
        entries[j] = {static_cast<KeyId>(j), 1.0, {coord(), coord()}};
      }
      for (std::size_t nb : {0u, 1u, 8u, 25u}) {
        std::vector<Box> boxes(nb);
        for (Box& b : boxes) {
          // Random bounds in either order: hi <= lo gives empty boxes, and
          // independent boxes overlap freely.
          b = {{coord(), coord()}, {coord(), coord()}};
          if (rng.NextBounded(2) == 0) {
            if (b.x.hi < b.x.lo) std::swap(b.x.lo, b.x.hi);
            if (b.y.hi < b.y.lo) std::swap(b.y.lo, b.y.hi);
          }
        }
        const std::uint64_t want =
            ClassicInBoxesMask(entries.data(), n, boxes.data(), nb);
        for (simd::Level level : {simd::Level::kScalar, simd::DetectLevel()}) {
          ASSERT_TRUE(simd::SetLevel(level));
          ASSERT_EQ(simd::InBoxesMask(entries.data(), n, boxes.data(), nb),
                    want)
              << "trial=" << trial << " n=" << n << " nb=" << nb
              << " level=" << simd::LevelName(level);
        }
      }
    }
  }
}

TEST(SimdInBoxesMask, EdgesAreHalfOpenAcrossTheSignFlip) {
  LevelGuard guard;
  constexpr Coord kMax = ~Coord{0};
  constexpr Coord kHalf = Coord{1} << 63;
  // Box [2^63 - 1, 2^63 + 1) x [0, 2^64 - 1): the x edge straddles the
  // sign bit, and the y range excludes only 2^64 - 1.
  const Box box{{kHalf - 1, kHalf + 1}, {0, kMax}};
  const std::vector<WeightedKey> entries = {
      {0, 1.0, {kHalf - 2, 5}},  // x below lo
      {1, 1.0, {kHalf - 1, 5}},  // x == lo: in
      {2, 1.0, {kHalf, 0}},      // y == 0 == lo: in
      {3, 1.0, {kHalf + 1, 5}},  // x == hi: out
      {4, 1.0, {kHalf, kMax}},   // y == hi: out
      {5, 1.0, {kMax, 5}},       // far above
      {6, 1.0, {0, 5}},          // far below
      {7, 1.0, {kHalf, kMax - 1}},  // in
  };
  for (simd::Level level : {simd::Level::kScalar, simd::DetectLevel()}) {
    ASSERT_TRUE(simd::SetLevel(level));
    EXPECT_EQ(simd::InBoxesMask(entries.data(), entries.size(), &box, 1),
              0b10000110u)
        << simd::LevelName(level);
  }
}

}  // namespace
}  // namespace sas

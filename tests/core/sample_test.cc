#include "core/sample.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/random.h"
#include "core/simd.h"

namespace sas {
namespace {

Sample MakeSample() {
  // tau = 2: weights below 2 are adjusted up to 2.
  std::vector<WeightedKey> entries{
      {0, 5.0, {10, 10}},  // heavy: adjusted weight 5
      {1, 1.0, {20, 20}},  // light: adjusted weight 2
      {2, 0.5, {30, 30}},  // light: adjusted weight 2
  };
  return Sample(2.0, std::move(entries));
}

TEST(Sample, AdjustedWeights) {
  const Sample s = MakeSample();
  EXPECT_DOUBLE_EQ(s.AdjustedWeight(s.entries()[0]), 5.0);
  EXPECT_DOUBLE_EQ(s.AdjustedWeight(s.entries()[1]), 2.0);
  EXPECT_DOUBLE_EQ(s.AdjustedWeight(s.entries()[2]), 2.0);
}

TEST(Sample, EstimateTotal) {
  EXPECT_DOUBLE_EQ(MakeSample().EstimateTotal(), 9.0);
}

TEST(Sample, EstimateBox) {
  const Sample s = MakeSample();
  EXPECT_DOUBLE_EQ(s.EstimateBox({{0, 15}, {0, 15}}), 5.0);
  EXPECT_DOUBLE_EQ(s.EstimateBox({{0, 25}, {0, 25}}), 7.0);
  EXPECT_DOUBLE_EQ(s.EstimateBox({{0, 100}, {0, 100}}), 9.0);
  EXPECT_DOUBLE_EQ(s.EstimateBox({{50, 60}, {50, 60}}), 0.0);
}

TEST(Sample, EstimateBoxBoundariesHalfOpen) {
  const Sample s = MakeSample();
  // Point at (10,10): box [10,11)x[10,11) contains it; [0,10)x... does not.
  EXPECT_DOUBLE_EQ(s.EstimateBox({{10, 11}, {10, 11}}), 5.0);
  EXPECT_DOUBLE_EQ(s.EstimateBox({{0, 10}, {0, 10}}), 0.0);
}

TEST(Sample, EstimateQueryDisjointBoxes) {
  const Sample s = MakeSample();
  MultiRangeQuery q;
  q.boxes.push_back({{0, 15}, {0, 15}});
  q.boxes.push_back({{25, 35}, {25, 35}});
  EXPECT_DOUBLE_EQ(s.EstimateQuery(q), 7.0);
}

TEST(Sample, CountInBox) {
  const Sample s = MakeSample();
  EXPECT_EQ(s.CountInBox({{0, 25}, {0, 25}}), 2u);
  EXPECT_EQ(s.CountInBox({{0, 100}, {0, 100}}), 3u);
}

TEST(Sample, EstimateSubsetPredicate) {
  const Sample s = MakeSample();
  const Weight est =
      s.EstimateSubset([](const WeightedKey& k) { return k.id != 1; });
  EXPECT_DOUBLE_EQ(est, 7.0);
}

TEST(Sample, EmptySample) {
  const Sample s;
  EXPECT_EQ(s.size(), 0u);
  EXPECT_DOUBLE_EQ(s.EstimateTotal(), 0.0);
  EXPECT_DOUBLE_EQ(s.EstimateBox({{0, 100}, {0, 100}}), 0.0);
}

TEST(Sample, ZeroTauActsAsExact) {
  std::vector<WeightedKey> entries{{0, 1.5, {1, 1}}, {1, 2.5, {2, 2}}};
  const Sample s(0.0, std::move(entries));
  EXPECT_DOUBLE_EQ(s.EstimateTotal(), 4.0);
}

// The Sample scans before the block-wise InBoxesMask kernel, verbatim:
// the oracles the kernel-backed scans must match bit for bit.
Weight ClassicEstimateBox(const Sample& s, const Box& box) {
  Weight total = 0.0;
  for (const auto& k : s.entries()) {
    if (box.Contains(k.pt)) total += s.AdjustedWeight(k);
  }
  return total;
}

Weight ClassicEstimateQuery(const Sample& s, const MultiRangeQuery& q) {
  Weight total = 0.0;
  for (const auto& k : s.entries()) {
    for (const auto& box : q.boxes) {
      if (box.Contains(k.pt)) {
        total += s.AdjustedWeight(k);
        break;  // rectangles are disjoint
      }
    }
  }
  return total;
}

std::size_t ClassicCountInBox(const Sample& s, const Box& box) {
  std::size_t c = 0;
  for (const auto& k : s.entries()) {
    if (box.Contains(k.pt)) ++c;
  }
  return c;
}

TEST(Sample, BoxScansBitIdenticalToClassicLoopsOnEveryLevel) {
  const simd::Level saved = simd::ActiveLevel();
  Rng rng(2024);
  constexpr Coord kDomain = 1 << 12;
  const auto random_box = [&] {
    const Coord x0 = rng.NextBounded(kDomain);
    const Coord y0 = rng.NextBounded(kDomain);
    return Box{{x0, x0 + rng.NextBounded(kDomain / 2)},
               {y0, y0 + rng.NextBounded(kDomain / 2)}};
  };
  for (std::size_t size : {1u, 1000u, 1001u}) {
    const double tau = 2.0;
    std::vector<WeightedKey> entries(size);
    for (std::size_t i = 0; i < size; ++i) {
      // Pareto weights around tau, with weights exactly tau and exactly 0
      // mixed in (both adjust to tau).
      const std::uint64_t kind = rng.NextBounded(8);
      const double w = kind == 0 ? tau : kind == 1 ? 0.0 : rng.NextPareto(1.2);
      entries[i] = {static_cast<KeyId>(i), w,
                    {rng.NextBounded(kDomain), rng.NextBounded(kDomain)}};
    }
    const Sample sample(tau, std::move(entries));
    for (int trial = 0; trial < 40; ++trial) {
      MultiRangeQuery q;
      const std::size_t nb = trial % 4 == 0 ? 0 : 1 + rng.NextBounded(25);
      for (std::size_t b = 0; b < nb; ++b) q.boxes.push_back(random_box());
      const Box box = random_box();
      const Weight want_query = ClassicEstimateQuery(sample, q);
      const Weight want_box = ClassicEstimateBox(sample, box);
      const std::size_t want_count = ClassicCountInBox(sample, box);
      for (simd::Level level : {simd::Level::kScalar, simd::DetectLevel()}) {
        EXPECT_TRUE(simd::SetLevel(level));
        EXPECT_EQ(sample.EstimateQuery(q), want_query)
            << "s=" << size << " trial=" << trial
            << " level=" << simd::LevelName(level);
        EXPECT_EQ(sample.EstimateBox(box), want_box)
            << "s=" << size << " trial=" << trial
            << " level=" << simd::LevelName(level);
        EXPECT_EQ(sample.CountInBox(box), want_count)
            << "s=" << size << " trial=" << trial
            << " level=" << simd::LevelName(level);
      }
    }
  }
  simd::SetLevel(saved);
}

}  // namespace
}  // namespace sas

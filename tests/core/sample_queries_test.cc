#include "core/sample_queries.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/random.h"
#include "oracles/varopt_offline.h"

namespace sas {
namespace {

Sample ExactSampleOf(const std::vector<std::pair<Coord, Weight>>& data) {
  // tau = 0: the "sample" is the full data, so query answers are exact.
  std::vector<WeightedKey> entries;
  KeyId id = 0;
  for (const auto& [x, w] : data) entries.push_back({id++, w, {x, 0}});
  return Sample(0.0, std::move(entries));
}

TEST(QuantileX, ExactOnFullData) {
  const Sample s = ExactSampleOf({{10, 1}, {20, 1}, {30, 1}, {40, 1}});
  EXPECT_EQ(EstimateQuantileX(s, 0.25), 10u);
  EXPECT_EQ(EstimateQuantileX(s, 0.5), 20u);
  EXPECT_EQ(EstimateQuantileX(s, 1.0), 40u);
}

TEST(QuantileX, WeightedMedian) {
  const Sample s = ExactSampleOf({{1, 9}, {2, 1}, {3, 1}});
  EXPECT_EQ(EstimateQuantileX(s, 0.5), 1u);  // 9/11 of mass at x=1
}

TEST(QuantileX, EmptySample) {
  const Sample s;
  EXPECT_EQ(EstimateQuantileX(s, 0.5), 0u);
}

TEST(QuantileX, SubsetRestriction) {
  const Sample s = ExactSampleOf({{10, 1}, {20, 1}, {30, 1}, {40, 1}});
  const Coord med = EstimateSubsetQuantileX(
      s, 0.5, [](const WeightedKey& k) { return k.pt.x >= 25; });
  EXPECT_EQ(med, 30u);
}

TEST(QuantileX, AccurateFromSample) {
  // Quantiles from a VarOpt sample approximate the exact quantiles.
  Rng rng(1);
  std::vector<WeightedKey> items;
  std::vector<std::pair<Coord, Weight>> data;
  for (KeyId i = 0; i < 5000; ++i) {
    const Coord x = rng.NextBounded(1 << 20);
    const Weight w = rng.NextPareto(1.5);
    items.push_back({i, w, {x, 0}});
    data.push_back({x, w});
  }
  const Sample exact = ExactSampleOf(data);
  const Sample sampled = VarOptOffline(items, 500.0, &rng);
  for (double q : {0.1, 0.5, 0.9}) {
    const double truth = static_cast<double>(EstimateQuantileX(exact, q));
    const double est = static_cast<double>(EstimateQuantileX(sampled, q));
    EXPECT_NEAR(est / (1 << 20), truth / (1 << 20), 0.05) << "q=" << q;
  }
}

TEST(HeavyHitters, FindsObviousHitter) {
  const Sample s = ExactSampleOf({{1, 100}, {2, 1}, {3, 1}, {4, 1}});
  const auto hh = EstimateHeavyHitters(s, 0.5);
  ASSERT_EQ(hh.size(), 1u);
  EXPECT_EQ(hh[0].key.pt.x, 1u);
  EXPECT_NEAR(hh[0].estimated_fraction, 100.0 / 103.0, 1e-9);
}

TEST(HeavyHitters, SortedByWeight) {
  const Sample s = ExactSampleOf({{1, 30}, {2, 50}, {3, 20}});
  const auto hh = EstimateHeavyHitters(s, 0.15);
  ASSERT_EQ(hh.size(), 3u);
  EXPECT_EQ(hh[0].key.pt.x, 2u);
  EXPECT_EQ(hh[1].key.pt.x, 1u);
  EXPECT_EQ(hh[2].key.pt.x, 3u);
}

TEST(HeavyHitters, NoFalseNegativesFromVarOptSample) {
  // A key with weight >= phi * W is a certain inclusion once tau <= phi*W,
  // so the heavy hitter must always be reported from the sample.
  Rng rng(2);
  std::vector<WeightedKey> items;
  Weight total = 0.0;
  for (KeyId i = 0; i < 1000; ++i) {
    const Weight w = 1.0 + rng.NextDouble();
    items.push_back({i, w, {i, 0}});
    total += w;
  }
  items[123].weight = total;  // ~50% of the new total
  for (int t = 0; t < 20; ++t) {
    const Sample sample = VarOptOffline(items, 50.0, &rng);
    const auto hh = EstimateHeavyHitters(sample, 0.3);
    ASSERT_GE(hh.size(), 1u);
    EXPECT_EQ(hh[0].key.id, 123u);
  }
}

TEST(RangeHeavyHitters, IntervalAggregation) {
  const Sample s =
      ExactSampleOf({{5, 10}, {6, 10}, {100, 1}, {101, 1}, {200, 78}});
  const std::vector<Interval> ranges{{0, 10}, {100, 110}, {200, 201}};
  const auto hh = EstimateRangeHeavyHittersX(s, ranges, 0.2);
  ASSERT_EQ(hh.size(), 2u);
  EXPECT_EQ(hh[0].range.lo, 0u);
  EXPECT_NEAR(hh[0].estimated_weight, 20.0, 1e-9);
  EXPECT_EQ(hh[1].range.lo, 200u);
}

TEST(RangeHeavyHitters, EmptySample) {
  const Sample s;
  EXPECT_TRUE(EstimateRangeHeavyHittersX(s, {{0, 10}}, 0.1).empty());
}

}  // namespace
}  // namespace sas

#include "aware/disjoint_summarizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/ipps.h"
#include "core/pair_aggregate.h"
#include "core/random.h"
#include "oracles/summarize.h"

namespace sas {
namespace {

std::vector<WeightedKey> MakeItems(const std::vector<Weight>& w) {
  std::vector<WeightedKey> items(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    items[i] = {static_cast<KeyId>(i), w[i], {static_cast<Coord>(i), 0}};
  }
  return items;
}

TEST(DisjointSummarize, ExactSampleSize) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 10 + rng.NextBounded(100);
    const int ranges = 2 + static_cast<int>(rng.NextBounded(8));
    std::vector<Weight> w(n);
    std::vector<int> range_of(n);
    for (std::size_t i = 0; i < n; ++i) {
      w[i] = rng.NextPareto(1.3);
      range_of[i] = static_cast<int>(rng.NextBounded(ranges));
    }
    const std::size_t s = 1 + rng.NextBounded(n - 1);
    const auto result = DisjointSummarize(MakeItems(w), range_of, ranges,
                                          static_cast<double>(s), &rng);
    EXPECT_EQ(result.sample.size(), s);
  }
}

TEST(DisjointSummarize, EveryRangeFloorOrCeil) {
  Rng rng(2);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 20 + rng.NextBounded(80);
    const int ranges = 2 + static_cast<int>(rng.NextBounded(10));
    std::vector<Weight> w(n);
    std::vector<int> range_of(n);
    for (std::size_t i = 0; i < n; ++i) {
      w[i] = rng.NextPareto(1.2);
      range_of[i] = static_cast<int>(rng.NextBounded(ranges));
    }
    const double s = 2 + static_cast<double>(rng.NextBounded(15));
    const auto result =
        DisjointSummarize(MakeItems(w), range_of, ranges, s, &rng);

    std::vector<double> expected(ranges, 0.0);
    std::vector<int> actual(ranges, 0);
    for (std::size_t i = 0; i < n; ++i) {
      expected[range_of[i]] += result.probs[i];
    }
    for (const auto& e : result.sample.entries()) actual[range_of[e.id]]++;
    for (int r = 0; r < ranges; ++r) {
      ASSERT_TRUE(actual[r] == static_cast<int>(std::floor(expected[r])) ||
                  actual[r] == static_cast<int>(std::ceil(expected[r])))
          << "range " << r << " expected " << expected[r] << " got "
          << actual[r];
    }
  }
}

TEST(DisjointSummarize, InclusionFrequencyMatchesIpps) {
  const std::vector<Weight> w{8.0, 4.0, 2.0, 1.0, 1.0, 1.0, 1.0};
  const std::vector<int> range_of{0, 0, 1, 1, 2, 2, 2};
  const double s = 3.0;
  const double tau = SolveTau(w, s);
  const auto items = MakeItems(w);
  std::vector<int> hits(w.size(), 0);
  const int trials = 60000;
  Rng rng(3);
  for (int t = 0; t < trials; ++t) {
    const auto result = DisjointSummarize(items, range_of, 3, s, &rng);
    for (const auto& e : result.sample.entries()) hits[e.id]++;
  }
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(hits[i]) / trials,
                IppsProbability(w[i], tau), 0.012)
        << "key " << i;
  }
}

TEST(DisjointAggregate, SingleRangeDegeneratesToChain) {
  Rng rng(4);
  std::vector<double> p{0.5, 0.5, 0.5, 0.5};
  DisjointAggregate(&p, {0, 0, 0, 0}, 1, &rng);
  int ones = 0;
  for (double x : p) {
    EXPECT_TRUE(IsSet(x));
    ones += x == 1.0;
  }
  EXPECT_EQ(ones, 2);
}

TEST(DisjointAggregate, EmptyRangesTolerated) {
  Rng rng(5);
  std::vector<double> p{0.5, 0.5};
  DisjointAggregate(&p, {0, 3}, 5, &rng);  // ranges 1,2,4 empty
  EXPECT_TRUE(IsSet(p[0]) && IsSet(p[1]));
}

}  // namespace
}  // namespace sas

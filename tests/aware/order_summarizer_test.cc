#include "aware/order_summarizer.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/discrepancy.h"
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

TEST(OrderSummarize, ExactSampleSize) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 10 + rng.NextBounded(200);
    std::vector<Weight> w(n);
    for (auto& x : w) x = rng.NextPareto(1.2);
    const std::size_t s = 1 + rng.NextBounded(n - 1);
    const auto result =
        OrderSummarize(MakeItems(w), static_cast<double>(s), &rng);
    EXPECT_EQ(result.sample.size(), s);
  }
}

// Theorem 1(i): interval discrepancy < 2, prefix discrepancy < 1.
struct OrderCase {
  std::size_t n;
  double s;
};

class OrderDiscrepancy : public ::testing::TestWithParam<OrderCase> {};

TEST_P(OrderDiscrepancy, PrefixBelowOneIntervalBelowTwo) {
  const auto [n, s] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 131 + s));
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Weight> w(n);
    for (auto& x : w) x = rng.NextPareto(1.2);
    const auto items = MakeItems(w);
    const auto result = OrderSummarize(items, s, &rng);

    std::vector<KeyId> ids;
    for (const auto& e : result.sample.entries()) ids.push_back(e.id);
    const auto flags = SampleFlags(n, ids);
    EXPECT_LT(MaxPrefixDiscrepancy(result.probs, flags), 1.0 + 1e-9);
    EXPECT_LT(MaxIntervalDiscrepancy(result.probs, flags), 2.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OrderDiscrepancy,
                         ::testing::Values(OrderCase{8, 3.0},
                                           OrderCase{20, 5.0},
                                           OrderCase{50, 7.0},
                                           OrderCase{100, 4.0},
                                           OrderCase{100, 40.0},
                                           OrderCase{200, 13.0}));

TEST(OrderSummarize, InclusionFrequencyMatchesIpps) {
  const std::vector<Weight> w{8.0, 4.0, 2.0, 1.0, 1.0, 1.0, 1.0};
  const double s = 3.0;
  const double tau = SolveTau(w, s);
  const auto items = MakeItems(w);
  std::vector<int> hits(w.size(), 0);
  const int trials = 60000;
  Rng rng(2);
  for (int t = 0; t < trials; ++t) {
    const SummarizeResult result = OrderSummarize(items, s, &rng);
    for (const auto& e : result.sample.entries()) {
      hits[e.id]++;
    }
  }
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(hits[i]) / trials,
                IppsProbability(w[i], tau), 0.012)
        << "key " << i;
  }
}

TEST(OrderSummarize, UnbiasedRangeSum) {
  Rng rng(3);
  std::vector<Weight> w(50);
  for (auto& x : w) x = rng.NextPareto(1.4);
  const auto items = MakeItems(w);
  Weight truth = 0.0;
  for (std::size_t i = 10; i < 30; ++i) truth += w[i];
  const Box range{{10, 30}, {0, 1}};

  double total = 0.0;
  const int trials = 40000;
  for (int t = 0; t < trials; ++t) {
    total += OrderSummarize(items, 10.0, &rng).sample.EstimateBox(range);
  }
  EXPECT_NEAR(total / trials / truth, 1.0, 0.02);
}

TEST(OrderSummarize, UnsortedInputHandled) {
  // Items arrive in scrambled coordinate order; discrepancy is measured in
  // coordinate order and must still satisfy the bound.
  Rng rng(4);
  const std::size_t n = 60;
  std::vector<WeightedKey> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i] = {static_cast<KeyId>(i), rng.NextPareto(1.3),
                {static_cast<Coord>((i * 37) % n), 0}};
  }
  for (int trial = 0; trial < 100; ++trial) {
    const auto result = OrderSummarize(items, 9.0, &rng);
    // Discrepancy in coordinate order: reindex by x.
    std::vector<double> probs_by_x(n);
    std::vector<char> flags_by_x(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      probs_by_x[items[i].pt.x] = result.probs[i];
    }
    for (const auto& e : result.sample.entries()) flags_by_x[e.pt.x] = 1;
    EXPECT_LT(MaxIntervalDiscrepancy(probs_by_x, flags_by_x), 2.0 + 1e-9);
  }
}

TEST(OrderAggregate, SetsEverything) {
  Rng rng(5);
  std::vector<double> p{0.25, 0.5, 0.75, 0.5};
  std::vector<std::size_t> order{0, 1, 2, 3};
  OrderAggregate(&p, order, &rng);
  for (double x : p) EXPECT_TRUE(IsSet(x));
}

}  // namespace
}  // namespace sas

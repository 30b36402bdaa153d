#include "oracles/varopt_offline.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/ipps.h"
#include "core/pair_aggregate.h"
#include "core/random.h"
#include "core/settle.h"

namespace sas {
namespace {

std::vector<WeightedKey> MakeItems(const std::vector<Weight>& w) {
  std::vector<WeightedKey> items(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    items[i] = {static_cast<KeyId>(i), w[i], {static_cast<Coord>(i), 0}};
  }
  return items;
}

TEST(VarOptOffline, ExactSampleSize) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 10 + rng.NextBounded(200);
    std::vector<Weight> w(n);
    for (auto& x : w) x = rng.NextPareto(1.2);
    const std::size_t s = 1 + rng.NextBounded(n - 1);
    const Sample sample =
        VarOptOffline(MakeItems(w), static_cast<double>(s), &rng);
    EXPECT_EQ(sample.size(), s) << "n=" << n;
  }
}

TEST(VarOptOffline, InclusionFrequencyMatchesIpps) {
  Rng rng(2);
  const std::vector<Weight> w{8.0, 4.0, 2.0, 1.0, 1.0, 1.0, 1.0};
  const double s = 3.0;
  const double tau = SolveTau(w, s);
  const auto items = MakeItems(w);
  std::vector<int> hits(w.size(), 0);
  const int trials = 50000;
  for (int t = 0; t < trials; ++t) {
    const Sample sample = VarOptOffline(items, s, &rng);
    for (const auto& e : sample.entries()) {
      hits[e.id]++;
    }
  }
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(hits[i]) / trials,
                IppsProbability(w[i], tau), 0.01)
        << "key " << i;
  }
}

TEST(VarOptOffline, UnbiasedSubsetSum) {
  Rng rng(3);
  const std::vector<Weight> w{5.0, 3.0, 2.0, 2.0, 1.0, 1.0, 0.5, 0.5};
  const auto items = MakeItems(w);
  const Box subset{{2, 6}, {0, 1}};  // keys 2..5, true weight 6
  double total = 0.0;
  const int trials = 50000;
  for (int t = 0; t < trials; ++t) {
    total += VarOptOffline(items, 4.0, &rng).EstimateBox(subset);
  }
  EXPECT_NEAR(total / trials, 6.0, 0.05);
}

TEST(VarOptOffline, VarianceAtMostPoisson) {
  // VarOpt subset-sum variance must not exceed Poisson's for the same s.
  Rng rng(4);
  const std::size_t n = 40;
  std::vector<Weight> w(n);
  for (auto& x : w) x = rng.NextPareto(1.3);
  const auto items = MakeItems(w);
  const double s = 8.0;
  const Box subset{{0, 20}, {0, 1}};
  Weight truth = 0.0;
  for (std::size_t i = 0; i < 20; ++i) truth += w[i];

  const int trials = 20000;
  double var_vo = 0.0;
  for (int t = 0; t < trials; ++t) {
    const double est = VarOptOffline(items, s, &rng).EstimateBox(subset);
    var_vo += (est - truth) * (est - truth);
  }
  var_vo /= trials;

  // Poisson variance computed in closed form: sum w_i (tau - w_i) over
  // subset keys with w < tau.
  const double tau = SolveTau(w, s);
  double var_poisson = 0.0;
  for (std::size_t i = 0; i < 20; ++i) {
    if (w[i] < tau) var_poisson += w[i] * (tau - w[i]);
  }
  EXPECT_LE(var_vo, var_poisson * 1.10);  // 10% statistical slack
}

TEST(VarOptOffline, AllKeysWhenSampleIsLarge) {
  Rng rng(5);
  const auto items = MakeItems({1.0, 2.0, 3.0});
  const Sample sample = VarOptOffline(items, 3.0, &rng);
  EXPECT_EQ(sample.size(), 3u);
  EXPECT_DOUBLE_EQ(sample.tau(), 0.0);
  EXPECT_DOUBLE_EQ(sample.EstimateTotal(), 6.0);
}

TEST(VarOptOffline, OrderSettleSetsAllEntries) {
  Rng rng(6);
  std::vector<double> p{0.3, 0.7, 0.4, 0.6, 0.5, 0.5};
  std::vector<std::size_t> order{0, 1, 2, 3, 4, 5};
  OrderAggregate(&p, order, &rng);
  int ones = 0;
  for (double x : p) {
    EXPECT_TRUE(IsSet(x));
    ones += x == 1.0;
  }
  EXPECT_EQ(ones, 3);  // total mass 3.0
}

}  // namespace
}  // namespace sas

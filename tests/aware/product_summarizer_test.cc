#include "aware/product_summarizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "core/ipps.h"
#include "core/random.h"
#include "oracles/product_summarize.h"
#include "sampling/varopt_offline.h"
#include "summaries/exact_summary.h"

namespace sas {
namespace {

std::vector<WeightedKey> RandomItems(std::size_t n, Coord domain, Rng* rng,
                                     double alpha = 1.3) {
  std::set<std::pair<Coord, Coord>> seen;
  while (seen.size() < n) {
    seen.insert({rng->NextBounded(domain), rng->NextBounded(domain)});
  }
  std::vector<WeightedKey> items;
  KeyId id = 0;
  for (const auto& [x, y] : seen) {
    items.push_back({id++, rng->NextPareto(alpha), {x, y}});
  }
  return items;
}

TEST(ProductSummarize, ExactSampleSize) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 50 + rng.NextBounded(300);
    const auto items = RandomItems(n, 1 << 16, &rng);
    const std::size_t s = 5 + rng.NextBounded(n / 2);
    const auto result =
        ProductSummarize(items, static_cast<double>(s), &rng);
    EXPECT_EQ(result.sample.size(), s);
  }
}

TEST(ProductSummarize, InclusionFrequencyMatchesIpps) {
  Rng rng(2);
  const auto items = RandomItems(30, 1 << 10, &rng);
  std::vector<Weight> w;
  for (const auto& it : items) w.push_back(it.weight);
  const double s = 8.0;
  const double tau = SolveTau(w, s);
  std::vector<int> hits(items.size(), 0);
  const int trials = 40000;
  for (int t = 0; t < trials; ++t) {
    const SummarizeResult result = ProductSummarize(items, s, &rng);
    for (const auto& e : result.sample.entries()) {
      hits[e.id]++;
    }
  }
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(hits[i]) / trials,
                IppsProbability(w[i], tau), 0.015)
        << "key " << i;
  }
}

TEST(ProductSummarize, UnbiasedBoxSum) {
  Rng rng(3);
  const auto items = RandomItems(120, 1 << 12, &rng);
  const Box box{{0, 1 << 11}, {0, 1 << 11}};
  const Weight truth = ExactBoxSum(items, box);
  ASSERT_GT(truth, 0.0);
  double total = 0.0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    total += ProductSummarize(items, 20.0, &rng).sample.EstimateBox(box);
  }
  EXPECT_NEAR(total / trials / truth, 1.0, 0.03);
}

TEST(ProductSummarize, BoxDiscrepancyBeatsOblivious) {
  // The Section 4 claim: on box ranges, the structure-aware sample has
  // (much) lower count discrepancy than an oblivious VarOpt sample of the
  // same size. Compare RMS discrepancy over a fixed set of boxes.
  Rng rng(4);
  const auto items = RandomItems(600, 1 << 14, &rng);
  std::vector<Weight> w;
  for (const auto& it : items) w.push_back(it.weight);
  const double s = 60.0;
  const double tau = SolveTau(w, s);
  std::vector<double> probs;
  IppsProbabilities(w, tau, &probs);

  std::vector<Box> boxes;
  for (int i = 0; i < 30; ++i) {
    const Coord x0 = rng.NextBounded(1 << 13);
    const Coord y0 = rng.NextBounded(1 << 13);
    const Coord wx = 1 + rng.NextBounded(1 << 13);
    const Coord wy = 1 + rng.NextBounded(1 << 13);
    boxes.push_back({{x0, x0 + wx}, {y0, y0 + wy}});
  }
  auto rms_disc = [&](auto&& sampler) {
    double total = 0.0;
    const int trials = 300;
    for (int t = 0; t < trials; ++t) {
      const Sample sample = sampler();
      for (const auto& box : boxes) {
        double expected = 0.0;
        for (std::size_t i = 0; i < items.size(); ++i) {
          if (box.Contains(items[i].pt)) expected += probs[i];
        }
        const double d =
            static_cast<double>(sample.CountInBox(box)) - expected;
        total += d * d;
      }
    }
    return std::sqrt(total / (trials * boxes.size()));
  };

  const double aware = rms_disc(
      [&] { return ProductSummarize(items, s, &rng).sample; });
  const double obliv =
      rms_disc([&] { return VarOptOffline(items, s, &rng); });
  EXPECT_LT(aware, 0.8 * obliv)
      << "aware rms=" << aware << " obliv rms=" << obliv;
}

TEST(KdAggregate, AllSetAndMassConserved) {
  Rng rng(5);
  std::vector<Point2D> pts;
  std::vector<double> probs;
  for (int i = 0; i < 64; ++i) {
    pts.push_back({rng.NextBounded(1024), rng.NextBounded(1024)});
    probs.push_back(0.25);
  }
  const KdHierarchy tree = KdHierarchy::Build(pts, probs);
  std::vector<double> work = probs;
  KdAggregate(&work, tree, &rng);
  int ones = 0;
  for (double x : work) {
    EXPECT_TRUE(x == 0.0 || x == 1.0);
    ones += x == 1.0;
  }
  EXPECT_EQ(ones, 16);  // total mass 64 * 0.25
}

TEST(ProductSummarize, HeavyKeysAlwaysIncluded) {
  Rng rng(6);
  auto items = RandomItems(100, 1 << 10, &rng);
  items[7].weight = 1e6;
  for (int t = 0; t < 30; ++t) {
    const auto result = ProductSummarize(items, 10.0, &rng);
    bool found = false;
    for (const auto& e : result.sample.entries()) found |= e.id == 7;
    EXPECT_TRUE(found);
  }
}

}  // namespace
}  // namespace sas

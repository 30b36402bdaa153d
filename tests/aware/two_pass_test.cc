#include "aware/two_pass.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "core/ipps.h"
#include "core/random.h"
#include "oracles/varopt_offline.h"
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

TEST(TwoPassProduct, ExactSampleSize) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 100 + rng.NextBounded(400);
    const auto items = RandomItems(n, 1 << 16, &rng);
    const std::size_t s = 5 + rng.NextBounded(40);
    const Sample sample = TwoPassProductSample(
        items, static_cast<double>(s), TwoPassConfig{}, &rng);
    EXPECT_EQ(sample.size(), s) << "n=" << n << " s=" << s;
  }
}

TEST(TwoPassProduct, ThresholdMatchesOffline) {
  Rng rng(2);
  const auto items = RandomItems(500, 1 << 14, &rng);
  std::vector<Weight> w;
  for (const auto& it : items) w.push_back(it.weight);
  const Sample sample =
      TwoPassProductSample(items, 25.0, TwoPassConfig{}, &rng);
  EXPECT_NEAR(sample.tau(), SolveTau(w, 25.0), 1e-9 * (1 + sample.tau()));
}

TEST(TwoPassProduct, InclusionFrequencyMatchesIpps) {
  Rng rng(3);
  const auto items = RandomItems(40, 1 << 10, &rng);
  std::vector<Weight> w;
  for (const auto& it : items) w.push_back(it.weight);
  const double s = 10.0;
  const double tau = SolveTau(w, s);
  std::vector<int> hits(items.size(), 0);
  const int trials = 30000;
  for (int t = 0; t < trials; ++t) {
    const Sample sample =
        TwoPassProductSample(items, s, TwoPassConfig{}, &rng);
    for (const auto& e : sample.entries()) hits[e.id]++;
  }
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(hits[i]) / trials,
                IppsProbability(w[i], tau), 0.015)
        << "key " << i;
  }
}

TEST(TwoPassProduct, UnbiasedBoxSum) {
  Rng rng(4);
  const auto items = RandomItems(300, 1 << 12, &rng);
  const Box box{{0, 1 << 11}, {0, 1 << 12}};
  const Weight truth = ExactBoxSum(items, box);
  ASSERT_GT(truth, 0.0);
  double total = 0.0;
  const int trials = 15000;
  for (int t = 0; t < trials; ++t) {
    total += TwoPassProductSample(items, 30.0, TwoPassConfig{}, &rng)
                 .EstimateBox(box);
  }
  EXPECT_NEAR(total / trials / truth, 1.0, 0.03);
}

TEST(TwoPassProduct, BoxDiscrepancyBeatsOblivious) {
  Rng rng(5);
  const auto items = RandomItems(800, 1 << 14, &rng);
  std::vector<Weight> w;
  for (const auto& it : items) w.push_back(it.weight);
  const double s = 80.0;
  const double tau = SolveTau(w, s);
  std::vector<double> probs;
  IppsProbabilities(w, tau, &probs);

  std::vector<Box> boxes;
  for (int i = 0; i < 25; ++i) {
    const Coord x0 = rng.NextBounded(1 << 13);
    const Coord y0 = rng.NextBounded(1 << 13);
    const Coord wx = 1 + rng.NextBounded(1 << 13);
    const Coord wy = 1 + rng.NextBounded(1 << 13);
    boxes.push_back({{x0, x0 + wx}, {y0, y0 + wy}});
  }
  auto rms_disc = [&](auto&& sampler) {
    double total = 0.0;
    const int trials = 200;
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

  const double aware = rms_disc([&] {
    return TwoPassProductSample(items, s, TwoPassConfig{}, &rng);
  });
  const double obliv =
      rms_disc([&] { return VarOptOffline(items, s, &rng); });
  EXPECT_LT(aware, 0.9 * obliv)
      << "aware rms=" << aware << " obliv rms=" << obliv;
}

TEST(TwoPassOrder, ExactSampleSize) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 100 + rng.NextBounded(300);
    const auto items = RandomItems(n, 1 << 16, &rng);
    const std::size_t s = 5 + rng.NextBounded(30);
    const Sample sample = TwoPassOrderSample(
        items, static_cast<double>(s), TwoPassConfig{}, &rng);
    EXPECT_EQ(sample.size(), s);
  }
}

TEST(TwoPassOrder, IntervalDiscrepancyBelowTwoWhp) {
  // Section 5: with s' = Omega(s log s) the two-pass order summary matches
  // the main-memory Delta < 2 bound with high probability. The violation
  // probability must decay with the oversampling factor (measured here:
  // ~36% at 5x, ~10% at 8x, ~2% at 16x on this workload), and even a
  // violating run stays close to 2 (cells have O(1) mass).
  Rng rng(8);
  auto run = [&](double factor) {
    int violations = 0;
    double worst = 0.0;
    for (int trial = 0; trial < 100; ++trial) {
      const std::size_t n = 400;
      std::vector<WeightedKey> items(n);
      for (std::size_t i = 0; i < n; ++i) {
        items[i] = {static_cast<KeyId>(i), rng.NextPareto(1.3),
                    {static_cast<Coord>(i * 7 + rng.NextBounded(7)), 0}};
      }
      const double s = 20.0;
      TwoPassConfig cfg;
      cfg.sprime_factor = factor;
      const Sample sample = TwoPassOrderSample(items, s, cfg, &rng);

      std::vector<Weight> w;
      for (const auto& it : items) w.push_back(it.weight);
      const double tau = SolveTau(w, s);
      std::vector<double> probs;
      IppsProbabilities(w, tau, &probs);
      // Items are already x-sorted by construction here.
      std::vector<char> flags(n, 0);
      for (const auto& e : sample.entries()) flags[e.id] = 1;
      double diff = 0.0, lo = 0.0, hi = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        diff += (flags[i] ? 1.0 : 0.0) - probs[i];
        lo = std::min(lo, diff);
        hi = std::max(hi, diff);
      }
      if (hi - lo >= 2.0 + 1e-9) ++violations;
      worst = std::max(worst, hi - lo);
    }
    return std::make_pair(violations, worst);
  };
  const auto [v16, worst16] = run(16.0);
  EXPECT_LE(v16, 12);       // w.h.p. at a large factor
  EXPECT_LT(worst16, 3.0);  // violations stay near the bound
  const auto [v4, worst4] = run(4.0);
  (void)worst4;
  EXPECT_LE(v16, v4 + 5);  // decays with the factor
}

TEST(TwoPassProduct, TinyStreams) {
  Rng rng(9);
  // Fewer items than s: everything is kept.
  const auto items = RandomItems(5, 64, &rng);
  const Sample sample =
      TwoPassProductSample(items, 10.0, TwoPassConfig{}, &rng);
  EXPECT_EQ(sample.size(), 5u);
  EXPECT_DOUBLE_EQ(sample.tau(), 0.0);
}

}  // namespace
}  // namespace sas

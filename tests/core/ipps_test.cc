#include "core/ipps.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "core/random.h"
#include "oracles/lane_sum.h"

namespace sas {
namespace {

double ProbSum(const std::vector<Weight>& w, double tau) {
  double sum = 0.0;
  for (Weight x : w) sum += IppsProbability(x, tau);
  return sum;
}

TEST(IppsProbability, Basics) {
  EXPECT_DOUBLE_EQ(IppsProbability(2.0, 4.0), 0.5);
  EXPECT_DOUBLE_EQ(IppsProbability(4.0, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(IppsProbability(8.0, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(IppsProbability(0.0, 4.0), 0.0);
}

TEST(IppsProbability, ZeroThresholdMeansCertain) {
  EXPECT_DOUBLE_EQ(IppsProbability(0.5, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(IppsProbability(0.0, 0.0), 0.0);
}

TEST(SolveTau, UniformWeights) {
  // n uniform weights, target s: tau = n*w/s.
  std::vector<Weight> w(10, 2.0);
  const double tau = SolveTau(w, 4.0);
  EXPECT_NEAR(tau, 10 * 2.0 / 4.0, 1e-12);
  EXPECT_NEAR(ProbSum(w, tau), 4.0, 1e-9);
}

TEST(SolveTau, MixedHeavyLight) {
  std::vector<Weight> w{100.0, 1.0, 1.0, 1.0, 1.0};
  const double tau = SolveTau(w, 3.0);
  // The 100 is certain; remaining 4 unit weights share s - 1 = 2: tau = 2.
  EXPECT_NEAR(tau, 2.0, 1e-12);
  EXPECT_NEAR(ProbSum(w, tau), 3.0, 1e-9);
}

TEST(SolveTau, SampleSizeAtLeastN) {
  std::vector<Weight> w{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(SolveTau(w, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(SolveTau(w, 10.0), 0.0);
}

TEST(SolveTau, IgnoresZeroWeights) {
  std::vector<Weight> w{1.0, 0.0, 1.0, 0.0};
  EXPECT_DOUBLE_EQ(SolveTau(w, 2.0), 0.0);  // only 2 positive keys
  const double tau = SolveTau(w, 1.0);
  EXPECT_NEAR(ProbSum(w, tau), 1.0, 1e-9);
}

TEST(SolveTau, RandomInputsSatisfyConstraint) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 5 + rng.NextBounded(200);
    std::vector<Weight> w(n);
    for (auto& x : w) x = rng.NextPareto(1.1);
    const double s = 1 + static_cast<double>(rng.NextBounded(n - 1));
    const double tau = SolveTau(w, s);
    ASSERT_GT(tau, 0.0);
    EXPECT_NEAR(ProbSum(w, tau), s, 1e-6 * s);
  }
}

TEST(SolveTau, FractionalTarget) {
  std::vector<Weight> w{5.0, 4.0, 3.0, 2.0, 1.0};
  const double s = 2.5;
  const double tau = SolveTau(w, s);
  EXPECT_NEAR(ProbSum(w, tau), s, 1e-9);
}

TEST(SolveTau, AllEqualWeightsAreExact) {
  // Regression: all-equal inputs used to rely on the candidate scan (and
  // could drift into the bisection fallback near the s ~ n boundary); the
  // first pass now finds every weight light, so tau = total/s exactly.
  std::vector<Weight> w(1000, 0.1);
  const double total = LaneSum(w);
  EXPECT_DOUBLE_EQ(SolveTau(w, 999.5), total / 999.5);
  EXPECT_DOUBLE_EQ(SolveTau(w, 1.0), total);
  EXPECT_DOUBLE_EQ(SolveTau(w, 1000.0), 0.0);
}

TEST(SolveTau, ZeroFilteredBoundary) {
  // s >= the positive count after zero-filtering must return exactly 0,
  // regardless of how many zero weights pad the input.
  std::vector<Weight> w{0.0, 7.0, 0.0, 7.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(SolveTau(w, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(SolveTau(w, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(SolveTau(w, 1.5), 14.0 / 1.5);
}

TEST(SolveTau, ScratchOverloadMatchesWrapper) {
  IppsScratch scratch;
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.NextBounded(300);
    std::vector<Weight> w(n);
    for (auto& x : w) x = rng.NextPareto(1.2);
    const double s = 1 + static_cast<double>(rng.NextBounded(n - 1));
    EXPECT_EQ(SolveTau(w, s), SolveTau(w.data(), w.size(), s, &scratch));
  }
}

TEST(IppsProbabilities, Fills) {
  std::vector<Weight> w{4.0, 2.0, 1.0, 1.0};
  std::vector<double> probs;
  IppsProbabilities(w, 2.0, &probs);
  ASSERT_EQ(probs.size(), 4u);
  EXPECT_DOUBLE_EQ(probs[0], 1.0);
  EXPECT_DOUBLE_EQ(probs[1], 1.0);
  EXPECT_DOUBLE_EQ(probs[2], 0.5);
  EXPECT_DOUBLE_EQ(probs[3], 0.5);
}

TEST(StreamTau, MatchesOfflineUniform) {
  StreamTau st(3.0);
  std::vector<Weight> w(4, 1.0);
  for (Weight x : w) st.Push(x);
  EXPECT_NEAR(st.tau(), SolveTau(w, 3.0), 1e-12);
}

TEST(StreamTau, MatchesOfflineOnRandomStreams) {
  Rng rng(4242);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 10 + rng.NextBounded(500);
    const double s = 2 + static_cast<double>(rng.NextBounded(20));
    std::vector<Weight> w(n);
    for (auto& x : w) x = rng.NextPareto(1.2);
    StreamTau st(s);
    for (Weight x : w) st.Push(x);
    const double offline = SolveTau(w, s);
    EXPECT_NEAR(st.tau(), offline, 1e-9 * (1.0 + offline))
        << "n=" << n << " s=" << s;
  }
}

TEST(StreamTau, PrefixExactness) {
  // After each push beyond s items, the tracker's tau must solve the
  // prefix equation (below s items the solution set is an interval and the
  // offline solver's 0 convention need not match; every key still has
  // inclusion probability 1 either way).
  Rng rng(777);
  const double s = 5.0;
  StreamTau st(s);
  std::vector<Weight> prefix;
  for (int i = 0; i < 200; ++i) {
    const Weight w = rng.NextPareto(1.5);
    prefix.push_back(w);
    st.Push(w);
    if (prefix.size() > static_cast<std::size_t>(s)) {
      const double expected = SolveTau(prefix, s);
      ASSERT_NEAR(st.tau(), expected, 1e-9 * (1.0 + expected)) << "i=" << i;
    } else {
      // All keys must be certain inclusions under the tracker's threshold.
      for (Weight x : prefix) {
        ASSERT_DOUBLE_EQ(IppsProbability(x, st.tau()), 1.0);
      }
    }
  }
}

TEST(StreamTau, ZeroWeightsIgnored) {
  StreamTau st(2.0);
  st.Push(0.0);
  st.Push(1.0);
  st.Push(0.0);
  st.Push(1.0);
  // Exactly s positive keys: both must be certain inclusions.
  EXPECT_DOUBLE_EQ(IppsProbability(1.0, st.tau()), 1.0);
  st.Push(1.0);
  EXPECT_NEAR(st.tau(), 1.5, 1e-12);  // 3 unit keys, s = 2
  EXPECT_EQ(st.count(), 5u);
}

TEST(StreamTau, HeapBounded) {
  StreamTau st(8.0);
  Rng rng(55);
  for (int i = 0; i < 10000; ++i) st.Push(rng.NextPareto(1.1));
  EXPECT_LE(st.heap_size(), 8u);
}

TEST(StreamTau, OrderInvariance) {
  // tau depends only on the multiset of weights.
  Rng rng(66);
  std::vector<Weight> w(300);
  for (auto& x : w) x = rng.NextPareto(1.3);
  StreamTau fwd(7.0), rev(7.0);
  for (Weight x : w) fwd.Push(x);
  for (auto it = w.rbegin(); it != w.rend(); ++it) rev.Push(*it);
  EXPECT_NEAR(fwd.tau(), rev.tau(), 1e-9 * (1.0 + fwd.tau()));
}

}  // namespace
}  // namespace sas

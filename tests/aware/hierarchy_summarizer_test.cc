#include "aware/hierarchy_summarizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/discrepancy.h"
#include "core/ipps.h"
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

/// Max discrepancy over every node range of the hierarchy.
double MaxNodeDiscrepancy(const Hierarchy& h, const std::vector<double>& probs,
                          const std::vector<char>& flags) {
  double worst = 0.0;
  for (int v = 0; v < h.num_nodes(); ++v) {
    double expected = 0.0, actual = 0.0;
    for (std::size_t r = h.leaf_begin(v); r < h.leaf_end(v); ++r) {
      const KeyId k = h.key_at_rank(r);
      expected += probs[k];
      actual += flags[k];
    }
    worst = std::max(worst, std::fabs(actual - expected));
  }
  return worst;
}

TEST(HierarchySummarize, ExactSampleSize) {
  Rng rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    Rng tree_rng = rng.Split();
    const std::size_t n = 10 + rng.NextBounded(150);
    const Hierarchy h = Hierarchy::Random(n, 5, &tree_rng);
    std::vector<Weight> w(n);
    for (auto& x : w) x = rng.NextPareto(1.2);
    const std::size_t s = 1 + rng.NextBounded(n - 1);
    const auto result =
        HierarchySummarize(MakeItems(w), h, static_cast<double>(s), &rng);
    EXPECT_EQ(result.sample.size(), s);
  }
}

// The headline guarantee of Section 3: every hierarchy node sees a number
// of samples equal to the floor or ceiling of its expectation (Delta < 1).
struct HierCase {
  std::size_t n;
  double s;
  int branching;
};

class HierarchyDiscrepancy : public ::testing::TestWithParam<HierCase> {};

TEST_P(HierarchyDiscrepancy, EveryNodeBelowOne) {
  const auto [n, s, branching] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 977 + s * 13 + branching));
  for (int trial = 0; trial < 200; ++trial) {
    Rng tree_rng = rng.Split();
    const Hierarchy h = Hierarchy::Random(n, branching, &tree_rng);
    std::vector<Weight> w(n);
    for (auto& x : w) x = rng.NextPareto(1.2);
    const auto items = MakeItems(w);
    const auto result = HierarchySummarize(items, h, s, &rng);

    std::vector<KeyId> ids;
    for (const auto& e : result.sample.entries()) ids.push_back(e.id);
    const auto flags = SampleFlags(n, ids);
    ASSERT_LT(MaxNodeDiscrepancy(h, result.probs, flags), 1.0 + 1e-9)
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HierarchyDiscrepancy,
                         ::testing::Values(HierCase{10, 4.0, 2},
                                           HierCase{32, 7.0, 2},
                                           HierCase{50, 10.0, 4},
                                           HierCase{100, 5.0, 8},
                                           HierCase{100, 60.0, 3},
                                           HierCase{250, 25.0, 5}));

TEST(HierarchySummarize, PaperFigure1Example) {
  // The worked example of Figure 1: 10 leaves, s = 4, IPPS probabilities
  // 0.3 0.6 0.4 0.7 0.1 0.8 0.4 0.2 0.3 0.2 (sum = 4). With tau = 10 the
  // corresponding weights are p * tau.
  const std::vector<Weight> w{3, 6, 4, 7, 1, 8, 4, 2, 3, 2};
  const double s = 4.0;
  const double tau = SolveTau(w, s);
  EXPECT_NEAR(tau, 10.0, 1e-9);
  const std::vector<double> paper_probs{0.3, 0.6, 0.4, 0.7, 0.1,
                                        0.8, 0.4, 0.2, 0.3, 0.2};
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(IppsProbability(w[i], tau), paper_probs[i], 1e-12);
  }
  // Hierarchy matching the figure's pairing order: groups {1,2}, {3,4},
  // leaf 5 under the root, {6,7}, {8,9,10}.
  // Node ids: 0 root; 1 = group A, 2 = group B, 3 = leaf 5, 4 = group C,
  // 5 = group D; then the grouped leaves.
  const std::vector<int> parent{-1, 0, 0, 0, 0, 0, 1, 1, 2, 2, 4, 4, 5, 5, 5};
  const Hierarchy h = Hierarchy::FromParents(parent);
  ASSERT_EQ(h.num_keys(), 10u);

  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const auto result = HierarchySummarize(MakeItems(w), h, s, &rng);
    ASSERT_EQ(result.sample.size(), 4u);
    // Every internal node gets floor/ceil of its expectation.
    std::vector<KeyId> ids;
    for (const auto& e : result.sample.entries()) ids.push_back(e.id);
    const auto flags = SampleFlags(10, ids);
    for (int v = 0; v < h.num_nodes(); ++v) {
      double expected = 0.0;
      int actual = 0;
      for (std::size_t r = h.leaf_begin(v); r < h.leaf_end(v); ++r) {
        expected += result.probs[h.key_at_rank(r)];
        actual += flags[h.key_at_rank(r)];
      }
      EXPECT_TRUE(actual == static_cast<int>(std::floor(expected)) ||
                  actual == static_cast<int>(std::ceil(expected)))
          << "node " << v << " expected " << expected << " got " << actual;
    }
  }
}

TEST(HierarchySummarize, InclusionFrequencyMatchesIpps) {
  const std::vector<Weight> w{6, 4, 2, 3, 2, 4, 3, 8, 7, 1};
  const double s = 4.0;
  const double tau = SolveTau(w, s);
  Rng tree_rng(5);
  const Hierarchy h = Hierarchy::Random(w.size(), 3, &tree_rng);
  const auto items = MakeItems(w);
  std::vector<int> hits(w.size(), 0);
  const int trials = 60000;
  Rng rng(6);
  for (int t = 0; t < trials; ++t) {
    const SummarizeResult result = HierarchySummarize(items, h, s, &rng);
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

TEST(HierarchySummarize, UnbiasedNodeSum) {
  Rng tree_rng(7);
  const std::size_t n = 60;
  const Hierarchy h = Hierarchy::Random(n, 4, &tree_rng);
  Rng rng(8);
  std::vector<Weight> w(n);
  for (auto& x : w) x = rng.NextPareto(1.4);
  const auto items = MakeItems(w);
  // Pick an internal node covering a few keys.
  int node = -1;
  for (int v = 0; v < h.num_nodes(); ++v) {
    if (!h.is_leaf(v) && h.leaf_end(v) - h.leaf_begin(v) >= 5 &&
        h.leaf_end(v) - h.leaf_begin(v) <= 20) {
      node = v;
      break;
    }
  }
  ASSERT_GE(node, 0);
  Weight truth = 0.0;
  for (std::size_t r = h.leaf_begin(node); r < h.leaf_end(node); ++r) {
    truth += w[h.key_at_rank(r)];
  }

  double total = 0.0;
  const int trials = 30000;
  for (int t = 0; t < trials; ++t) {
    const auto result = HierarchySummarize(items, h, 12.0, &rng);
    total += result.sample.EstimateSubset([&](const WeightedKey& k) {
      const std::size_t r = h.rank_of_key(k.id);
      return r >= h.leaf_begin(node) && r < h.leaf_end(node);
    });
  }
  EXPECT_NEAR(total / trials / truth, 1.0, 0.02);
}

TEST(HierarchyAggregate, BalancedTreeUniformProbs) {
  // 16 leaves at p=1/2 on a complete binary tree: every subtree of 2^k
  // leaves must get exactly 2^(k-1) samples (discrepancy 0 at even masses).
  const Hierarchy h = Hierarchy::Balanced(4, 2);
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> p(16, 0.5);
    HierarchyAggregate(&p, h, &rng);
    for (int v = 0; v < h.num_nodes(); ++v) {
      const std::size_t span = h.leaf_end(v) - h.leaf_begin(v);
      if (span >= 2) {
        int ones = 0;
        for (std::size_t r = h.leaf_begin(v); r < h.leaf_end(v); ++r) {
          ones += p[h.key_at_rank(r)] == 1.0;
        }
        EXPECT_EQ(ones, static_cast<int>(span / 2)) << "node " << v;
      }
    }
  }
}

}  // namespace
}  // namespace sas

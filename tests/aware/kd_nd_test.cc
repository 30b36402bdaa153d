#include "aware/product_summarizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "core/ipps.h"
#include "core/pair_aggregate.h"
#include "core/random.h"
#include "core/types.h"
#include "oracles/product_summarize.h"

namespace sas {
namespace {

struct NdData {
  std::vector<Coord> coords;  // flat, n * dims
  std::vector<Weight> weights;
};

NdData RandomNd(std::size_t n, int dims, Coord domain, Rng* rng) {
  NdData data;
  std::set<std::vector<Coord>> seen;
  while (seen.size() < n) {
    std::vector<Coord> pt(dims);
    for (auto& c : pt) c = rng->NextBounded(domain);
    seen.insert(pt);
  }
  for (const auto& pt : seen) {
    for (Coord c : pt) data.coords.push_back(c);
    data.weights.push_back(rng->NextPareto(1.3));
  }
  return data;
}

TEST(BoxNContains, Works) {
  const BoxN box{{0, 10}, {5, 15}, {2, 3}};
  const Coord in[] = {9, 5, 2};
  const Coord out[] = {10, 5, 2};
  EXPECT_TRUE(BoxNContains(box, in));
  EXPECT_FALSE(BoxNContains(box, out));
}

TEST(KdHierarchyNd, MassConservation3D) {
  Rng rng(1);
  const auto data = RandomNd(300, 3, 1 << 10, &rng);
  std::vector<double> mass(data.weights.begin(), data.weights.end());
  const KdHierarchy tree = KdHierarchy::Build(data.coords, 3, mass);
  double total = 0.0;
  for (double m : mass) total += m;
  EXPECT_NEAR(tree.nodes()[tree.root()].mass, total, 1e-9);
  for (const auto& node : tree.nodes()) {
    if (!node.IsLeaf()) {
      EXPECT_NEAR(node.mass,
                  tree.nodes()[node.left].mass + tree.nodes()[node.right].mass,
                  1e-9);
    }
  }
}

TEST(KdHierarchyNd, OneLeafPerPoint) {
  Rng rng(2);
  const auto data = RandomNd(200, 4, 1 << 12, &rng);
  std::vector<double> mass(data.weights.size(), 1.0);
  const KdHierarchy tree = KdHierarchy::Build(data.coords, 4, mass);
  int leaves = 0;
  for (const auto& node : tree.nodes()) leaves += node.IsLeaf();
  EXPECT_EQ(leaves, 200);
}

TEST(ProductSummarizeNd, ExactSampleSize3D) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const auto data = RandomNd(150 + rng.NextBounded(200), 3, 1 << 12, &rng);
    const std::size_t s = 5 + rng.NextBounded(40);
    const ResultNd r = ProductSummarizeNd(data.coords, 3, data.weights,
                                          static_cast<double>(s), &rng);
    EXPECT_EQ(r.chosen.size(), s);
  }
}

TEST(ProductSummarizeNd, MarginalsMatchIpps3D) {
  Rng rng(4);
  const auto data = RandomNd(30, 3, 1 << 8, &rng);
  const double s = 8.0;
  const double tau = SolveTau(data.weights, s);
  std::vector<int> hits(data.weights.size(), 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    const ResultNd r = ProductSummarizeNd(data.coords, 3, data.weights, s,
                                          &rng);
    for (std::size_t i : r.chosen) hits[i]++;
  }
  for (std::size_t i = 0; i < data.weights.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(hits[i]) / trials,
                IppsProbability(data.weights[i], tau), 0.02)
        << "key " << i;
  }
}

TEST(ProductSummarizeNd, BoxDiscrepancyBeatsOblivious3D) {
  // Section 4 in 3-D: the aware sample's box-count discrepancy beats a
  // structure-oblivious aggregation at equal size. The oblivious
  // comparison aggregates the same probabilities in random order.
  Rng rng(5);
  const auto data = RandomNd(800, 3, 1 << 10, &rng);
  const std::size_t n = data.weights.size();
  const double s = 64.0;
  const double tau = SolveTau(data.weights, s);
  std::vector<double> probs;
  IppsProbabilities(data.weights, tau, &probs);

  std::vector<BoxN> boxes;
  for (int b = 0; b < 20; ++b) {
    BoxN box(3);
    for (int a = 0; a < 3; ++a) {
      const Coord lo = rng.NextBounded(1 << 9);
      box[a] = {lo, lo + 1 + rng.NextBounded(1 << 9)};
    }
    boxes.push_back(box);
  }
  std::vector<double> expected(boxes.size(), 0.0);
  for (std::size_t b = 0; b < boxes.size(); ++b) {
    for (std::size_t i = 0; i < n; ++i) {
      if (BoxNContains(boxes[b], &data.coords[i * 3])) {
        expected[b] += probs[i];
      }
    }
  }
  auto rms = [&](auto&& chooser) {
    double sq = 0.0;
    const int trials = 150;
    for (int t = 0; t < trials; ++t) {
      const std::vector<std::size_t> chosen = chooser();
      std::vector<char> in(n, 0);
      for (std::size_t i : chosen) in[i] = 1;
      for (std::size_t b = 0; b < boxes.size(); ++b) {
        double actual = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          if (in[i] && BoxNContains(boxes[b], &data.coords[i * 3])) {
            actual += 1.0;
          }
        }
        const double d = actual - expected[b];
        sq += d * d;
      }
    }
    return std::sqrt(sq / (trials * boxes.size()));
  };

  const double aware = rms([&] {
    return ProductSummarizeNd(data.coords, 3, data.weights, s, &rng).chosen;
  });
  const double obliv = rms([&] {
    // Oblivious: aggregate the same probabilities in random order.
    std::vector<double> work = probs;
    for (auto& q : work) q = SnapProbability(q);
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBounded(i)]);
    }
    const std::size_t leftover = ChainAggregate(&work, order, kNoEntry, &rng);
    ResolveResidual(&work, leftover, &rng);
    std::vector<std::size_t> chosen;
    for (std::size_t i = 0; i < n; ++i) {
      if (work[i] == 1.0) chosen.push_back(i);
    }
    return chosen;
  });
  EXPECT_LT(aware, 0.95 * obliv) << "aware=" << aware << " obliv=" << obliv;
}

TEST(ProductSummarizeNd, OneDimensionalDegenerate) {
  // dims = 1 reduces to the order structure.
  Rng rng(6);
  const auto data = RandomNd(100, 1, 1 << 14, &rng);
  const ResultNd r = ProductSummarizeNd(data.coords, 1, data.weights, 10.0,
                                        &rng);
  EXPECT_EQ(r.chosen.size(), 10u);
}

}  // namespace
}  // namespace sas

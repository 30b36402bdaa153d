// The statistical contract of the kd summarizers, `product` and `nd`
// (paper Section 4 KD-HIERARCHY, Appendix E), checked through the
// registry over many seeds:
//   * every node v of the full-depth KD-HIERARCHY over the open keys (mass
//     = IPPS probability) holds floor(m_v) or ceil(m_v) sampled keys — the
//     per-node property the range-discrepancy bound rests on;
//   * each key's inclusion frequency matches its IPPS probability within a
//     binomial z-bound (false-alarm rate 1e-6 per test, Bonferroni over the
//     open keys); certain keys are in every sample;
//   * the sample size is exactly s and the total weight is preserved.
// The builds cut the tree at cells of mass <= 1, so the reference tree is
// deeper than the one that drew the sample; the node property must hold
// on the full tree all the same.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/keys.h"
#include "api/registry.h"
#include "aware/kd_hierarchy.h"
#include "core/ipps.h"
#include "core/pair_aggregate.h"
#include "core/random.h"
#include "core/types.h"

namespace sas {
namespace {

/// n distinct points of `dims` coordinates (flat) with Pareto weights.
struct Keys {
  int dims = 0;
  std::vector<Coord> coords;
  std::vector<Weight> weights;
};

Keys ParetoKeys(std::size_t n, int dims, std::uint64_t seed) {
  Rng rng(seed);
  std::set<std::vector<Coord>> seen;
  Keys k;
  k.dims = dims;
  while (seen.size() < n) {
    std::vector<Coord> pt(static_cast<std::size_t>(dims));
    for (auto& c : pt) c = rng.NextBounded(Coord{1} << 16);
    if (!seen.insert(pt).second) continue;
    k.coords.insert(k.coords.end(), pt.begin(), pt.end());
    k.weights.push_back(rng.NextPareto(1.15));
  }
  return k;
}

/// The keys as WeightedKey items with id = index (dims must be 2).
std::vector<WeightedKey> AsItems(const Keys& k) {
  std::vector<WeightedKey> items;
  for (std::size_t i = 0; i < k.weights.size(); ++i) {
    items.push_back({static_cast<KeyId>(i), k.weights[i],
                     {k.coords[2 * i], k.coords[2 * i + 1]}});
  }
  return items;
}

/// Finalizes `key` over the keys: `product` and `sharded:` keys by
/// AddBatch of the 2-D items, `nd` by AddCoords (ids = insertion index).
std::unique_ptr<RangeSummary> BuildSummary(const std::string& key,
                                           const Keys& k, double s,
                                           std::uint64_t seed) {
  SummarizerConfig cfg;
  cfg.s = s;
  cfg.seed = seed;
  if (key == keys::kNd) {
    cfg.structure = StructureSpec::Nd(k.dims);
    auto builder = MakeSummarizer(key, cfg);
    const std::size_t ud = static_cast<std::size_t>(k.dims);
    for (std::size_t i = 0; i < k.weights.size(); ++i) {
      builder->AddCoords(static_cast<KeyId>(i), k.coords.data() + i * ud,
                         k.dims, k.weights[i]);
    }
    return builder->Finalize();
  }
  auto builder = MakeSummarizer(key, cfg);
  builder->AddBatch(AsItems(k));
  return builder->Finalize();
}

/// Two-sided standard-normal quantile: the z with P(|Z| > z) = alpha.
double TwoSidedZ(double alpha) {
  double lo = 0.0, hi = 40.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    (std::erfc(mid / std::sqrt(2.0)) > alpha ? lo : hi) = mid;
  }
  return hi;
}

double TotalWeight(const Keys& k) {
  double total = 0.0;
  for (Weight w : k.weights) total += w;
  return total;
}

/// Runs `key` over `seeds` seeds and checks the whole contract against the
/// full-depth tree over the open keys.
void CheckKdContract(const std::string& key, const Keys& k, double s,
                     int seeds) {
  const std::size_t n = k.weights.size();
  const std::size_t ud = static_cast<std::size_t>(k.dims);
  std::vector<double> probs;
  IppsProbabilities(k.weights, SolveTau(k.weights, s), &probs);
  for (auto& q : probs) q = SnapProbability(q);

  // Open keys (0 < p < 1) and the full-depth tree over them.
  std::vector<std::size_t> open;
  std::vector<std::size_t> local(n, n);  // input index -> open index
  std::vector<Coord> coords;
  std::vector<double> mass;
  for (std::size_t i = 0; i < n; ++i) {
    if (IsSet(probs[i])) continue;
    local[i] = open.size();
    open.push_back(i);
    coords.insert(coords.end(), k.coords.begin() + i * ud,
                  k.coords.begin() + (i + 1) * ud);
    mass.push_back(probs[i]);
  }
  ASSERT_GT(open.size(), 100u);
  const KdHierarchy tree = KdHierarchy::Build(coords, k.dims, mass);
  const auto& nodes = tree.nodes();

  const double total = TotalWeight(k);
  std::vector<int> hits(n, 0);
  std::vector<char> sampled(open.size());
  std::vector<int> count(nodes.size());
  std::size_t node_checks = 0, violations = 0;
  Rng seeder(0xC0FFEE);
  for (int r = 0; r < seeds; ++r) {
    const auto summary = BuildSummary(key, k, s, seeder.Next());
    // The reference tree is over the builder's own open keys.
    if (r == 0) {
      ASSERT_EQ(summary->AsSample()->probs(), probs);
    }
    const Sample& sample = summary->AsSample()->sample();
    ASSERT_EQ(sample.size(), static_cast<std::size_t>(s)) << "round " << r;
    ASSERT_NEAR(sample.EstimateTotal(), total, 1e-9 * total) << "round " << r;

    std::fill(sampled.begin(), sampled.end(), 0);
    for (const auto& e : sample.entries()) {
      ++hits[e.id];
      if (local[e.id] != n) sampled[local[e.id]] = 1;
    }
    // Children follow their parent in the node array: a reverse scan
    // counts bottom-up.
    for (std::size_t v = nodes.size(); v-- > 0;) {
      const auto& node = nodes[v];
      if (node.IsLeaf()) {
        int c = 0;
        for (std::size_t j = node.begin; j < node.end; ++j) {
          c += sampled[tree.item_order()[j]];
        }
        count[v] = c;
      } else {
        count[v] = count[static_cast<std::size_t>(node.left)] +
                   count[static_cast<std::size_t>(node.right)];
      }
      ++node_checks;
      const bool ok = count[v] >= std::floor(node.mass - 1e-9) &&
                      count[v] <= std::ceil(node.mass + 1e-9);
      if (!ok && ++violations <= 5) {
        ADD_FAILURE() << key << " round " << r << ": node " << v
                      << " (mass " << node.mass << ", items "
                      << node.end - node.begin << ") holds " << count[v]
                      << " sampled keys";
      }
    }
  }
  EXPECT_EQ(violations, 0u) << "of " << node_checks << " node checks";

  const double z = TwoSidedZ(1e-6 / static_cast<double>(open.size()));
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (probs[i] == 1.0) {
      EXPECT_EQ(hits[i], seeds) << key << " certain key " << i;
      continue;
    }
    if (IsSet(probs[i])) continue;
    const double mean = seeds * probs[i];
    const double sd = std::sqrt(seeds * probs[i] * (1.0 - probs[i]));
    const double dev = std::abs(hits[i] - mean) / sd;
    worst = std::max(worst, dev);
    EXPECT_LE(dev, z) << key << " key " << i << " p=" << probs[i]
                      << " hits=" << hits[i] << " of " << seeds;
  }
  ::testing::Test::RecordProperty(key + "_node_checks",
                                  std::to_string(node_checks));
  ::testing::Test::RecordProperty(key + "_worst_z", std::to_string(worst));
}

TEST(KdContract, ProductFloorCeilOnEveryNodeAndIppsMarginals) {
  const Keys k = ParetoKeys(3000, /*dims=*/2, /*seed=*/20);
  CheckKdContract(keys::kProduct, k, /*s=*/150.0, /*seeds=*/1500);
}

TEST(KdContract, NdFloorCeilOnEveryNodeAndIppsMarginals) {
  const Keys k = ParetoKeys(3000, /*dims=*/3, /*seed=*/30);
  CheckKdContract(keys::kNd, k, /*s=*/150.0, /*seeds=*/1500);
}

TEST(KdContract, ShardedProductKeepsSizeAndTotals) {
  // The merge re-settles the shards' samples in a random order, so only
  // the size and total contract carries through sharded:.
  const Keys k = ParetoKeys(3000, /*dims=*/2, /*seed=*/40);
  const double total = TotalWeight(k);
  Rng seeder(41);
  for (int r = 0; r < 100; ++r) {
    const auto summary =
        BuildSummary("sharded:3:product", k, 150.0, seeder.Next());
    const Sample& sample = summary->AsSample()->sample();
    ASSERT_EQ(sample.size(), 150u) << "round " << r;
    ASSERT_NEAR(sample.EstimateTotal(), total, 1e-9 * total) << "round " << r;
  }
}

}  // namespace
}  // namespace sas

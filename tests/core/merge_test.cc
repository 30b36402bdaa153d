// MergeSamples / MergeAllSamples correctness: exact invariants (everything
// fits, total preservation, output size) and statistical unbiasedness of
// the merged Horvitz-Thompson estimates over order-, hierarchy-, and
// product-structured data (fixed-seed tolerance tests).

#include "core/merge.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "aware/hierarchy_summarizer.h"
#include "aware/order_summarizer.h"
#include "aware/product_summarizer.h"
#include "core/random.h"
#include "oracles/summarize.h"
#include "oracles/varopt_offline.h"
#include "structure/hierarchy.h"

namespace sas {
namespace {

std::vector<WeightedKey> ParetoItems(std::size_t n, Coord domain, Rng* rng) {
  std::vector<WeightedKey> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i] = {static_cast<KeyId>(i), rng->NextPareto(1.3),
                {rng->NextBounded(domain), rng->NextBounded(domain)}};
  }
  return items;
}

Weight ExactBox(const std::vector<WeightedKey>& items, const Box& box) {
  Weight total = 0.0;
  for (const auto& it : items) {
    if (box.Contains(it.pt)) total += it.weight;
  }
  return total;
}

TEST(MergeSamples, KeepsEverythingWhenItFits) {
  const Sample a(2.0, {{0, 1.0, {0, 0}}, {1, 5.0, {1, 0}}});
  const Sample b(3.0, {{2, 1.5, {2, 0}}, {3, 9.0, {3, 0}}});
  Rng rng(1);
  const Sample merged = MergeSamples(a, b, 100, &rng);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_DOUBLE_EQ(merged.tau(), 0.0);
  // Entries are carried at their adjusted weights: the light entries (1.0
  // under tau 2.0, 1.5 under tau 3.0) become 2.0 and 3.0; the heavy ones
  // keep their weights. Estimates therefore add exactly.
  EXPECT_DOUBLE_EQ(merged.EstimateTotal(),
                   a.EstimateTotal() + b.EstimateTotal());
  const Box left{{0, 2}, {0, 1}};
  EXPECT_DOUBLE_EQ(merged.EstimateBox(left), a.EstimateBox(left));
}

TEST(MergeSamples, NoRandomnessConsumedWhenItFits) {
  const Sample a(0.0, {{0, 1.0, {0, 0}}});
  const Sample b(0.0, {{1, 2.0, {1, 0}}});
  Rng rng(7), untouched(7);
  (void)MergeSamples(a, b, 10, &rng);
  EXPECT_EQ(rng.Next(), untouched.Next());
}

TEST(MergeSamples, OutputSizeAndTotalPreservation) {
  Rng data_rng(21);
  const auto items = ParetoItems(600, 1 << 12, &data_rng);
  const std::vector<WeightedKey> half_a(items.begin(), items.begin() + 300);
  const std::vector<WeightedKey> half_b(items.begin() + 300, items.end());
  const std::size_t s = 48;

  Rng seeder(22);
  for (int trial = 0; trial < 50; ++trial) {
    Rng rng = seeder.Split();
    const Sample a = VarOptOffline(half_a, static_cast<double>(s), &rng);
    const Sample b = VarOptOffline(half_b, static_cast<double>(s), &rng);
    const Sample merged = MergeSamples(a, b, s, &rng);

    // VarOpt keeps the sample size fixed (floating-point residual may move
    // it by one) and preserves the total estimate deterministically.
    EXPECT_NEAR(static_cast<double>(merged.size()), static_cast<double>(s),
                1.0);
    EXPECT_GE(merged.tau(), std::max(0.0, std::min(a.tau(), b.tau())));
    const Weight total_in = a.EstimateTotal() + b.EstimateTotal();
    EXPECT_NEAR(merged.EstimateTotal() / total_in, 1.0, 1e-9);
  }
}

/// Merges two independently-built samples of the two halves of `items`
/// across `trials` seeds and checks that the mean EstimateBox lands within
/// `rel_tol` of the exact answer — the fixed-seed unbiasedness harness
/// shared by the per-structure tests below.
template <typename SampleHalf>
void CheckMergedBoxUnbiased(const std::vector<WeightedKey>& items,
                            const Box& box, std::size_t s, int trials,
                            double rel_tol, SampleHalf&& sample_half) {
  const Weight exact = ExactBox(items, box);
  ASSERT_GT(exact, 0.0);
  const std::size_t mid = items.size() / 2;
  const std::vector<WeightedKey> half_a(items.begin(), items.begin() + mid);
  const std::vector<WeightedKey> half_b(items.begin() + mid, items.end());

  double sum = 0.0;
  Rng seeder(777);
  for (int t = 0; t < trials; ++t) {
    Rng rng = seeder.Split();
    const Sample a = sample_half(half_a, /*first=*/true, &rng);
    const Sample b = sample_half(half_b, /*first=*/false, &rng);
    const Sample merged = MergeSamples(a, b, s, &rng);
    sum += merged.EstimateBox(box);
  }
  EXPECT_NEAR(sum / trials / exact, 1.0, rel_tol);
}

TEST(MergeSamples, UnbiasedOverOrderData) {
  // 1-D order-structured halves summarized by the order-aware sampler.
  Rng data_rng(31);
  std::vector<WeightedKey> items(400);
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i] = {static_cast<KeyId>(i), data_rng.NextPareto(1.3),
                {static_cast<Coord>(i % 200), 0}};
  }
  const Box box{{0, 90}, {0, 1}};
  CheckMergedBoxUnbiased(
      items, box, 40, 400, 0.04,
      [](const std::vector<WeightedKey>& half, bool, Rng* rng) {
        return OrderSummarize(half, 32.0, rng).sample;
      });
}

TEST(MergeSamples, UnbiasedOverHierarchyData) {
  // Each half carries its own random hierarchy over its local key ids.
  Rng data_rng(32);
  std::vector<WeightedKey> items(400);
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i] = {static_cast<KeyId>(i % 200), data_rng.NextPareto(1.3),
                {static_cast<Coord>(i % 200), 0}};
  }
  Rng tree_rng(33);
  const Hierarchy ha = Hierarchy::Random(200, 4, &tree_rng);
  const Hierarchy hb = Hierarchy::Random(200, 4, &tree_rng);
  const Box box{{0, 90}, {0, 1}};
  CheckMergedBoxUnbiased(
      items, box, 40, 400, 0.04,
      [&](const std::vector<WeightedKey>& half, bool first, Rng* rng) {
        return HierarchySummarize(half, first ? ha : hb, 32.0, rng).sample;
      });
}

TEST(MergeSamples, UnbiasedOverProductData) {
  Rng data_rng(34);
  const auto items = ParetoItems(400, 1 << 10, &data_rng);
  const Box box{{0, 1 << 9}, {0, 1 << 10}};
  CheckMergedBoxUnbiased(
      items, box, 40, 400, 0.04,
      [](const std::vector<WeightedKey>& half, bool, Rng* rng) {
        return ProductSummarize(half, 32.0, rng).sample;
      });
}

TEST(MergeAllSamples, NWayMatchesExactTotalAndIsUnbiased) {
  Rng data_rng(35);
  const auto items = ParetoItems(800, 1 << 10, &data_rng);
  Weight exact_total = 0.0;
  for (const auto& it : items) exact_total += it.weight;
  const Box box{{0, 1 << 9}, {0, 1 << 9}};
  const Weight exact_box = ExactBox(items, box);

  const std::size_t parts = 4, s = 64;
  double sum_box = 0.0;
  const int trials = 300;
  Rng seeder(36);
  for (int t = 0; t < trials; ++t) {
    Rng rng = seeder.Split();
    std::vector<Sample> shards;
    for (std::size_t p = 0; p < parts; ++p) {
      const std::vector<WeightedKey> slice(
          items.begin() + p * items.size() / parts,
          items.begin() + (p + 1) * items.size() / parts);
      shards.push_back(VarOptOffline(slice, static_cast<double>(s), &rng));
    }
    const Sample merged = MergeAllSamples(shards, s, &rng);
    EXPECT_NEAR(merged.EstimateTotal() / exact_total, 1.0, 1e-9);
    EXPECT_NEAR(static_cast<double>(merged.size()), static_cast<double>(s),
                1.0);
    sum_box += merged.EstimateBox(box);
  }
  EXPECT_NEAR(sum_box / trials / exact_box, 1.0, 0.04);
}

TEST(MergeSamples, RepeatedMergeStaysUnbiased) {
  // A small aggregation tree: ((a+b)+(c+d)) — intermediate results are
  // themselves samples, so cascaded merges must stay unbiased.
  Rng data_rng(37);
  const auto items = ParetoItems(400, 1 << 10, &data_rng);
  Weight exact_total = 0.0;
  for (const auto& it : items) exact_total += it.weight;

  Rng seeder(38);
  for (int t = 0; t < 100; ++t) {
    Rng rng = seeder.Split();
    std::vector<Sample> leaves;
    for (int p = 0; p < 4; ++p) {
      const std::vector<WeightedKey> slice(items.begin() + p * 100,
                                           items.begin() + (p + 1) * 100);
      leaves.push_back(VarOptOffline(slice, 40.0, &rng));
    }
    const Sample left = MergeSamples(leaves[0], leaves[1], 40, &rng);
    const Sample right = MergeSamples(leaves[2], leaves[3], 40, &rng);
    const Sample root = MergeSamples(left, right, 40, &rng);
    EXPECT_NEAR(root.EstimateTotal() / exact_total, 1.0, 1e-9);
  }
}

TEST(MergeAllSamples, ZeroEntryPartsAreCarriedHarmlessly) {
  // The windowed ring routinely merges buckets whose samples hold no
  // entries (all-zero-weight epochs); they must not disturb the result.
  Rng rng(39);
  std::vector<WeightedKey> items;
  for (KeyId i = 0; i < 300; ++i) {
    items.push_back({i, rng.NextPareto(1.3), {i, i}});
  }
  Weight exact_total = 0.0;
  for (const auto& it : items) exact_total += it.weight;

  std::vector<Sample> parts;
  parts.emplace_back();                              // default: 0 entries
  parts.push_back(VarOptOffline(items, 50.0, &rng));
  parts.push_back(Sample(3.0, {}));                  // tau set, no entries
  const Sample merged = MergeAllSamples(parts, 50, &rng);
  EXPECT_NEAR(merged.EstimateTotal() / exact_total, 1.0, 1e-9);
  EXPECT_NEAR(static_cast<double>(merged.size()), 50.0, 1.0);

  // All parts empty: an empty, zero-threshold sample.
  std::vector<Sample> empties(3);
  const Sample empty = MergeAllSamples(empties, 10, &rng);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_DOUBLE_EQ(empty.tau(), 0.0);
  EXPECT_DOUBLE_EQ(empty.EstimateTotal(), 0.0);
}

TEST(MergeSampleParts, ScratchReuseMatchesPlainMerge) {
  // The pointer/scratch flavor is the same merge: identical draws from an
  // identically-seeded RNG must give the identical sample, across repeated
  // reuse of one scratch.
  Rng rng(40);
  std::vector<WeightedKey> items;
  for (KeyId i = 0; i < 400; ++i) {
    items.push_back({i, rng.NextPareto(1.2), {i, i}});
  }
  const std::vector<WeightedKey> half_a(items.begin(), items.begin() + 200);
  const std::vector<WeightedKey> half_b(items.begin() + 200, items.end());
  const Sample a = VarOptOffline(half_a, 60.0, &rng);
  const Sample b = VarOptOffline(half_b, 60.0, &rng);

  MergeScratch scratch;
  for (int round = 0; round < 3; ++round) {
    Rng r1(123), r2(123);
    const Sample plain = MergeSamples(a, b, 60, &r1);
    const Sample* parts[2] = {&a, &b};
    const Sample pooled = MergeSampleParts(parts, 2, 60, &r2, &scratch);
    ASSERT_EQ(plain.size(), pooled.size());
    EXPECT_DOUBLE_EQ(plain.tau(), pooled.tau());
    for (std::size_t i = 0; i < plain.size(); ++i) {
      EXPECT_EQ(plain.entries()[i].id, pooled.entries()[i].id);
      EXPECT_DOUBLE_EQ(plain.entries()[i].weight, pooled.entries()[i].weight);
    }
  }
}

}  // namespace
}  // namespace sas

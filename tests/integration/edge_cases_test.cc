// Edge-case and failure-injection tests across all samplers: degenerate
// weights, tiny inputs, duplicate coordinates, extreme skew. Every sampler
// must stay well-defined (no crashes, sane samples) on inputs that violate
// the "nice" assumptions of the analysis.

#include <gtest/gtest.h>

#include <vector>

#include "api/registry.h"
#include "aware/two_pass.h"
#include "core/ipps.h"
#include "core/random.h"
#include "oracles/poisson.h"
#include "structure/hierarchy.h"
#include "sampling/stream_varopt.h"
#include "sampling/systematic.h"
#include "oracles/varopt_offline.h"

namespace sas {
namespace {

/// Builds one summary through the registry, drawing the config seed from
/// the caller's rng so repeated calls see fresh randomness.
std::unique_ptr<RangeSummary> BuildVia(const char* key,
                                       const StructureSpec& spec,
                                       const std::vector<WeightedKey>& items,
                                       double s, Rng* rng) {
  SummarizerConfig cfg;
  cfg.s = s;
  cfg.seed = rng->Next();
  cfg.structure = spec;
  return BuildSummary(key, cfg, items);
}

TEST(EdgeCases, SingleKey) {
  Rng rng(1);
  const std::vector<WeightedKey> items{{0, 5.0, {7, 9}}};
  EXPECT_EQ(VarOptOffline(items, 1.0, &rng).size(), 1u);
  EXPECT_EQ(
      BuildVia(keys::kOrder, StructureSpec::Order(), items, 1.0, &rng)
          ->SizeInElements(),
      1u);
  EXPECT_EQ(
      BuildVia(keys::kProduct, StructureSpec::Product(), items, 1.0, &rng)
          ->SizeInElements(),
      1u);
  EXPECT_EQ(
      TwoPassProductSample(items, 1.0, TwoPassConfig{}, &rng).size(), 1u);
}

TEST(EdgeCases, AllZeroWeights) {
  Rng rng(2);
  std::vector<WeightedKey> items;
  for (KeyId i = 0; i < 10; ++i) items.push_back({i, 0.0, {i, i}});
  EXPECT_EQ(PoissonSample(items, 3.0, &rng).size(), 0u);
  EXPECT_EQ(TwoPassProductSample(items, 3.0, TwoPassConfig{}, &rng).size(),
            0u);
  StreamVarOpt sv(3, rng.Split());
  for (const auto& it : items) sv.Push(it);
  EXPECT_EQ(sv.size(), 0u);
}

TEST(EdgeCases, MixedZeroAndPositiveWeights) {
  Rng rng(3);
  std::vector<WeightedKey> items;
  for (KeyId i = 0; i < 40; ++i) {
    items.push_back({i, i % 2 == 0 ? 1.0 : 0.0, {i, i}});
  }
  // 20 positive keys; a sample of 5 must contain only positive-weight keys.
  for (int t = 0; t < 20; ++t) {
    const Sample s = VarOptOffline(items, 5.0, &rng);
    EXPECT_EQ(s.size(), 5u);
    for (const auto& e : s.entries()) EXPECT_GT(e.weight, 0.0);
  }
}

TEST(EdgeCases, IdenticalPoints) {
  // Duplicate 2-D coordinates (distinct keys at the same cell) must not
  // break the kd-based samplers.
  Rng rng(4);
  std::vector<WeightedKey> items;
  for (KeyId i = 0; i < 50; ++i) items.push_back({i, 1.0, {5, 5}});
  for (KeyId i = 50; i < 100; ++i) items.push_back({i, 1.0, {9, 2}});
  const auto result =
      BuildVia(keys::kProduct, StructureSpec::Product(), items, 10.0, &rng);
  EXPECT_EQ(result->SizeInElements(), 10u);
  const Sample tp = TwoPassProductSample(items, 10.0, TwoPassConfig{}, &rng);
  EXPECT_EQ(tp.size(), 10u);
}

TEST(EdgeCases, ExtremeSkewOneGiant) {
  Rng rng(5);
  std::vector<WeightedKey> items;
  for (KeyId i = 0; i < 100; ++i) items.push_back({i, 1e-6, {i, i}});
  items[50].weight = 1e12;
  for (int t = 0; t < 10; ++t) {
    const Sample s = VarOptOffline(items, 4.0, &rng);
    EXPECT_EQ(s.size(), 4u);
    bool has_giant = false;
    for (const auto& e : s.entries()) has_giant |= e.id == 50;
    EXPECT_TRUE(has_giant);
    // HT total stays near the truth (dominated by the giant).
    EXPECT_NEAR(s.EstimateTotal() / 1e12, 1.0, 0.01);
  }
}

TEST(EdgeCases, SampleSizeOne) {
  Rng rng(6);
  std::vector<WeightedKey> items;
  for (KeyId i = 0; i < 30; ++i) {
    items.push_back({i, rng.NextPareto(1.2), {i, 0}});
  }
  for (int t = 0; t < 50; ++t) {
    EXPECT_EQ(
        BuildVia(keys::kOrder, StructureSpec::Order(), items, 1.0, &rng)
            ->SizeInElements(),
        1u);
    EXPECT_EQ(
        BuildVia(keys::kProduct, StructureSpec::Product(), items, 1.0, &rng)
            ->SizeInElements(),
        1u);
  }
}

TEST(EdgeCases, SampleSizeNMinusOne) {
  Rng rng(7);
  std::vector<WeightedKey> items;
  for (KeyId i = 0; i < 20; ++i) {
    items.push_back({i, rng.NextPareto(1.2), {i, 0}});
  }
  for (int t = 0; t < 50; ++t) {
    EXPECT_EQ(
        BuildVia(keys::kOrder, StructureSpec::Order(), items, 19.0, &rng)
            ->SizeInElements(),
        19u);
    EXPECT_EQ(VarOptOffline(items, 19.0, &rng).size(), 19u);
  }
}

TEST(EdgeCases, UniformWeightsReduceToReservoir) {
  // With uniform weights VarOpt degenerates to reservoir sampling (the
  // paper notes reservoir sampling is a special case); every sampler gives
  // a uniform sample of exactly s keys.
  Rng rng(8);
  std::vector<WeightedKey> items;
  for (KeyId i = 0; i < 60; ++i) items.push_back({i, 2.5, {i, 0}});
  const auto result =
      BuildVia(keys::kOrder, StructureSpec::Order(), items, 12.0, &rng);
  EXPECT_EQ(result->SizeInElements(), 12u);
  for (double p : result->AsSample()->probs()) EXPECT_NEAR(p, 0.2, 1e-12);
}

TEST(EdgeCases, HierarchySingleLeaf) {
  Rng rng(9);
  const Hierarchy h = Hierarchy::FromParents({-1});
  const std::vector<WeightedKey> items{{0, 3.0, {0, 0}}};
  const auto result = BuildVia(
      keys::kHierarchy, StructureSpec::OverHierarchy(&h), items, 1.0, &rng);
  EXPECT_EQ(result->SizeInElements(), 1u);
}

TEST(EdgeCases, SystematicWithHeavyKeys) {
  Rng rng(10);
  std::vector<WeightedKey> items;
  for (KeyId i = 0; i < 30; ++i) items.push_back({i, 1.0, {i, 0}});
  items[3].weight = 100.0;
  items[17].weight = 100.0;
  for (int t = 0; t < 30; ++t) {
    const Sample s = SystematicSample(items, 5.0, &rng);
    bool h3 = false, h17 = false;
    for (const auto& e : s.entries()) {
      h3 |= e.id == 3;
      h17 |= e.id == 17;
    }
    EXPECT_TRUE(h3 && h17);
  }
}

TEST(EdgeCases, FractionalSampleSize) {
  // Non-integral s: the sample size is floor(s) or ceil(s).
  Rng rng(12);
  std::vector<WeightedKey> items;
  for (KeyId i = 0; i < 50; ++i) {
    items.push_back({i, rng.NextPareto(1.3), {i, 0}});
  }
  for (int t = 0; t < 100; ++t) {
    const std::size_t got =
        BuildVia(keys::kOrder, StructureSpec::Order(), items, 7.5, &rng)
            ->SizeInElements();
    EXPECT_TRUE(got == 7 || got == 8) << got;
  }
}

TEST(EdgeCases, EqualWeightsTieAtThreshold) {
  // Weights exactly equal to tau (probability exactly 1 for some keys).
  Rng rng(13);
  std::vector<WeightedKey> items;
  for (KeyId i = 0; i < 10; ++i) items.push_back({i, 4.0, {i, 0}});
  items[0].weight = 12.0;  // tau for s=4 is 36/3 = 12 -> p0 = 1 exactly
  const auto result =
      BuildVia(keys::kOrder, StructureSpec::Order(), items, 4.0, &rng);
  EXPECT_EQ(result->SizeInElements(), 4u);
  bool has0 = false;
  for (const auto& e : result->AsSample()->sample().entries()) {
    has0 |= e.id == 0;
  }
  EXPECT_TRUE(has0);
}

}  // namespace
}  // namespace sas

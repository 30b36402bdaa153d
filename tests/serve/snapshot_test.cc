// ServingSnapshot differential tests: the accelerated estimate paths must
// be BIT-IDENTICAL (EXPECT_EQ on doubles, not near) to the linear Sample
// scans across every sample-backed registry key family — the accelerated
// path reproduces the linear scan's addition order exactly. The *Fast
// prefix-difference paths are re-associated and are held to ulp-level
// relative tolerance instead (the SIMD reduction contract). Plus: alias
// table draw frequencies pass a chi-square test at fixed seed, and
// degenerate snapshots (empty, duplicate ids, zero weights) behave.

#include "serve/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/summary.h"
#include "core/random.h"
#include "structure/hierarchy.h"
#include "../api/test_util.h"

namespace sas {
namespace {

using test::RandomItems;

constexpr Coord kDomain = 1 << 10;
constexpr std::size_t kN = 120;

/// One registry key family plus the input/structure it needs (the
/// ingest_validation_test.cc case table, restricted to the sample-backed
/// methods the serving tier snapshots).
struct MethodCase {
  std::string key;
  const std::vector<WeightedKey>* items;
  StructureSpec structure;
};

struct Inputs {
  std::vector<WeightedKey> items;
  std::vector<WeightedKey> hier_items;
  Hierarchy hierarchy;
  std::vector<int> range_of;

  Inputs() : hierarchy(MakeTree()) {
    Rng rng(11);
    items = RandomItems(kN, kDomain, &rng);
    for (KeyId k = 0; k < kN; ++k) {
      hier_items.push_back({k, items[k].weight, {k, 0}});
    }
    for (std::size_t i = 0; i < kN; ++i) {
      range_of.push_back(static_cast<int>(i % 7));
    }
  }

  static Hierarchy MakeTree() {
    Rng tree_rng(12);
    return Hierarchy::Random(kN, 4, &tree_rng);
  }
};

std::vector<MethodCase> SampleBackedCases(const Inputs& in) {
  return {
      {"order", &in.items, StructureSpec::Order()},
      {"hierarchy", &in.hier_items,
       StructureSpec::OverHierarchy(&in.hierarchy)},
      {"disjoint", &in.items, StructureSpec::Disjoint(in.range_of, 7)},
      {"product", &in.items, StructureSpec::Product()},
      {"nd", &in.items, StructureSpec::Nd(2)},
      {"aware", &in.items, StructureSpec::Product()},
      {"order-2p", &in.items, StructureSpec::Order()},
      {"hierarchy-2p", &in.hier_items,
       StructureSpec::OverHierarchy(&in.hierarchy)},
      {"disjoint-2p", &in.items, StructureSpec::Disjoint(in.range_of, 7)},
      {"obliv", &in.items, StructureSpec::Product()},
      {"sharded:2:obliv", &in.items, StructureSpec::Product()},
      {"windowed:10:2:obliv", &in.items, StructureSpec::Product()},
      {"serve:obliv", &in.items, StructureSpec::Product()},
  };
}

SummarizerConfig BaseConfig(const MethodCase& c) {
  SummarizerConfig cfg;
  cfg.s = 32.0;
  cfg.seed = 4242;
  cfg.structure = c.structure;
  return cfg;
}

/// Deterministic battery of boxes covering empty, sliver, half-plane, and
/// full-domain shapes.
std::vector<Box> QueryBoxes(Rng* rng) {
  std::vector<Box> boxes = {
      {{0, kDomain}, {0, kDomain}},          // everything
      {{0, 0}, {0, kDomain}},                // empty x
      {{5, 6}, {0, kDomain}},                // x sliver
      {{0, kDomain / 2}, {0, kDomain}},      // half plane
      {{0, kDomain}, {kDomain / 2, kDomain}},
  };
  for (int i = 0; i < 40; ++i) {
    const Coord x1 = rng->NextBounded(kDomain);
    const Coord x2 = rng->NextBounded(kDomain);
    const Coord y1 = rng->NextBounded(kDomain);
    const Coord y2 = rng->NextBounded(kDomain);
    boxes.push_back({{std::min(x1, x2), std::max(x1, x2) + 1},
                     {std::min(y1, y2), std::max(y1, y2) + 1}});
  }
  return boxes;
}

TEST(ServingSnapshotDifferential, BoxEstimatesBitIdenticalAcrossFamilies) {
  const Inputs in;
  Rng box_rng(77);
  const auto boxes = QueryBoxes(&box_rng);
  QueryScratch scratch;
  for (const MethodCase& c : SampleBackedCases(in)) {
    SCOPED_TRACE(c.key);
    auto builder = MakeSummarizer(c.key, BaseConfig(c));
    builder->AddBatch(*c.items);
    const auto summary = builder->Finalize();
    const SampleSummary* ss = summary->AsSample();
    ASSERT_NE(ss, nullptr);
    const Sample& sample = ss->sample();
    const ServingSnapshot snap(sample);

    EXPECT_EQ(snap.TotalWeight(), sample.EstimateTotal());
    for (const Box& box : boxes) {
      // EXPECT_EQ, not NEAR: the accelerated path must reproduce the
      // linear scan's floating-point result bit for bit.
      EXPECT_EQ(snap.EstimateBox(box, &scratch), sample.EstimateBox(box));
      EXPECT_EQ(snap.CountInBox(box), sample.CountInBox(box));
    }
  }
}

TEST(ServingSnapshotDifferential, MultiBoxQueriesBitIdentical) {
  const Inputs in;
  Rng box_rng(78);
  const auto boxes = QueryBoxes(&box_rng);
  QueryScratch scratch;
  for (const MethodCase& c : SampleBackedCases(in)) {
    SCOPED_TRACE(c.key);
    auto builder = MakeSummarizer(c.key, BaseConfig(c));
    builder->AddBatch(*c.items);
    const auto summary = builder->Finalize();
    const Sample& sample = summary->AsSample()->sample();
    const ServingSnapshot snap(sample);

    // Disjoint-by-construction rectangle pairs: split the domain on x.
    for (std::size_t i = 0; i + 1 < boxes.size(); i += 2) {
      MultiRangeQuery q;
      q.boxes.push_back({{0, kDomain / 2}, boxes[i].y});
      q.boxes.push_back({{kDomain / 2, kDomain}, boxes[i + 1].y});
      EXPECT_EQ(snap.EstimateQuery(q, &scratch), sample.EstimateQuery(q));
    }
  }
}

TEST(ServingSnapshotDifferential, IdRangeSubsetsBitIdentical) {
  const Inputs in;
  QueryScratch scratch;
  for (const MethodCase& c : SampleBackedCases(in)) {
    SCOPED_TRACE(c.key);
    auto builder = MakeSummarizer(c.key, BaseConfig(c));
    builder->AddBatch(*c.items);
    const auto summary = builder->Finalize();
    const Sample& sample = summary->AsSample()->sample();
    const ServingSnapshot snap(sample);

    Rng range_rng(99);
    for (int i = 0; i < 50; ++i) {
      const KeyId a = static_cast<KeyId>(range_rng.NextBounded(kN + 10));
      const KeyId b = static_cast<KeyId>(range_rng.NextBounded(kN + 10));
      const KeyId lo = std::min(a, b);
      const KeyId hi = std::max(a, b);
      const Weight linear = sample.EstimateSubset(
          [&](const WeightedKey& k) { return k.id >= lo && k.id < hi; });
      EXPECT_EQ(snap.EstimateIdRange(lo, hi, &scratch), linear)
          << "[" << lo << ", " << hi << ")";
    }
  }
}

TEST(ServingSnapshotDifferential, FastPathsMatchToUlpLevel) {
  const Inputs in;
  Rng box_rng(79);
  const auto boxes = QueryBoxes(&box_rng);
  for (const MethodCase& c : SampleBackedCases(in)) {
    SCOPED_TRACE(c.key);
    auto builder = MakeSummarizer(c.key, BaseConfig(c));
    builder->AddBatch(*c.items);
    const auto summary = builder->Finalize();
    const Sample& sample = summary->AsSample()->sample();
    const ServingSnapshot snap(sample);

    // The prefix-difference paths re-associate the additions: near-equality
    // only, the same contract as the SIMD reductions (docs/architecture.md,
    // "SIMD dispatch").
    const Weight total = sample.EstimateTotal();
    EXPECT_NEAR(snap.EstimateIdRangeFast(0, kN + 1), total,
                1e-9 * std::max(1.0, std::abs(total)));
    for (const Box& box : boxes) {
      const Weight linear = sample.EstimateBox(box);
      EXPECT_NEAR(snap.EstimateBoxFast(box), linear,
                  1e-9 * std::max(1.0, std::abs(linear)));
    }
  }
}

TEST(ServingSnapshot, DuplicateIdsFromMergedWindowsAreHandled) {
  // Merged windows can carry one key id twice (the same flow sampled in
  // two buckets). The position indexes order duplicates by position, so
  // the bit-identity contract must hold verbatim.
  std::vector<WeightedKey> entries = {
      {7, 3.0, {1, 1}}, {3, 1.0, {2, 2}}, {7, 2.0, {3, 3}},
      {3, 5.0, {4, 4}}, {9, 1.5, {5, 5}},
  };
  const Sample sample(2.0, entries);
  const ServingSnapshot snap(sample);
  QueryScratch scratch;

  EXPECT_EQ(snap.EstimateIdRange(3, 8, &scratch),
            sample.EstimateSubset(
                [](const WeightedKey& k) { return k.id >= 3 && k.id < 8; }));
  EXPECT_EQ(snap.EstimateIdRange(7, 8, &scratch),
            sample.EstimateSubset(
                [](const WeightedKey& k) { return k.id == 7; }));
  const Box all{{0, 10}, {0, 10}};
  EXPECT_EQ(snap.EstimateBox(all, &scratch), sample.EstimateBox(all));
  EXPECT_EQ(snap.TotalWeight(), sample.EstimateTotal());
}

TEST(ServingSnapshot, EmptySnapshot) {
  const Sample empty;
  const ServingSnapshot snap(empty);
  QueryScratch scratch;
  EXPECT_EQ(snap.size(), 0u);
  EXPECT_EQ(snap.TotalWeight(), 0.0);
  EXPECT_EQ(snap.EstimateBox({{0, 10}, {0, 10}}, &scratch), 0.0);
  EXPECT_EQ(snap.EstimateIdRange(0, 100, &scratch), 0.0);
  EXPECT_EQ(snap.EstimateIdRangeFast(0, 100), 0.0);
  Rng rng(1);
  EXPECT_THROW(snap.DrawIndex(&rng), std::logic_error);
}

TEST(ServingSnapshot, AliasTableDrawFrequenciesPassChiSquare) {
  // Adjusted weights under tau = 2: {2, 2, 3, 4, 5, 6, 7, 8} (the first
  // two entries sit below the threshold). 200k draws at a fixed seed; the
  // chi-square statistic against the proportional expectation must stay
  // under the 99.9% quantile for df = 7 (24.32) with margin.
  std::vector<WeightedKey> entries;
  const double weights[] = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
  for (KeyId i = 0; i < 8; ++i) {
    entries.push_back({i, weights[i], {i, i}});
  }
  const Sample sample(2.0, entries);
  const ServingSnapshot snap(sample);

  constexpr std::size_t kDraws = 200000;
  Rng rng(123456);
  std::vector<std::uint64_t> observed(8, 0);
  for (std::size_t d = 0; d < kDraws; ++d) {
    const std::size_t idx = snap.DrawIndex(&rng);
    ASSERT_LT(idx, observed.size());
    ++observed[idx];
  }

  const double total = sample.EstimateTotal();  // 37
  double chi2 = 0.0;
  for (std::size_t i = 0; i < 8; ++i) {
    const double adjusted = sample.AdjustedWeight(entries[i]);
    const double expected = static_cast<double>(kDraws) * adjusted / total;
    const double delta = static_cast<double>(observed[i]) - expected;
    chi2 += delta * delta / expected;
  }
  EXPECT_LT(chi2, 24.32) << "draw frequencies are off proportional";
}

TEST(ServingSnapshot, ZeroWeightSampleDegeneratesToUniformDraws) {
  std::vector<WeightedKey> entries = {
      {0, 0.0, {0, 0}}, {1, 0.0, {1, 1}}, {2, 0.0, {2, 2}}};
  const Sample sample(0.0, entries);
  const ServingSnapshot snap(sample);
  Rng rng(7);
  std::vector<std::uint64_t> seen(3, 0);
  for (int i = 0; i < 3000; ++i) ++seen[snap.DrawIndex(&rng)];
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(seen[i], 800u) << "column " << i;  // ~1000 expected each
  }
}

}  // namespace
}  // namespace sas

// ServingSnapshot tests: across every sample-backed registry key family,
// a snapshot is a bitwise copy of the published sample (tau and every
// entry, owned by the snapshot), its precomputed total is the sample's
// EstimateTotal, and EstimateQuery is the sample's own scan — compared as
// bits, not within a tolerance. Plus the empty snapshot.

#include "serve/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
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

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(ServingSnapshot, SampleIsBitwiseCopyAcrossFamilies) {
  const Inputs in;
  for (const MethodCase& c : SampleBackedCases(in)) {
    SCOPED_TRACE(c.key);
    auto builder = MakeSummarizer(c.key, BaseConfig(c));
    builder->AddBatch(*c.items);
    const auto summary = builder->Finalize();
    const SampleSummary* ss = summary->AsSample();
    ASSERT_NE(ss, nullptr);
    const Sample& sample = ss->sample();

    // Build from a copy that dies first: the snapshot owns its entries.
    auto source = std::make_unique<Sample>(sample);
    const ServingSnapshot snap(*source);
    source.reset();

    EXPECT_EQ(Bits(snap.tau()), Bits(sample.tau()));
    ASSERT_EQ(snap.size(), sample.size());
    for (std::size_t i = 0; i < sample.size(); ++i) {
      const WeightedKey& got = snap.sample().entries()[i];
      const WeightedKey& want = sample.entries()[i];
      EXPECT_EQ(got.id, want.id) << "entry " << i;
      EXPECT_EQ(Bits(got.weight), Bits(want.weight)) << "entry " << i;
      EXPECT_EQ(got.pt, want.pt) << "entry " << i;
    }
    EXPECT_EQ(Bits(snap.TotalWeight()), Bits(sample.EstimateTotal()));
  }
}

TEST(ServingSnapshot, EstimateQueryIsTheSampleScanAcrossFamilies) {
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

    for (const Box& box : boxes) {
      MultiRangeQuery q;
      q.boxes.push_back(box);
      EXPECT_EQ(Bits(snap.EstimateQuery(q, &scratch)),
                Bits(sample.EstimateQuery(q)));
    }
    // Disjoint-by-construction rectangle pairs: split the domain on x.
    for (std::size_t i = 0; i + 1 < boxes.size(); i += 2) {
      MultiRangeQuery q;
      q.boxes.push_back({{0, kDomain / 2}, boxes[i].y});
      q.boxes.push_back({{kDomain / 2, kDomain}, boxes[i + 1].y});
      EXPECT_EQ(Bits(snap.EstimateQuery(q, &scratch)),
                Bits(sample.EstimateQuery(q)));
    }
  }
}

TEST(ServingSnapshot, EmptySnapshot) {
  const Sample empty;
  const ServingSnapshot snap(empty);
  QueryScratch scratch;
  EXPECT_EQ(snap.size(), 0u);
  EXPECT_EQ(snap.tau(), 0.0);
  EXPECT_EQ(snap.TotalWeight(), 0.0);
  MultiRangeQuery q;
  q.boxes.push_back({{0, 10}, {0, 10}});
  EXPECT_EQ(snap.EstimateQuery(q, &scratch), 0.0);
}

}  // namespace
}  // namespace sas

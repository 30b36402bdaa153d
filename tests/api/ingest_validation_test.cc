// Ingest-boundary validation across every registry key family: strict
// builds reject non-finite/negative weights with std::invalid_argument,
// keeping nothing of the bad record (a strict batch keeps every record
// before it, like a loop of Add); quarantine builds drop and count them in
// Describe() and produce a summary bit-identical to the clean build.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.h"
#include "core/random.h"
#include "structure/hierarchy.h"
#include "test_util.h"
#include "window/windowed.h"

namespace sas {
namespace {

using test::RandomItems;

constexpr Coord kDomain = 1 << 10;
constexpr std::size_t kN = 120;

/// An id no generated item uses, so a rejected record can never collide
/// with (or reorder) the accepted id sequence of the id-ordered methods.
constexpr KeyId kBadId = 999983;

const double kBadWeights[] = {
    std::numeric_limits<double>::quiet_NaN(),
    std::numeric_limits<double>::infinity(),
    -std::numeric_limits<double>::infinity(),
    -1.0,
};

/// One registry key family plus the input/structure it needs.
struct MethodCase {
  std::string key;
  const std::vector<WeightedKey>* items;
  StructureSpec structure;
};

/// Shared inputs for the case table: generic 2-D items, plus the id-ordered
/// variant the hierarchy methods require (item k at hierarchy leaf k), plus
/// the flat-range assignment of the disjoint methods.
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

std::vector<MethodCase> AllCases(const Inputs& in) {
  return {
      {"order", &in.items, StructureSpec::Order()},
      {"hierarchy", &in.hier_items, StructureSpec::OverHierarchy(&in.hierarchy)},
      {"disjoint", &in.items, StructureSpec::Disjoint(in.range_of, 7)},
      {"product", &in.items, StructureSpec::Product()},
      {"nd", &in.items, StructureSpec::Nd(2)},
      {"aware", &in.items, StructureSpec::Product()},
      {"order-2p", &in.items, StructureSpec::Order()},
      {"hierarchy-2p", &in.hier_items,
       StructureSpec::OverHierarchy(&in.hierarchy)},
      {"disjoint-2p", &in.items, StructureSpec::Disjoint(in.range_of, 7)},
      {"obliv", &in.items, StructureSpec::Product()},
      {"wavelet", &in.items, StructureSpec::Product()},
      {"qdigest", &in.items, StructureSpec::Product()},
      {"sketch", &in.items, StructureSpec::Product()},
      {"exact", &in.items, StructureSpec::Product()},
      {"sharded:2:obliv", &in.items, StructureSpec::Product()},
      {"windowed:10:2:obliv", &in.items, StructureSpec::Product()},
  };
}

SummarizerConfig BaseConfig(const MethodCase& c) {
  SummarizerConfig cfg;
  cfg.s = 32.0;
  cfg.seed = 4242;
  cfg.bits_x = 10;
  cfg.bits_y = 10;
  cfg.structure = c.structure;
  return cfg;
}

MultiRangeQuery FullDomain() {
  MultiRangeQuery q;
  q.boxes.push_back({{0, kDomain}, {0, kDomain}});
  return q;
}

TEST(IngestValidation, StrictThrowsOnEveryBadWeightAndStaysUsable) {
  const Inputs in;
  for (const MethodCase& c : AllCases(in)) {
    SCOPED_TRACE(c.key);
    auto builder = MakeSummarizer(c.key, BaseConfig(c));
    for (const WeightedKey& it : *c.items) builder->Add(it);
    for (double w : kBadWeights) {
      EXPECT_THROW(builder->Add({kBadId, w, {1, 1}}), std::invalid_argument)
          << "weight " << w;
    }
    // Strict rejection happens before any state changes: nothing was
    // counted as quarantined and the build completes as if the bad Adds
    // never happened.
    EXPECT_EQ(builder->Describe().accepted, kN);
    EXPECT_EQ(builder->Describe().rejected_weight, 0u);
    EXPECT_NO_THROW(builder->Finalize());
  }
}

TEST(IngestValidation, QuarantineCountsAndLeavesTheSummaryUntouched) {
  const Inputs in;
  const MultiRangeQuery q = FullDomain();
  for (const MethodCase& c : AllCases(in)) {
    SCOPED_TRACE(c.key);

    auto clean = MakeSummarizer(c.key, BaseConfig(c));
    for (const WeightedKey& it : *c.items) clean->Add(it);
    const auto clean_summary = clean->Finalize();

    SummarizerConfig cfg = BaseConfig(c);
    cfg.ingest_policy = IngestPolicy::kQuarantine;
    auto dirty = MakeSummarizer(c.key, cfg);
    std::size_t injected = 0;
    for (std::size_t i = 0; i < c.items->size(); ++i) {
      if (i % 10 == 0) {
        dirty->Add({kBadId, kBadWeights[injected % 4], {1, 1}});
        ++injected;
      }
      dirty->Add((*c.items)[i]);
    }
    EXPECT_EQ(dirty->Describe().accepted, kN);
    EXPECT_EQ(dirty->Describe().rejected_weight, injected);
    const auto dirty_summary = dirty->Finalize();

    // The quarantined records left no trace: with the same seed and the
    // same accepted sequence, the summaries estimate identically (the
    // randomized methods are bit-identical, the deterministic ones equal).
    EXPECT_DOUBLE_EQ(dirty_summary->EstimateQuery(q),
                     clean_summary->EstimateQuery(q));
    EXPECT_EQ(dirty_summary->SizeInElements(),
              clean_summary->SizeInElements());
  }
}

TEST(IngestValidation, StrictBatchStopsWhereTheAddLoopStops) {
  // A strict batch with a NaN at position k admits records 0..k-1 and
  // throws at k, leaving the builder where a loop of Add stopped at k
  // leaves it. Both builders then take the rest of the stream, so the
  // positional methods (hierarchy, disjoint) finalize too.
  const Inputs in;
  const MultiRangeQuery q = FullDomain();
  for (const MethodCase& c : AllCases(in)) {
    const std::vector<WeightedKey>& items = *c.items;
    for (std::size_t k : {std::size_t{0}, kN / 2, kN}) {
      SCOPED_TRACE(c.key + " k=" + std::to_string(k));
      const WeightedKey bad{kBadId, kBadWeights[0], {1, 1}};
      std::vector<WeightedKey> batch(items.begin(), items.begin() + k);
      batch.push_back(bad);
      batch.insert(batch.end(), items.begin() + k, items.end());
      const std::span<const WeightedKey> rest(items.begin() + k,
                                              items.end());

      auto batched = MakeSummarizer(c.key, BaseConfig(c));
      EXPECT_THROW(batched->AddBatch(batch), std::invalid_argument);
      EXPECT_EQ(batched->Describe().accepted, k);
      EXPECT_EQ(batched->Describe().rejected_weight, 0u);
      batched->AddBatch(rest);

      auto looped = MakeSummarizer(c.key, BaseConfig(c));
      for (std::size_t i = 0; i < k; ++i) looped->Add(items[i]);
      EXPECT_THROW(looped->Add(bad), std::invalid_argument);
      for (const WeightedKey& it : rest) looped->Add(it);

      EXPECT_EQ(batched->Describe().accepted, looped->Describe().accepted);
      const auto batched_summary = batched->Finalize();
      const auto looped_summary = looped->Finalize();
      EXPECT_EQ(batched_summary->EstimateQuery(q),
                looped_summary->EstimateQuery(q));
      EXPECT_EQ(batched_summary->SizeInElements(),
                looped_summary->SizeInElements());
    }
  }
}

TEST(IngestValidation, AddBatchQuarantinesMidBatch) {
  const Inputs in;
  for (const char* key : {"obliv", "product", "sharded:2:obliv",
                          "windowed:10:2:obliv"}) {
    SCOPED_TRACE(key);
    SummarizerConfig cfg;
    cfg.s = 32.0;
    cfg.ingest_policy = IngestPolicy::kQuarantine;
    auto builder = MakeSummarizer(key, cfg);
    std::vector<WeightedKey> batch = in.items;
    batch[kN / 2].weight = std::numeric_limits<double>::quiet_NaN();
    batch[kN - 1].weight = -2.0;
    builder->AddBatch(batch);
    // The AllFinite fast path must have bailed to per-record admission.
    EXPECT_EQ(builder->Describe().accepted, kN - 2);
    EXPECT_EQ(builder->Describe().rejected_weight, 2u);
    EXPECT_NO_THROW(builder->Finalize());
  }
}

TEST(IngestValidation, AddCoordsValidatesWeightsToo) {
  SummarizerConfig cfg;
  cfg.s = 16.0;
  cfg.structure = StructureSpec::Nd(3);
  const Coord p[3] = {1, 2, 3};

  auto strict = MakeSummarizer("nd", cfg);
  strict->AddCoords(0, p, 3, 1.0);
  EXPECT_THROW(
      strict->AddCoords(1, p, 3, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
  EXPECT_EQ(strict->Describe().accepted, 1u);

  cfg.ingest_policy = IngestPolicy::kQuarantine;
  auto lax = MakeSummarizer("nd", cfg);
  lax->AddCoords(0, p, 3, 1.0);
  lax->AddCoords(1, p, 3, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(lax->Describe().accepted, 1u);
  EXPECT_EQ(lax->Describe().rejected_weight, 1u);
  EXPECT_NO_THROW(lax->Finalize());

  // A quarantined point leaves the numbering of the others alone: with id =
  // stream position, every key samples the same ids behind a rejected one.
  for (const char* key : {"nd", "sharded:2:nd", "serve:nd"}) {
    SCOPED_TRACE(key);
    auto builder = MakeSummarizer(key, cfg);
    for (KeyId i = 0; i < 5; ++i) {
      const Coord q[3] = {10 * i, 20 * i, 30 * i};
      builder->AddCoords(
          i, q, 3, i == 1 ? std::numeric_limits<double>::quiet_NaN() : 1.0);
    }
    EXPECT_EQ(builder->Describe().rejected_weight, 1u);
    const auto summary = builder->Finalize();
    ASSERT_NE(summary->AsSample(), nullptr);
    std::set<KeyId> ids;
    for (const auto& e : summary->AsSample()->sample().entries()) {
      ids.insert(e.id);
    }
    EXPECT_EQ(ids, (std::set<KeyId>{0, 2, 3, 4}));
  }
}

TEST(IngestValidation, NonFiniteTimestampsHitTheCoordCounter) {
  SummarizerConfig cfg;
  cfg.s = 16.0;
  const WeightedKey item{1, 1.0, {1, 1}};

  auto strict = MakeSummarizer("windowed:10:2:obliv", cfg);
  auto* win = strict->AsWindowed();
  ASSERT_NE(win, nullptr);
  win->AddTimed(1.0, item);
  EXPECT_THROW(
      win->AddTimed(std::numeric_limits<double>::quiet_NaN(), item),
      std::invalid_argument);
  EXPECT_THROW(win->Advance(std::numeric_limits<double>::infinity()),
               std::invalid_argument);

  cfg.ingest_policy = IngestPolicy::kQuarantine;
  auto lax = MakeSummarizer("windowed:10:2:obliv", cfg);
  auto* lax_win = lax->AsWindowed();
  lax_win->AddTimed(1.0, item);
  lax_win->AddTimed(std::numeric_limits<double>::infinity(), item);
  EXPECT_EQ(lax_win->Describe().accepted, 1u);
  EXPECT_EQ(lax_win->Describe().rejected_coord, 1u);
  // A quarantined timestamp dropped the whole record, not just the time.
  EXPECT_EQ(lax->Finalize()->SizeInElements(), 1u);
}

}  // namespace
}  // namespace sas

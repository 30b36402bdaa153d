// Summarizer/RangeSummary surface tests: Add vs AddBatch equivalence, the
// baseline adapters (wavelet / q-digest / sketch / exact), Describe()
// metadata, and the streaming two-pass builders.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "api/adapters.h"
#include "api/registry.h"
#include "core/random.h"
#include "structure/hierarchy.h"
#include "summaries/exact_summary.h"
#include "summaries/wavelet2d.h"
#include "test_util.h"

namespace sas {
namespace {

using test::RandomItems;

MultiRangeQuery BoxQuery(Coord hi) {
  MultiRangeQuery q;
  q.boxes.push_back({{0, hi}, {0, hi}});
  return q;
}

TEST(Summarizer, AddBatchEqualsAddLoop) {
  Rng rng(1);
  const auto items = RandomItems(200, 1 << 10, &rng);

  SummarizerConfig cfg;
  cfg.s = 30.0;
  cfg.seed = 99;
  cfg.structure = StructureSpec::Product();

  auto one = MakeSummarizer(keys::kProduct, cfg);
  for (const auto& it : items) one->Add(it);
  const auto via_add = one->Finalize();

  auto batch = MakeSummarizer(keys::kProduct, cfg);
  batch->AddBatch(items);
  const auto via_batch = batch->Finalize();

  const auto q = BoxQuery(1 << 9);
  EXPECT_DOUBLE_EQ(via_add->EstimateQuery(q), via_batch->EstimateQuery(q));
  EXPECT_EQ(via_add->SizeInElements(), via_batch->SizeInElements());
}

TEST(Summarizer, ExactAdapterMatchesBruteForce) {
  Rng rng(2);
  const auto items = RandomItems(150, 1 << 10, &rng);
  SummarizerConfig cfg;
  cfg.s = 1.0;  // ignored by exact
  auto builder = MakeSummarizer(keys::kExact, cfg);
  builder->AddBatch(items);
  const auto summary = builder->Finalize();
  EXPECT_EQ(summary->Name(), keys::kExact);
  EXPECT_EQ(summary->SizeInElements(), items.size());
  const auto q = BoxQuery(1 << 9);
  EXPECT_DOUBLE_EQ(summary->EstimateQuery(q), ExactQuerySum(items, q));
}

TEST(Summarizer, WaveletAdapterMatchesDirectConstruction) {
  Rng rng(3);
  const auto items = RandomItems(200, 1 << 10, &rng);
  SummarizerConfig cfg;
  cfg.s = 64.0;
  cfg.bits_x = 10;
  cfg.bits_y = 10;
  auto builder = MakeSummarizer(keys::kWavelet, cfg);
  builder->AddBatch(items);
  const auto summary = builder->Finalize();
  EXPECT_EQ(summary->Name(), keys::kWavelet);

  const Wavelet2D direct(items, 64, 10, 10);
  const auto q = BoxQuery(1 << 8);
  EXPECT_DOUBLE_EQ(summary->EstimateQuery(q), direct.EstimateQuery(q));
  EXPECT_EQ(summary->SizeInElements(), direct.size());
}

TEST(Summarizer, SketchAdapterIsDeterministicPerSeed) {
  Rng rng(4);
  const auto items = RandomItems(200, 1 << 10, &rng);
  SummarizerConfig cfg;
  cfg.s = 512.0;
  cfg.seed = 1234;
  cfg.bits_x = 10;
  cfg.bits_y = 10;
  const auto q = BoxQuery(1 << 9);

  auto build = [&] {
    auto builder = MakeSummarizer(keys::kSketch, cfg);
    builder->AddBatch(items);
    return builder->Finalize();
  };
  const auto a = build();
  const auto b = build();
  EXPECT_EQ(a->Name(), keys::kSketch);
  EXPECT_DOUBLE_EQ(a->EstimateQuery(q), b->EstimateQuery(q));
}

TEST(Summarizer, TwoPassBuildersGiveExactSizes) {
  Rng rng(5);
  const auto items = RandomItems(400, 1 << 12, &rng);
  Rng tree_rng(6);
  const Hierarchy h = Hierarchy::Random(items.size(), 4, &tree_rng);
  std::vector<WeightedKey> hier_items;
  for (KeyId k = 0; k < items.size(); ++k) {
    hier_items.push_back({k, items[k].weight, {k, 0}});
  }
  std::vector<int> range_of(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    range_of[i] = static_cast<int>(i % 7);
  }

  struct Case {
    const char* key;
    StructureSpec spec;
    const std::vector<WeightedKey>* data;
  };
  const std::vector<Case> cases{
      {keys::kAware, StructureSpec::Product(), &items},
      {keys::kOrderTwoPass, StructureSpec::Order(), &items},
      {keys::kHierarchyTwoPass, StructureSpec::OverHierarchy(&h),
       &hier_items},
      {keys::kDisjointTwoPass, StructureSpec::Disjoint(range_of, 7),
       &items},
  };
  for (const auto& c : cases) {
    SummarizerConfig cfg;
    cfg.s = 40.0;
    cfg.seed = 77;
    cfg.structure = c.spec;
    auto builder = MakeSummarizer(c.key, cfg);
    builder->AddBatch(*c.data);
    const auto summary = builder->Finalize();
    EXPECT_EQ(summary->SizeInElements(), 40u) << c.key;
    EXPECT_EQ(summary->Name(), c.key);
    ASSERT_NE(summary->AsSample(), nullptr) << c.key;
  }
}

TEST(Summarizer, AddCoordsOnlySupportedByNd) {
  SummarizerConfig cfg;
  cfg.s = 5.0;
  auto product = MakeSummarizer(keys::kProduct, cfg);
  const Coord pt[2] = {1, 2};
  EXPECT_THROW(product->AddCoords(0, pt, 2, 1.0), std::logic_error);

  cfg.structure = StructureSpec::Nd(3);
  auto nd = MakeSummarizer(keys::kNd, cfg);
  const Coord pt3[3] = {1, 2, 3};
  for (int i = 0; i < 30; ++i) {
    const Coord p[3] = {pt3[0] + i, pt3[1] + 2 * i, pt3[2] + 3 * i};
    nd->AddCoords(static_cast<KeyId>(i), p, 3, 1.0 + i);
  }
  const auto summary = nd->Finalize();
  EXPECT_EQ(summary->SizeInElements(), 5u);
}

TEST(Summarizer, NdRejectsMixingAddAndAddCoordsEitherOrder) {
  SummarizerConfig cfg;
  cfg.s = 5.0;
  cfg.structure = StructureSpec::Nd(2);
  const Coord p[2] = {1, 2};

  auto coords_first = MakeSummarizer(keys::kNd, cfg);
  coords_first->AddCoords(0, p, 2, 1.0);
  EXPECT_THROW(coords_first->Add({0, 1.0, {3, 4}}), std::logic_error);

  auto add_first = MakeSummarizer(keys::kNd, cfg);
  add_first->Add({0, 1.0, {3, 4}});
  EXPECT_THROW(add_first->AddCoords(1, p, 2, 1.0), std::logic_error);
}

TEST(Summarizer, NdRecyclesAfterCoordinateIngest) {
  // Reset clears the ingest mode and the stored coordinates: a builder fed
  // through AddCoords takes other ids and points after Reset, and samples
  // exactly like a fresh builder under the new seed.
  SummarizerConfig cfg;
  cfg.s = 12.0;
  cfg.seed = 41;
  cfg.structure = StructureSpec::Nd(3);
  Rng rng(43);
  std::vector<Coord> pts;
  std::vector<Weight> weights;
  for (int i = 0; i < 200; ++i) {
    for (int a = 0; a < 3; ++a) pts.push_back(rng.NextBounded(1 << 12));
    weights.push_back(rng.NextPareto(1.2));
  }
  // Other points than the first feed, so stale coordinates would show.
  auto feed_keyed = [&](Summarizer* b) {
    const std::size_t n = weights.size();
    for (std::size_t i = 0; i < n; ++i) {
      b->AddCoords(static_cast<KeyId>(1000 + i), &pts[(n - 1 - i) * 3], 3,
                   weights[i]);
    }
  };
  auto pin = [](const RangeSummary& summary) {
    const SampleSummary* sample = summary.AsSample();
    EXPECT_NE(sample, nullptr);
    std::vector<KeyId> ids;
    for (const auto& e : sample->sample().entries()) ids.push_back(e.id);
    return std::make_pair(sample->tau(), ids);
  };

  auto recycled = MakeSummarizer(keys::kNd, cfg);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    recycled->AddCoords(static_cast<KeyId>(i), &pts[i * 3], 3, weights[i]);
  }
  recycled->Finalize();
  ASSERT_TRUE(recycled->Reset(97));
  feed_keyed(recycled.get());
  const auto got = pin(*recycled->Finalize());

  cfg.seed = 97;
  auto fresh = MakeSummarizer(keys::kNd, cfg);
  feed_keyed(fresh.get());
  const auto want = pin(*fresh->Finalize());
  EXPECT_EQ(got.first, want.first);
  EXPECT_EQ(got.second, want.second);
  EXPECT_EQ(got.second.size(), 12u);
}

TEST(RangeSummary, DescribeReportsMethodAndFamily) {
  Rng rng(7);
  const auto items = RandomItems(100, 1 << 10, &rng);

  SummarizerConfig cfg;
  cfg.s = 20.0;
  cfg.bits_x = 10;
  cfg.bits_y = 10;

  auto build = [&](const char* key) {
    auto builder = MakeSummarizer(key, cfg);
    builder->AddBatch(items);
    return builder->Finalize();
  };

  const auto sample = build(keys::kProduct);
  const SummaryInfo sample_info = sample->Describe();
  EXPECT_EQ(sample_info.method, keys::kProduct);
  EXPECT_EQ(sample_info.family, "sample");
  EXPECT_EQ(sample_info.size_elements, sample->SizeInElements());
  bool has_tau = false;
  for (const auto& [k, v] : sample_info.params) has_tau |= k == "tau";
  EXPECT_TRUE(has_tau);

  EXPECT_EQ(build(keys::kWavelet)->Describe().family, "deterministic");
  EXPECT_EQ(build(keys::kSketch)->Describe().family, "sketch");
  EXPECT_EQ(build(keys::kExact)->Describe().family, "exact");
}

}  // namespace
}  // namespace sas

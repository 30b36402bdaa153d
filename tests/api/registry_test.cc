// Registry round-trip tests: for a fixed seed, MakeSummarizer must produce
// summaries identical to direct calls of the legacy free functions in
// src/aware/ (the adapters are thin and deterministic), plus error-path
// coverage for unknown keys and invalid configs.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.h"
#include "aware/disjoint_summarizer.h"
#include "aware/hierarchy_summarizer.h"
#include "aware/order_summarizer.h"
#include "aware/product_summarizer.h"
#include "core/random.h"
#include "oracles/summarize.h"
#include "structure/hierarchy.h"
#include "test_util.h"

namespace sas {
namespace {

using test::RandomItems;

std::vector<KeyId> SortedIds(const Sample& sample) {
  std::vector<KeyId> ids;
  for (const auto& e : sample.entries()) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

const SampleSummary& BuildSample(const char* key,
                                 const SummarizerConfig& cfg,
                                 const std::vector<WeightedKey>& items,
                                 std::unique_ptr<RangeSummary>* holder) {
  auto builder = MakeSummarizer(key, cfg);
  builder->AddBatch(items);
  *holder = builder->Finalize();
  const SampleSummary* sample = (*holder)->AsSample();
  EXPECT_NE(sample, nullptr);
  return *sample;
}

void ExpectSameSummary(const SampleSummary& got, const SummarizeResult& want,
                       const std::vector<WeightedKey>& items) {
  EXPECT_DOUBLE_EQ(got.tau(), want.tau);
  EXPECT_EQ(SortedIds(got.sample()), SortedIds(want.sample));
  ASSERT_EQ(got.probs().size(), want.probs.size());
  for (std::size_t i = 0; i < want.probs.size(); ++i) {
    EXPECT_DOUBLE_EQ(got.probs()[i], want.probs[i]) << "prob " << i;
  }
  // Estimates agree exactly on a spread of boxes.
  for (Coord hi : {Coord{1} << 8, Coord{1} << 10, Coord{1} << 12}) {
    const Box box{{0, hi}, {0, hi}};
    MultiRangeQuery q;
    q.boxes.push_back(box);
    EXPECT_DOUBLE_EQ(got.EstimateQuery(q), want.sample.EstimateQuery(q));
  }
  EXPECT_EQ(got.SizeInElements(), want.sample.size());
  (void)items;
}

TEST(RegistryEquivalence, OrderMatchesLegacyFreeFunction) {
  Rng data_rng(11);
  const auto items = RandomItems(300, 1 << 12, &data_rng);
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    SummarizerConfig cfg;
    cfg.s = 40.0;
    cfg.seed = seed;
    cfg.structure = StructureSpec::Order();
    std::unique_ptr<RangeSummary> holder;
    const SampleSummary& got = BuildSample(keys::kOrder, cfg, items, &holder);

    Rng rng(seed);
    const SummarizeResult want = OrderSummarize(items, 40.0, &rng);
    ExpectSameSummary(got, want, items);
    EXPECT_EQ(got.Name(), keys::kOrder);
  }
}

TEST(RegistryEquivalence, ProductMatchesLegacyFreeFunction) {
  Rng data_rng(12);
  const auto items = RandomItems(300, 1 << 12, &data_rng);
  for (std::uint64_t seed : {2u, 9u, 77u}) {
    SummarizerConfig cfg;
    cfg.s = 50.0;
    cfg.seed = seed;
    cfg.structure = StructureSpec::Product();
    std::unique_ptr<RangeSummary> holder;
    const SampleSummary& got =
        BuildSample(keys::kProduct, cfg, items, &holder);

    Rng rng(seed);
    const SummarizeResult want = ProductSummarize(items, 50.0, &rng);
    ExpectSameSummary(got, want, items);
    EXPECT_EQ(got.Name(), keys::kProduct);
  }
}

TEST(RegistryEquivalence, HierarchyMatchesLegacyFreeFunction) {
  Rng data_rng(13);
  const std::size_t n = 200;
  Rng tree_rng(5);
  const Hierarchy h = Hierarchy::Random(n, 4, &tree_rng);
  std::vector<WeightedKey> items;
  for (KeyId k = 0; k < n; ++k) {
    items.push_back({k, data_rng.NextPareto(1.2), {k, 0}});
  }
  for (std::uint64_t seed : {3u, 21u}) {
    SummarizerConfig cfg;
    cfg.s = 25.0;
    cfg.seed = seed;
    cfg.structure = StructureSpec::OverHierarchy(&h);
    std::unique_ptr<RangeSummary> holder;
    const SampleSummary& got =
        BuildSample(keys::kHierarchy, cfg, items, &holder);

    Rng rng(seed);
    const SummarizeResult want = HierarchySummarize(items, h, 25.0, &rng);
    ExpectSameSummary(got, want, items);
    EXPECT_EQ(got.Name(), keys::kHierarchy);
  }
}

TEST(RegistryEquivalence, DisjointMatchesLegacyFreeFunction) {
  Rng data_rng(14);
  const std::size_t n = 240;
  const int num_ranges = 8;
  std::vector<WeightedKey> items;
  std::vector<int> range_of(n);
  for (KeyId k = 0; k < n; ++k) {
    items.push_back({k, data_rng.NextPareto(1.2), {k, 0}});
    range_of[k] = static_cast<int>(k) % num_ranges;
  }
  for (std::uint64_t seed : {4u, 33u}) {
    SummarizerConfig cfg;
    cfg.s = 30.0;
    cfg.seed = seed;
    cfg.structure = StructureSpec::Disjoint(range_of, num_ranges);
    std::unique_ptr<RangeSummary> holder;
    const SampleSummary& got =
        BuildSample(keys::kDisjoint, cfg, items, &holder);

    Rng rng(seed);
    const SummarizeResult want =
        DisjointSummarize(items, range_of, num_ranges, 30.0, &rng);
    ExpectSameSummary(got, want, items);
    EXPECT_EQ(got.Name(), keys::kDisjoint);
  }
}

TEST(RegistryEquivalence, NdMatchesLegacyFreeFunction) {
  Rng data_rng(15);
  const auto items = RandomItems(250, 1 << 10, &data_rng);
  // Flatten exactly as the adapter's Add does: x then y per item.
  std::vector<Coord> coords;
  std::vector<Weight> weights;
  for (const auto& it : items) {
    coords.push_back(it.pt.x);
    coords.push_back(it.pt.y);
    weights.push_back(it.weight);
  }
  for (std::uint64_t seed : {5u, 55u}) {
    SummarizerConfig cfg;
    cfg.s = 35.0;
    cfg.seed = seed;
    cfg.structure = StructureSpec::Nd(2);
    std::unique_ptr<RangeSummary> holder;
    const SampleSummary& got = BuildSample(keys::kNd, cfg, items, &holder);

    Rng rng(seed);
    const ResultNd want = ProductSummarizeNd(coords, 2, weights, 35.0, &rng);
    EXPECT_DOUBLE_EQ(got.tau(), want.tau);
    std::vector<KeyId> want_ids;
    for (std::size_t i : want.chosen) {
      want_ids.push_back(items[i].id);
    }
    std::sort(want_ids.begin(), want_ids.end());
    EXPECT_EQ(SortedIds(got.sample()), want_ids);
    ASSERT_EQ(got.probs().size(), want.probs.size());
    for (std::size_t i = 0; i < want.probs.size(); ++i) {
      EXPECT_DOUBLE_EQ(got.probs()[i], want.probs[i]);
    }
    EXPECT_EQ(got.Name(), keys::kNd);
  }
}

TEST(RegistryEquivalence, ProductMatchesNdDims2) {
  // `product` is `nd` at d = 2: the same tau, probs and sample, entry for
  // entry in sample order, on empty and single-item inputs, duplicate
  // points, and s >= n (every key certain).
  Rng data_rng(16);
  std::vector<WeightedKey> dups = RandomItems(40, 1 << 10, &data_rng);
  for (std::size_t i = 0; i < 40; ++i) {
    WeightedKey copy = dups[i];  // same point, new id and weight
    copy.id = static_cast<KeyId>(40 + i);
    copy.weight = data_rng.NextPareto(1.3);
    dups.push_back(copy);
  }
  const std::vector<std::vector<WeightedKey>> inputs{
      {}, RandomItems(1, 1 << 10, &data_rng),
      RandomItems(300, 1 << 10, &data_rng), dups};
  for (const auto& items : inputs) {
    for (double s : {1.0, 8.0, 35.0, 500.0}) {
      for (std::uint64_t seed : {3u, 33u}) {
        SummarizerConfig cfg;
        cfg.s = s;
        cfg.seed = seed;
        cfg.structure = StructureSpec::Product();
        std::unique_ptr<RangeSummary> product_holder;
        const SampleSummary& product =
            BuildSample(keys::kProduct, cfg, items, &product_holder);
        cfg.structure = StructureSpec::Nd(2);
        std::unique_ptr<RangeSummary> nd_holder;
        const SampleSummary& nd = BuildSample(keys::kNd, cfg, items, &nd_holder);

        SCOPED_TRACE(testing::Message() << "n=" << items.size() << " s=" << s
                                        << " seed=" << seed);
        EXPECT_EQ(product.tau(), nd.tau());
        EXPECT_EQ(product.probs(), nd.probs());
        std::vector<KeyId> product_ids, nd_ids;
        for (const auto& e : product.sample().entries()) {
          product_ids.push_back(e.id);
        }
        for (const auto& e : nd.sample().entries()) nd_ids.push_back(e.id);
        EXPECT_EQ(product_ids, nd_ids);
      }
    }
  }
}

TEST(RegistryErrors, UnknownKeyThrows) {
  SummarizerConfig cfg;
  EXPECT_THROW(MakeSummarizer("no-such-method", cfg), std::invalid_argument);
  EXPECT_FALSE(IsRegisteredSummarizer("no-such-method"));
}

TEST(RegistryErrors, InvalidConfigThrows) {
  SummarizerConfig cfg;
  cfg.s = 0.0;  // size must be positive
  EXPECT_THROW(MakeSummarizer(keys::kProduct, cfg), std::invalid_argument);

  cfg = SummarizerConfig{};
  cfg.sprime_factor = 0.5;  // oversampling below 1
  EXPECT_THROW(MakeSummarizer(keys::kAware, cfg), std::invalid_argument);

  cfg = SummarizerConfig{};  // hierarchy method without a hierarchy
  EXPECT_THROW(MakeSummarizer(keys::kHierarchy, cfg), std::invalid_argument);
  EXPECT_THROW(MakeSummarizer(keys::kHierarchyTwoPass, cfg),
               std::invalid_argument);

  cfg = SummarizerConfig{};  // disjoint method without ranges
  EXPECT_THROW(MakeSummarizer(keys::kDisjoint, cfg), std::invalid_argument);

  cfg = SummarizerConfig{};
  cfg.structure = StructureSpec::Nd(0);  // bad dimension
  EXPECT_THROW(MakeSummarizer(keys::kNd, cfg), std::invalid_argument);

  cfg = SummarizerConfig{};
  cfg.bits_x = 0;  // bad domain bits for the deterministic baselines
  EXPECT_THROW(MakeSummarizer(keys::kWavelet, cfg), std::invalid_argument);
  EXPECT_THROW(MakeSummarizer(keys::kQDigest, cfg), std::invalid_argument);
  EXPECT_THROW(MakeSummarizer(keys::kSketch, cfg), std::invalid_argument);

  // Fractional s is legal for the samplers (floor/ceil sample sizes) but
  // would truncate to a zero budget for the integral-budget methods.
  cfg = SummarizerConfig{};
  cfg.s = 0.5;
  EXPECT_THROW(MakeSummarizer(keys::kObliv, cfg), std::invalid_argument);
  EXPECT_THROW(MakeSummarizer(keys::kWavelet, cfg), std::invalid_argument);
  EXPECT_THROW(MakeSummarizer(keys::kSketch, cfg), std::invalid_argument);
  EXPECT_NO_THROW(MakeSummarizer(keys::kProduct, cfg));
}

TEST(RegistryErrors, MalformedNdConfigsThrow) {
  // Dimension bounds are validated eagerly at MakeSummarizer time.
  for (int dims : {-1, 0, 17, 100}) {
    SummarizerConfig cfg;
    cfg.structure = StructureSpec::Nd(dims);
    EXPECT_THROW(MakeSummarizer(keys::kNd, cfg), std::invalid_argument)
        << "dims=" << dims;
  }
  // Every dims inside [1, 16] constructs.
  for (int dims : {1, 2, 3, 16}) {
    SummarizerConfig cfg;
    cfg.structure = StructureSpec::Nd(dims);
    EXPECT_NO_THROW(MakeSummarizer(keys::kNd, cfg)) << "dims=" << dims;
  }
}

TEST(RegistryErrors, OutOfRangeRangeIdsThrow) {
  // Every range_of entry must lie in [0, num_ranges): both disjoint keys
  // reject the first bad entry at MakeSummarizer time, naming the field and
  // the index, before any item is added.
  for (const char* key : {keys::kDisjoint, keys::kDisjointTwoPass}) {
    for (int bad : {4, 99, -1}) {
      SummarizerConfig cfg;
      cfg.structure = StructureSpec::Disjoint({0, 3, 1, bad, 2}, 4);
      try {
        MakeSummarizer(key, cfg);
        ADD_FAILURE() << key << " accepted range id " << bad;
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("structure.range_of[3]"), std::string::npos)
            << what;
        EXPECT_NE(what.find(std::to_string(bad)), std::string::npos) << what;
      }
    }
    SummarizerConfig ok;
    ok.structure = StructureSpec::Disjoint({0, 3, 1, 2}, 4);
    EXPECT_NO_THROW(MakeSummarizer(key, ok)) << key;
  }
}

TEST(RegistryErrors, NdIngestContractViolationsThrow) {
  SummarizerConfig cfg;
  cfg.structure = StructureSpec::Nd(3);

  // AddCoords with a dims that does not match the structure descriptor.
  {
    auto builder = MakeSummarizer(keys::kNd, cfg);
    const Coord pt[4] = {1, 2, 3, 4};
    EXPECT_THROW(builder->AddCoords(pt, 4, 1.0), std::invalid_argument);
  }
  // Add carries only two coordinates; dims > 2 must use AddCoords.
  {
    auto builder = MakeSummarizer(keys::kNd, cfg);
    EXPECT_THROW(builder->Add({0, 1.0, {5, 6}}), std::logic_error);
  }
  // Mixing the keyed and coordinate ingest paths is rejected either way.
  {
    SummarizerConfig cfg2d;
    cfg2d.structure = StructureSpec::Nd(2);
    auto builder = MakeSummarizer(keys::kNd, cfg2d);
    builder->Add({0, 1.0, {5, 6}});
    const Coord pt[2] = {1, 2};
    EXPECT_THROW(builder->AddCoords(pt, 2, 1.0), std::logic_error);

    auto builder2 = MakeSummarizer(keys::kNd, cfg2d);
    builder2->AddCoords(pt, 2, 1.0);
    EXPECT_THROW(builder2->Add({0, 1.0, {5, 6}}), std::logic_error);
  }
  // Non-nd methods have no coordinate ingest path at all.
  {
    SummarizerConfig plain;
    auto builder = MakeSummarizer(keys::kObliv, plain);
    const Coord pt[3] = {1, 2, 3};
    EXPECT_THROW(builder->AddCoords(pt, 3, 1.0), std::logic_error);
  }
}

TEST(Registry, ListsAllCanonicalKeys) {
  const auto registered = RegisteredSummarizers();
  for (const char* key :
       {keys::kOrder, keys::kHierarchy, keys::kDisjoint, keys::kProduct,
        keys::kNd, keys::kAware, keys::kOrderTwoPass,
        keys::kHierarchyTwoPass, keys::kDisjointTwoPass, keys::kObliv,
        keys::kWavelet, keys::kQDigest, keys::kSketch, keys::kExact}) {
    EXPECT_TRUE(std::count(registered.begin(), registered.end(), key))
        << key;
    EXPECT_TRUE(IsRegisteredSummarizer(key)) << key;
  }
}

TEST(Registry, CustomRegistrationRoundTrips) {
  // A user-registered method becomes constructible; duplicate keys are
  // rejected without clobbering the registered factory.
  static int builds = 0;
  class TrivialBuilder : public Summarizer {
   public:
    using Summarizer::Summarizer;
    void Add(const WeightedKey& item) override { items_.push_back(item); }
    std::unique_ptr<RangeSummary> Finalize() override {
      ++builds;
      return std::make_unique<SampleSummary>("custom-test",
                                             Sample(0.0, items_));
    }

   private:
    std::vector<WeightedKey> items_;
  };

  ASSERT_TRUE(RegisterSummarizer(
      "custom-test", [](const SummarizerConfig& cfg) {
        return std::unique_ptr<Summarizer>(new TrivialBuilder(cfg));
      }));
  EXPECT_FALSE(RegisterSummarizer(
      "custom-test",
      [](const SummarizerConfig&) -> std::unique_ptr<Summarizer> {
        return nullptr;
      }));
  EXPECT_FALSE(RegisterSummarizer(
      keys::kProduct,
      [](const SummarizerConfig&) -> std::unique_ptr<Summarizer> {
        return nullptr;
      }));

  SummarizerConfig cfg;
  auto builder = MakeSummarizer("custom-test", cfg);
  builder->Add({0, 1.0, {0, 0}});
  const auto summary = builder->Finalize();
  EXPECT_EQ(summary->Name(), "custom-test");
  EXPECT_EQ(summary->SizeInElements(), 1u);
  EXPECT_EQ(builds, 1);
}

}  // namespace
}  // namespace sas

#include "eval/harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "aware/product_summarizer.h"
#include "data/network_gen.h"
#include "oracles/product_summarize.h"

namespace sas {
namespace {

Dataset2D SmallDataset() {
  NetworkConfig cfg;
  cfg.num_sources = 200;
  cfg.num_dests = 200;
  cfg.num_pairs = 1500;
  cfg.bits = 16;
  cfg.seed = 5;
  return GenerateNetwork(cfg);
}

TEST(BuildMethods, BuildsAllRequested) {
  const auto ds = SmallDataset();
  const auto built =
      BuildMethods(ds, 100, DefaultMethods(/*include_sketch=*/true), 123);
  ASSERT_EQ(built.size(), 5u);
  EXPECT_EQ(built[0].summary->Name(), "aware");
  EXPECT_EQ(built[1].summary->Name(), "obliv");
  EXPECT_EQ(built[2].summary->Name(), "wavelet");
  EXPECT_EQ(built[3].summary->Name(), "qdigest");
  EXPECT_EQ(built[4].summary->Name(), "sketch");
  for (const auto& b : built) {
    EXPECT_GE(b.build_seconds, 0.0);
    EXPECT_GT(b.summary->SizeInElements(), 0u);
  }
}

TEST(BuildMethods, SampleSizesExact) {
  const auto ds = SmallDataset();
  const auto built =
      BuildMethods(ds, 64, {keys::kAware, keys::kObliv}, 7);
  ASSERT_EQ(built.size(), 2u);
  EXPECT_EQ(built[0].summary->SizeInElements(), 64u);  // aware
  EXPECT_EQ(built[1].summary->SizeInElements(), 64u);  // obliv
}

TEST(BuildMethods, AcceptsShardedKeys) {
  // Composed sharded keys flow through the harness like any other method
  // key: built via worker threads, evaluated over the same batteries.
  const auto ds = SmallDataset();
  const auto built =
      BuildMethods(ds, 100, {"sharded:2:obliv", "sharded:4:aware"}, 99);
  ASSERT_EQ(built.size(), 2u);
  EXPECT_EQ(built[0].summary->Name(), "sharded:2:obliv");
  EXPECT_EQ(built[1].summary->Name(), "sharded:4:aware");
  // Merged VarOpt size is s up to a +-1 floating-point residual.
  EXPECT_NEAR(static_cast<double>(built[0].summary->SizeInElements()), 100.0,
              1.0);
  EXPECT_NEAR(static_cast<double>(built[1].summary->SizeInElements()), 100.0,
              1.0);

  Rng rng(3);
  const auto battery =
      UniformAreaQueries(ds.items, ds.domain, 8, 5, 0.4, &rng);
  for (const auto& b : built) {
    const auto result = EvaluateOnBattery(b, battery);
    EXPECT_EQ(result.errors.count, 8u);
    EXPECT_LT(result.errors.mean_abs, 0.5);
  }
}

TEST(BuildMethods, AcceptsWindowedKeys) {
  // Composed windowed keys flow through the harness like any other method
  // key: without timed ingest the ring is a single bucket at time 0, so
  // the harness's batch datasets evaluate normally — and the wrappers
  // nest with sharded: in either order.
  const auto ds = SmallDataset();
  const auto built = BuildMethods(ds, 100,
                                  {"windowed:3600:6:obliv",
                                   "windowed:3600:6:sharded:2:obliv",
                                   "sharded:2:windowed:3600:6:obliv"},
                                  42);
  ASSERT_EQ(built.size(), 3u);
  EXPECT_EQ(built[0].summary->Name(), "windowed:3600:6:obliv");
  EXPECT_EQ(built[1].summary->Name(), "windowed:3600:6:sharded:2:obliv");
  EXPECT_EQ(built[2].summary->Name(), "sharded:2:windowed:3600:6:obliv");
  for (const auto& b : built) {
    // Merged VarOpt size is s up to a +-1 floating-point residual.
    EXPECT_NEAR(static_cast<double>(b.summary->SizeInElements()), 100.0, 1.0);
  }

  Rng rng(4);
  const auto battery =
      UniformAreaQueries(ds.items, ds.domain, 8, 5, 0.4, &rng);
  for (const auto& b : built) {
    const auto result = EvaluateOnBattery(b, battery);
    EXPECT_EQ(result.errors.count, 8u);
    EXPECT_LT(result.errors.mean_abs, 0.5);
  }
}

TEST(BuildMethodsNd, NdKeyWithD3DataMatchesDirectBuild) {
  // d = 3 data flows end to end through the harness under the "nd" key,
  // and the harness-built sample is exactly the one a direct
  // ProductSummarizeNd call produces with the harness's derived seed (the
  // registry determinism contract), so HT estimates agree to the bit.
  NdCloudConfig gen;
  gen.num_points = 3000;
  gen.dims = 3;
  gen.seed = 11;
  const DatasetNd ds = GenerateNdCloud(gen);

  const auto built = BuildMethodsNd(ds, 200, {keys::kNd}, 555);
  ASSERT_EQ(built.size(), 1u);
  EXPECT_EQ(built[0].summary->Name(), "nd");
  const SampleSummary* got = built[0].summary->AsSample();
  ASSERT_NE(got, nullptr);

  Rng seed_rng(555);  // BuildMethodsNd derives method seeds from Rng(seed)
  Rng rng(seed_rng.Next());
  const ResultNd want = ProductSummarizeNd(ds.coords, 3, ds.weights, 200.0,
                                           &rng);
  ASSERT_EQ(got->sample().size(), want.chosen.size());
  std::vector<KeyId> got_ids, want_ids;
  for (const auto& e : got->sample().entries()) got_ids.push_back(e.id);
  for (std::size_t i : want.chosen) {
    want_ids.push_back(static_cast<KeyId>(i));
  }
  std::sort(got_ids.begin(), got_ids.end());
  std::sort(want_ids.begin(), want_ids.end());
  EXPECT_EQ(got_ids, want_ids);
  EXPECT_DOUBLE_EQ(got->tau(), want.tau);

  // HT tolerance on real 3-d box queries.
  Rng qrng(7);
  const NdQueryBattery battery =
      UniformVolumeQueriesNd(ds, 12, 0.5, &qrng);
  const BatteryResult r = EvaluateOnBatteryNd(built[0], battery, ds);
  EXPECT_EQ(r.errors.count, 12u);
  EXPECT_LT(r.errors.mean_abs, 0.05);
}

TEST(BuildMethodsNd, WeightOnlyMethodsFallBackToKeyedIngest) {
  // Methods without a coordinate path (obliv) ingest d = 3 data as keyed
  // items; id-keyed subset evaluation stays valid.
  NdCloudConfig gen;
  gen.num_points = 2000;
  gen.dims = 3;
  gen.seed = 21;
  const DatasetNd ds = GenerateNdCloud(gen);
  const auto built = BuildMethodsNd(ds, 150, {keys::kNd, keys::kObliv}, 99);
  ASSERT_EQ(built.size(), 2u);
  EXPECT_EQ(built[1].summary->Name(), "obliv");
  EXPECT_EQ(built[1].summary->SizeInElements(), 150u);

  Rng qrng(8);
  const NdQueryBattery battery =
      UniformVolumeQueriesNd(ds, 10, 0.5, &qrng);
  for (const auto& b : built) {
    const BatteryResult r = EvaluateOnBatteryNd(b, battery, ds);
    EXPECT_EQ(r.errors.count, 10u);
    EXPECT_LT(r.errors.mean_abs, 0.1);
  }
}

TEST(EvaluateOnBatteryNd, RejectsNonSampleSummaries) {
  // The deterministic baselines build over the 2-D projection but cannot
  // answer d-dimensional subset queries; the evaluator says so eagerly.
  NdCloudConfig gen;
  gen.num_points = 500;
  gen.dims = 3;
  gen.seed = 31;
  const DatasetNd ds = GenerateNdCloud(gen);
  const auto built = BuildMethodsNd(ds, 64, {keys::kWavelet}, 5);
  Rng qrng(9);
  const NdQueryBattery battery = UniformVolumeQueriesNd(ds, 3, 0.4, &qrng);
  EXPECT_THROW(EvaluateOnBatteryNd(built[0], battery, ds),
               std::invalid_argument);
}

TEST(EvaluateOnBattery, ErrorsAreFiniteAndSmallForSamples) {
  const auto ds = SmallDataset();
  Rng rng(9);
  const auto battery =
      UniformAreaQueries(ds.items, ds.domain, 10, 5, 0.4, &rng);
  const auto built = BuildMethods(ds, 200, {keys::kAware, keys::kObliv}, 11);
  for (const auto& b : built) {
    const auto result = EvaluateOnBattery(b, battery);
    EXPECT_EQ(result.errors.count, 10u);
    EXPECT_GE(result.query_seconds, 0.0);
    EXPECT_LT(result.errors.mean_abs, 0.5);
  }
}

TEST(Stopwatch, MeasuresElapsed) {
  Stopwatch sw;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  ::testing::Test::RecordProperty("sink", static_cast<int>(sink / 1e9));
  EXPECT_GE(sw.Seconds(), 0.0);
  const double t1 = sw.Seconds();
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(sw.Seconds(), t1);
}

}  // namespace
}  // namespace sas

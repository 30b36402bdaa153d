// Micro-benchmarks (google-benchmark) for the merge/shard layer: VarOpt
// sample merge cost and single-thread vs. N-shard build throughput of the
// "sharded:<N>:<inner>" backend. Shard scaling is bounded by the host's
// core count — record the machine when comparing runs (BENCH_shard.json).

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "api/registry.h"
#include "core/merge.h"
#include "core/random.h"
#include "sampling/stream_varopt.h"
#include "tests/oracles/varopt_offline.h"

namespace sas {
namespace {

std::vector<WeightedKey> ParetoItems(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<WeightedKey> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i] = {static_cast<KeyId>(i), rng.NextPareto(1.2),
                {rng.NextBounded(1 << 20), rng.NextBounded(1 << 20)}};
  }
  return items;
}

void BM_MergeSamples(benchmark::State& state) {
  // Two-way merge of equal-threshold halves through one reused scratch,
  // the windowed wrapper's call shape.
  const std::size_t s = static_cast<std::size_t>(state.range(0));
  const auto items = ParetoItems(8 * s, 31);
  Rng rng(32);
  const std::vector<WeightedKey> half_a(items.begin(),
                                        items.begin() + items.size() / 2);
  const std::vector<WeightedKey> half_b(items.begin() + items.size() / 2,
                                        items.end());
  const Sample a = VarOptOffline(half_a, static_cast<double>(s), &rng);
  const Sample b = VarOptOffline(half_b, static_cast<double>(s), &rng);
  const Sample* parts[2] = {&a, &b};
  MergeScratch scratch;
  // A fresh seed per merge, as in the windowed ring. (state.iterations()
  // does not advance inside the loop, and replaying one draw sequence lets
  // the branch predictor learn the whole settle.)
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng merge_rng(++seed);
    benchmark::DoNotOptimize(
        MergeSampleParts(parts, 2, s, &merge_rng, &scratch));
  }
  // One "item" = one merged input entry.
  state.SetItemsProcessed(state.iterations() * (a.size() + b.size()));
}
BENCHMARK(BM_MergeSamples)->Arg(100)->Arg(1000)->Arg(10000);

Sample ProductSample(const std::vector<WeightedKey>& items, double s,
                     std::uint64_t seed) {
  SummarizerConfig cfg;
  cfg.s = s;
  cfg.seed = seed;
  auto builder = MakeSummarizer("product", cfg);
  builder->AddBatch(items);
  return builder->Finalize()->AsSample()->sample();
}

void BM_MergeBucketIntoWindow(benchmark::State& state) {
  // The merge of a windowed epoch crossing: the product sample of a fresh
  // ~1,100-item bucket folded into a 1,000-entry aggregate of many older
  // buckets, whose threshold is far larger. The merged probabilities mix
  // the bucket's small ones with the aggregate's near-1 ones.
  constexpr std::size_t kS = 1000;
  const Sample bucket = ProductSample(ParetoItems(1100, 36), kS, 37);
  const Sample aggregate = ProductSample(ParetoItems(24000, 38), kS, 39);
  const Sample* parts[2] = {&aggregate, &bucket};
  MergeScratch scratch;
  std::uint64_t seed = 0;  // a fresh seed per merge, as in BM_MergeSamples
  for (auto _ : state) {
    Rng merge_rng(++seed);
    benchmark::DoNotOptimize(
        MergeSampleParts(parts, 2, kS, &merge_rng, &scratch));
  }
  state.SetItemsProcessed(state.iterations() *
                          (aggregate.size() + bucket.size()));
  state.counters["tau_ratio"] = aggregate.tau() / bucket.tau();
}
BENCHMARK(BM_MergeBucketIntoWindow);

void BM_AbsorbIntoCombiner(benchmark::State& state) {
  // Streaming alternative to the merge: Absorb feeds a shard sample's
  // entries into a StreamVarOpt combiner at their adjusted weights.
  const std::size_t s = 1000;
  const auto items = ParetoItems(8 * s, 33);
  Rng rng(34);
  const Sample part = VarOptOffline(items, static_cast<double>(s), &rng);
  std::uint64_t seed = 0;  // per iteration: state.iterations() is constant
  for (auto _ : state) {
    StreamVarOpt combiner(s, Rng(++seed));
    combiner.Absorb(part);
    benchmark::DoNotOptimize(combiner.TakeSample());
  }
  state.SetItemsProcessed(state.iterations() * part.size());
}
BENCHMARK(BM_AbsorbIntoCombiner);

constexpr std::size_t kBuildN = 1 << 17;

/// Build throughput of "sharded:<N>:obliv" (N = 1 is the single-shard
/// baseline: same wrapper, one worker). Compare against BM_UnshardedBuild
/// for the wrapper's queueing overhead.
void BM_ShardedBuild(benchmark::State& state) {
  static const std::vector<WeightedKey> items = ParetoItems(kBuildN, 35);
  const std::string key =
      "sharded:" + std::to_string(state.range(0)) + ":obliv";
  std::uint64_t seed = 0;  // per iteration: state.iterations() is constant
  for (auto _ : state) {
    SummarizerConfig cfg;
    cfg.s = 1000.0;
    cfg.seed = ++seed;
    auto builder = MakeSummarizer(key, cfg);
    builder->AddBatch(items);
    benchmark::DoNotOptimize(builder->Finalize());
  }
  state.SetItemsProcessed(state.iterations() * items.size());
}
BENCHMARK(BM_ShardedBuild)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_UnshardedBuild(benchmark::State& state) {
  static const std::vector<WeightedKey> items = ParetoItems(kBuildN, 35);
  std::uint64_t seed = 0;  // per iteration: state.iterations() is constant
  for (auto _ : state) {
    SummarizerConfig cfg;
    cfg.s = 1000.0;
    cfg.seed = ++seed;
    auto builder = MakeSummarizer(keys::kObliv, cfg);
    builder->AddBatch(items);
    benchmark::DoNotOptimize(builder->Finalize());
  }
  state.SetItemsProcessed(state.iterations() * items.size());
}
BENCHMARK(BM_UnshardedBuild)->Unit(benchmark::kMillisecond);

void BM_ShardedBuildProduct(benchmark::State& state) {
  // Structure-aware inner method: the buffering product sampler, whose
  // kd build dominates and parallelizes across shards at Finalize.
  static const std::vector<WeightedKey> items =
      ParetoItems(kBuildN / 4, 36);
  const std::string key =
      "sharded:" + std::to_string(state.range(0)) + ":product";
  std::uint64_t seed = 0;  // per iteration: state.iterations() is constant
  for (auto _ : state) {
    SummarizerConfig cfg;
    cfg.s = 1000.0;
    cfg.seed = ++seed;
    auto builder = MakeSummarizer(key, cfg);
    builder->AddBatch(items);
    benchmark::DoNotOptimize(builder->Finalize());
  }
  state.SetItemsProcessed(state.iterations() * items.size());
}
BENCHMARK(BM_ShardedBuildProduct)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace sas

BENCHMARK_MAIN();

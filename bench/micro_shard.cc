// Micro-benchmarks (google-benchmark) for the merge/shard layer: VarOpt
// sample merge cost and single-thread vs. N-shard build throughput of the
// "sharded:<N>:<inner>" backend. Shard scaling is bounded by the host's
// core count — record the machine when comparing runs (BENCH_shard.json).

#include <benchmark/benchmark.h>

#include <cstddef>
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
  const std::size_t s = static_cast<std::size_t>(state.range(0));
  const auto items = ParetoItems(8 * s, 31);
  Rng rng(32);
  const std::vector<WeightedKey> half_a(items.begin(),
                                        items.begin() + items.size() / 2);
  const std::vector<WeightedKey> half_b(items.begin() + items.size() / 2,
                                        items.end());
  const Sample a = VarOptOffline(half_a, static_cast<double>(s), &rng);
  const Sample b = VarOptOffline(half_b, static_cast<double>(s), &rng);
  for (auto _ : state) {
    Rng merge_rng(state.iterations());
    benchmark::DoNotOptimize(MergeSamples(a, b, s, &merge_rng));
  }
  // One "item" = one merged input entry.
  state.SetItemsProcessed(state.iterations() * (a.size() + b.size()));
}
BENCHMARK(BM_MergeSamples)->Arg(100)->Arg(1000)->Arg(10000);

void BM_AbsorbIntoCombiner(benchmark::State& state) {
  // Streaming alternative to MergeSamples: Absorb feeds a shard sample's
  // entries into a StreamVarOpt combiner at their adjusted weights.
  const std::size_t s = 1000;
  const auto items = ParetoItems(8 * s, 33);
  Rng rng(34);
  const Sample part = VarOptOffline(items, static_cast<double>(s), &rng);
  for (auto _ : state) {
    StreamVarOpt combiner(s, Rng(state.iterations()));
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
  for (auto _ : state) {
    SummarizerConfig cfg;
    cfg.s = 1000.0;
    cfg.seed = state.iterations();
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
  for (auto _ : state) {
    SummarizerConfig cfg;
    cfg.s = 1000.0;
    cfg.seed = state.iterations();
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
  for (auto _ : state) {
    SummarizerConfig cfg;
    cfg.s = 1000.0;
    cfg.seed = state.iterations();
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

// Micro-benchmarks (google-benchmark) for the lock-free serving tier
// (src/serve/): snapshot build cost at publish time, the linear Sample box
// scan every reader query runs, and the mixed workload the tier exists
// for — concurrent reader threads acquiring and querying snapshots while
// one publisher keeps republishing. The mixed benchmark reports reader
// acquire+query latency percentiles (p50/p95/p99, nanoseconds) as
// counters. Baselines are checked into BENCH_serve.json and gated by
// bench/compare_bench.py in CI.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/random.h"
#include "core/sample.h"
#include "serve/query_service.h"
#include "serve/snapshot.h"

namespace sas {
namespace {

/// A finalized-sample stand-in: s entries with Pareto weights scattered
/// over a 2^20 x 2^20 domain, tau at the bottom of the weight range (every
/// entry's adjusted weight is max(w, tau), as in a real bottom-k build).
Sample ParetoSample(std::size_t s, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<WeightedKey> entries(s);
  for (std::size_t i = 0; i < s; ++i) {
    entries[i] = {static_cast<KeyId>(rng.NextBounded(1u << 24)),
                  rng.NextPareto(1.2),
                  {rng.NextBounded(1 << 20), rng.NextBounded(1 << 20)}};
  }
  return Sample(1.0, std::move(entries));
}

/// A selective box: uniform corner, sides up to 1/16 of each axis — the
/// drill-down shape a serving dashboard issues.
Box RandomBox(Rng* rng) {
  const Coord x0 = rng->NextBounded(1 << 20);
  const Coord y0 = rng->NextBounded(1 << 20);
  const Coord wx = 1 + rng->NextBounded(1 << 16);
  const Coord wy = 1 + rng->NextBounded(1 << 16);
  return {{x0, x0 + wx}, {y0, y0 + wy}};
}

/// Snapshot construction — the per-publish cost: one deep sample copy plus
/// its total, O(s).
void BM_SnapshotBuild(benchmark::State& state) {
  const std::size_t s = static_cast<std::size_t>(state.range(0));
  const Sample sample = ParetoSample(s, 71);
  for (auto _ : state) {
    ServingSnapshot snap(sample);
    benchmark::DoNotOptimize(snap.TotalWeight());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(s));
}
BENCHMARK(BM_SnapshotBuild)->Arg(1 << 10)->Arg(1 << 14)
    ->Unit(benchmark::kMicrosecond);

/// Sample::EstimateBox scans all s entries per query — what a reader runs
/// against a snapshot's sample.
void BM_LinearBox(benchmark::State& state) {
  const std::size_t s = static_cast<std::size_t>(state.range(0));
  const Sample sample = ParetoSample(s, 72);
  Rng rng(73);
  std::vector<Box> boxes(256);
  for (auto& b : boxes) b = RandomBox(&rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample.EstimateBox(boxes[i++ % boxes.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinearBox)->Arg(1 << 10)->Arg(1 << 14);

/// The mixed workload: four reader threads acquire/query continuously
/// (zero locks on their path) while the main thread republishes a fresh
/// snapshot per iteration. Reader latency per acquire+box-estimate is
/// collected and reported as p50/p95/p99 counters in nanoseconds; the
/// timed iteration cost is the publisher's (build + swap + reclaim under
/// concurrent pins).
void BM_ServeMixed(benchmark::State& state) {
  constexpr int kReaders = 4;
  constexpr std::size_t kSampleSize = 1 << 12;
  std::vector<Sample> samples;
  for (std::uint64_t v = 0; v < 8; ++v) {
    samples.push_back(ParetoSample(kSampleSize, 80 + v));
  }

  QueryService svc;
  svc.Publish(samples[0]);

  std::atomic<bool> stop{false};
  std::vector<std::vector<std::uint64_t>> latencies(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      QueryService::Reader reader(svc);
      Rng rng(900 + static_cast<std::uint64_t>(r));
      auto& lat = latencies[static_cast<std::size_t>(r)];
      lat.reserve(1 << 16);
      while (!stop.load(std::memory_order_acquire)) {
        const Box box = RandomBox(&rng);
        const auto t0 = std::chrono::steady_clock::now();
        {
          SnapshotHandle snap = reader.Acquire();
          benchmark::DoNotOptimize(snap->sample().EstimateBox(box));
        }
        const auto t1 = std::chrono::steady_clock::now();
        lat.push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
      }
    });
  }

  std::size_t next = 1;
  for (auto _ : state) {
    svc.Publish(samples[next++ % samples.size()]);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  std::vector<std::uint64_t> all;
  for (const auto& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  std::sort(all.begin(), all.end());
  const auto pct = [&](double q) -> double {
    if (all.empty()) return 0.0;
    const std::size_t idx = static_cast<std::size_t>(
        q * static_cast<double>(all.size() - 1));
    return static_cast<double>(all[idx]);
  };
  state.counters["read_p50_ns"] = pct(0.50);
  state.counters["read_p95_ns"] = pct(0.95);
  state.counters["read_p99_ns"] = pct(0.99);
  state.counters["reads"] = static_cast<double>(all.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeMixed)->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace
}  // namespace sas

SAS_BENCHMARK_MAIN()

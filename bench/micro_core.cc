// Micro-benchmarks (google-benchmark) for the core primitives: pair
// aggregation, streaming threshold, streaming VarOpt updates, kd-tree
// construction (synthetic and network-shard-shaped), and sample query
// scans. These quantify the per-item costs that drive the Figure 3
// throughput comparisons.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numeric>
#include <utility>
#include <vector>

#include "api/registry.h"
#include "api/sharded.h"
#include "aware/kd_hierarchy.h"
#include "aware/order_summarizer.h"
#include "aware/product_summarizer.h"
#include "aware/summarize_scratch.h"
#include "aware/two_pass.h"
#include "bench/bench_common.h"
#include "core/ipps.h"
#include "core/pair_aggregate.h"
#include "core/random.h"
#include "core/simd.h"
#include "core/telemetry.h"
#include "data/network_gen.h"
#include "sampling/stream_varopt.h"

// Global allocation counter: every operator new in the process bumps it, so
// a benchmark can assert a hot path is allocation-free in steady state by
// differencing the counter around the timed loop (see BM_SolveTau).
static std::atomic<std::size_t> g_alloc_count{0};

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  // C11 aligned_alloc may reject sizes that are not a multiple of the
  // alignment; round up (glibc tolerates it, strict platforms do not).
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1))) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace sas {
namespace {


std::vector<Weight> ParetoWeights(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Weight> w(n);
  for (auto& x : w) x = rng.NextPareto(1.2);
  return w;
}

void BM_PairAggregate(benchmark::State& state) {
  Rng rng(1);
  double a = 0.4, b = 0.7;
  for (auto _ : state) {
    double x = a, y = b;
    PairAggregate(&x, &y, &rng);
    benchmark::DoNotOptimize(x);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_PairAggregate);

void BM_StreamTauPush(benchmark::State& state) {
  Rng rng(2);
  std::vector<Weight> weights(1 << 16);
  for (auto& w : weights) w = rng.NextPareto(1.2);
  std::size_t i = 0;
  StreamTau st(static_cast<double>(state.range(0)));
  for (auto _ : state) {
    st.Push(weights[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamTauPush)->Arg(100)->Arg(10000);

void BM_StreamVarOptPush(benchmark::State& state) {
  Rng rng(3);
  std::vector<WeightedKey> items(1 << 16);
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i] = {static_cast<KeyId>(i), rng.NextPareto(1.2),
                {rng.NextBounded(1 << 20), rng.NextBounded(1 << 20)}};
  }
  StreamVarOpt sv(static_cast<std::size_t>(state.range(0)), Rng(4));
  std::size_t i = 0;
  for (auto _ : state) {
    sv.Push(items[i++ & 0xFFFF]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamVarOptPush)->Arg(100)->Arg(10000);

/// Solves the inputs in turn, one per iteration, with one reused scratch:
/// cycling keeps the branch predictor from learning one input's search.
void SolveTauLoop(benchmark::State& state,
                  const std::vector<std::vector<Weight>>& inputs, double s) {
  IppsScratch scratch;
  // Warm up once so one-time scratch growth is not charged to the loop;
  // the steady state must then be allocation-free.
  for (const auto& w : inputs) {
    benchmark::DoNotOptimize(SolveTau(w.data(), w.size(), s, &scratch));
  }
  const std::size_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  std::size_t next = 0;
  for (auto _ : state) {
    const std::vector<Weight>& w = inputs[next];
    next = next + 1 == inputs.size() ? 0 : next + 1;
    benchmark::DoNotOptimize(SolveTau(w.data(), w.size(), s, &scratch));
  }
  const std::size_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_iter"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(inputs[0].size()));
}

constexpr std::uint64_t kTauInputs = 8;

/// n Pareto(1.2) weights at s = n / 100, 8 seeds.
void BM_SolveTau(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<Weight>> inputs;
  for (std::uint64_t i = 0; i < kTauInputs; ++i) {
    inputs.push_back(ParetoWeights(n, 11 + i));
  }
  SolveTauLoop(state, inputs, static_cast<double>(n) / 100.0);
}
BENCHMARK(BM_SolveTau)->Arg(1000)->Arg(100000);

/// The adjusted weights of one sample of size 1,000 drawn from
/// `population` Pareto(1.2) weights: the heavy weights as they are, and the
/// threshold for each of the rest.
void AppendSampleWeights(std::size_t population, Rng* rng,
                         std::vector<Weight>* out) {
  std::vector<Weight> w(population);
  for (auto& x : w) x = rng->NextPareto(1.2);
  const double tau = SolveTau(w, 1000.0);
  std::size_t heavy = 0;
  for (Weight x : w) {
    if (x >= tau) {
      out->push_back(x);
      ++heavy;
    }
  }
  out->insert(out->end(), 1000 - heavy, tau);
}

/// The window merge of stream_serve at s = 1,000: a bucket's sample of
/// ~1,100 rows and the aggregate's sample of 59 such buckets, whose
/// thresholds differ ~60x. 2,000 adjusted weights, shuffled, 8 seeds.
void BM_SolveTauMerge(benchmark::State& state) {
  std::vector<std::vector<Weight>> inputs;
  for (std::uint64_t i = 0; i < kTauInputs; ++i) {
    Rng rng(41 + i);
    std::vector<Weight> w;
    AppendSampleWeights(1100, &rng, &w);
    AppendSampleWeights(59 * 1100, &rng, &w);
    for (std::size_t j = w.size(); j > 1; --j) {
      std::swap(w[j - 1], w[rng.NextBounded(j)]);
    }
    inputs.push_back(std::move(w));
  }
  SolveTauLoop(state, inputs, 1000.0);
}
BENCHMARK(BM_SolveTauMerge);

/// w_i = 0.9^i, n = 6,000, s = 4,000: each Newton pass moves only ~65
/// more weights to the heavy side (90 passes unguarded), so the solve
/// takes the guard. 8 shuffles of the one input.
void BM_SolveTauStall(benchmark::State& state) {
  std::vector<Weight> w(6000);
  double x = 1.0;
  for (auto& v : w) {
    v = x;
    x *= 0.9;
  }
  std::vector<std::vector<Weight>> inputs;
  Rng rng(51);
  for (std::uint64_t i = 0; i < kTauInputs; ++i) {
    inputs.push_back(w);
    for (std::size_t j = w.size(); j > 1; --j) {
      std::swap(w[j - 1], w[rng.NextBounded(j)]);
    }
  }
  SolveTauLoop(state, inputs, 4000.0);
}
BENCHMARK(BM_SolveTauStall);

void BM_ChainAggregate(benchmark::State& state) {
  // Full order-structure aggregation pass over n open probabilities: the
  // order settle (OrderAggregate, Algorithm 5), i.e. one ChainAggregateRange
  // over the whole order through core/settle.h's loop, as
  // OrderSummarizeInto and the merge drive it.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<Weight> weights = ParetoWeights(n, 12);
  const double tau = SolveTau(weights, static_cast<double>(n) / 100.0);
  std::vector<double> probs0;
  IppsProbabilities(weights, tau, &probs0);
  for (auto& q : probs0) q = SnapProbability(q);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(13);
  std::vector<double> work;
  for (auto _ : state) {
    work = probs0;
    OrderAggregate(&work, order, &rng);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ChainAggregate)->Arg(1000)->Arg(100000);

void BM_IppsFill(benchmark::State& state) {
  // The dispatched probability-fill kernel (probs[i] = min{1, w[i]/tau})
  // on its own, the inner loop of IppsProbabilities. bytes_per_second
  // counts the streamed read + write.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<Weight> weights = ParetoWeights(n, 21);
  const double tau = SolveTau(weights, static_cast<double>(n) / 100.0);
  std::vector<double> probs(n);
  for (auto _ : state) {
    simd::FillIppsProbabilities(weights.data(), n, tau, probs.data());
    benchmark::DoNotOptimize(probs.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * n * 2 * sizeof(double));
  state.counters["simd"] =
      static_cast<double>(static_cast<int>(simd::ActiveLevel()));
}
BENCHMARK(BM_IppsFill)->Arg(1000)->Arg(100000);

void BM_FillDoubles(benchmark::State& state) {
  // Block draw generation behind RngStream: xoshiro raw output plus the
  // dispatched u64 -> [0,1) conversion.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(23);
  std::vector<double> out(n);
  for (auto _ : state) {
    rng.FillDoubles(out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * n * sizeof(double));
  state.counters["simd"] =
      static_cast<double>(static_cast<int>(simd::ActiveLevel()));
}
BENCHMARK(BM_FillDoubles)->Arg(1000)->Arg(100000);

void BM_KdBuild(benchmark::State& state) {
  Rng rng(5);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<Point2D> pts(n);
  std::vector<double> mass(n, 1.0);
  for (auto& p : pts) {
    p = {rng.NextBounded(1 << 20), rng.NextBounded(1 << 20)};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(KdHierarchy::Build(pts, mass));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KdBuild)->Arg(64)->Arg(1000)->Arg(10000);

void BM_KdBuildArena(benchmark::State& state) {
  // Same build as BM_KdBuild but reusing one caller-owned scratch workspace
  // across builds, the way the summarizer hot paths drive it.
  Rng rng(5);
  const std::size_t n = 10000;
  std::vector<Point2D> pts(n);
  std::vector<double> mass(n, 1.0);
  for (auto& p : pts) {
    p = {rng.NextBounded(1 << 20), rng.NextBounded(1 << 20)};
  }
  KdBuildScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(KdHierarchy::Build(pts, mass, &scratch));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KdBuildArena);

// The open keys one shard's Finalize of sharded:3:product over the Network
// dataset at s = 1000 builds its kd tree over: ~65k keys with IPPS masses
// and heavy per-axis coordinate ties.
struct NetworkShardOpenKeys {
  std::vector<Coord> coords;  // flat, dims = 2
  std::vector<double> mass;
};

const NetworkShardOpenKeys& NetworkShard0() {
  static const NetworkShardOpenKeys keys = [] {
    const Dataset2D data = GenerateNetwork(NetworkConfig{});
    std::vector<Weight> weights;
    std::vector<Point2D> pts;
    for (const auto& it : data.items) {
      if (ShardIndex(it.id, /*seed=*/1, /*num_shards=*/3) != 0) continue;
      weights.push_back(it.weight);
      pts.push_back(it.pt);
    }
    std::vector<double> probs;
    IppsProbabilities(weights, SolveTau(weights, 1000.0), &probs);
    NetworkShardOpenKeys k;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const double q = SnapProbability(probs[i]);
      if (q == 1.0 || IsSet(q)) continue;
      k.coords.push_back(pts[i].x);
      k.coords.push_back(pts[i].y);
      k.mass.push_back(q);
    }
    return k;
  }();
  return keys;
}

// Rebuilds the shard's tree into a warm scratch and tree with the given
// leaf-mass cap, exporting the tree's node count.
void RunKdBuildNetworkShard(benchmark::State& state, double leaf_mass) {
  const NetworkShardOpenKeys& keys = NetworkShard0();
  KdBuildScratch scratch;
  KdHierarchy tree;
  for (auto _ : state) {
    KdHierarchy::BuildInto(keys.coords, 2, keys.mass, &scratch, &tree,
                           leaf_mass);
    benchmark::DoNotOptimize(tree.nodes().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(keys.mass.size()));
  state.counters["open_keys"] = static_cast<double>(keys.mass.size());
  state.counters["nodes"] = static_cast<double>(tree.num_nodes());
  state.counters["simd"] =
      static_cast<double>(static_cast<int>(simd::ActiveLevel()));
}

// Full depth: the tree the two-pass partition and query generation build.
void BM_KdBuildNetworkShard(benchmark::State& state) {
  RunKdBuildNetworkShard(state, /*leaf_mass=*/0.0);
}
BENCHMARK(BM_KdBuildNetworkShard)->Unit(benchmark::kMillisecond);

// Cut at cells of mass <= 1: the tree a product Finalize builds.
void BM_KdBuildNetworkShardCapped(benchmark::State& state) {
  RunKdBuildNetworkShard(state, /*leaf_mass=*/1.0);
}
BENCHMARK(BM_KdBuildNetworkShardCapped)->Unit(benchmark::kMillisecond);

void BM_KdLocate(benchmark::State& state) {
  Rng rng(6);
  const std::size_t n = 10000;
  std::vector<Point2D> pts(n);
  std::vector<double> mass(n, 1.0);
  for (auto& p : pts) {
    p = {rng.NextBounded(1 << 20), rng.NextBounded(1 << 20)};
  }
  const KdHierarchy tree = KdHierarchy::Build(pts, mass);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.LocateLeaf(pts[i++ % n]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KdLocate);

void BM_SampleBoxScan(benchmark::State& state) {
  Rng rng(7);
  const std::size_t s = static_cast<std::size_t>(state.range(0));
  std::vector<WeightedKey> entries(s);
  for (std::size_t i = 0; i < s; ++i) {
    entries[i] = {static_cast<KeyId>(i), rng.NextPareto(1.2),
                  {rng.NextBounded(1 << 20), rng.NextBounded(1 << 20)}};
  }
  const Sample sample(1.0, std::move(entries));
  const Box box{{0, 1 << 19}, {0, 1 << 19}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample.EstimateBox(box));
  }
  state.SetItemsProcessed(state.iterations() * s);
}
BENCHMARK(BM_SampleBoxScan)->Arg(100)->Arg(10000);

// A Fig. 3(c)-shaped query: 8 disjoint boxes (a 4 x 2 grid of cells, each
// 1/8 of the domain wide in x) answered by one scan of the sample —
// Sample::EstimateQuery's block-wise simd::InBoxesMask pass.
void BM_SampleQueryScan(benchmark::State& state) {
  Rng rng(9);
  const std::size_t s = static_cast<std::size_t>(state.range(0));
  std::vector<WeightedKey> entries(s);
  for (std::size_t i = 0; i < s; ++i) {
    entries[i] = {static_cast<KeyId>(i), rng.NextPareto(1.2),
                  {rng.NextBounded(1 << 20), rng.NextBounded(1 << 20)}};
  }
  const Sample sample(1.0, std::move(entries));
  MultiRangeQuery q;
  constexpr Coord kCellX = Coord{1} << 17;
  constexpr Coord kCellY = Coord{1} << 16;
  for (Coord cx = 0; cx < 4; ++cx) {
    for (Coord cy = 0; cy < 2; ++cy) {
      const Coord x0 = 2 * cx * kCellX;
      const Coord y0 = 3 * cy * kCellY;
      q.boxes.push_back({{x0, x0 + kCellX}, {y0, y0 + kCellY}});
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample.EstimateQuery(q));
  }
  state.SetItemsProcessed(state.iterations() * s);
  state.counters["simd"] =
      simd::ActiveLevel() == simd::Level::kAvx2 ? 1.0 : 0.0;
}
BENCHMARK(BM_SampleQueryScan)->Arg(1024)->Arg(10000);

void BM_TwoPassBuild(benchmark::State& state) {
  Rng rng(8);
  const std::size_t n = 20000;
  std::vector<WeightedKey> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i] = {static_cast<KeyId>(i), rng.NextPareto(1.2),
                {rng.NextBounded(1 << 20), rng.NextBounded(1 << 20)}};
  }
  std::uint64_t seed = 0;  // per iteration: state.iterations() is constant
  for (auto _ : state) {
    SummarizerConfig cfg;
    cfg.s = 1000.0;
    cfg.seed = ++seed;
    auto builder = MakeSummarizer(keys::kAware, cfg);
    builder->AddBatch(items);
    benchmark::DoNotOptimize(builder->Finalize());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TwoPassBuild);

template <typename SummarizeInto>
void SummarizerRebuildLoop(benchmark::State& state, SummarizeInto fn) {
  // Steady-state rebuild through the scratch-backed Into entry points, the
  // cycle the streaming/windowed engines drive every refresh: persistent
  // SummarizeScratch + SummarizeOutput, one warm-up build to size the
  // buffers, then the timed loop must allocate nothing (allocs_per_iter is
  // the acceptance counter — 0 in steady state).
  const std::size_t n = 10000;
  Rng rng(31);
  std::vector<WeightedKey> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i] = {static_cast<KeyId>(i), rng.NextPareto(1.2),
                {rng.NextBounded(1 << 20), rng.NextBounded(1 << 20)}};
  }
  const double s = 500.0;
  Rng draws(32);
  SummarizeScratch scratch;
  SummarizeOutput out;
  fn(items, s, &draws, &scratch, &out);  // warm-up: grows scratch once
  const std::size_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    fn(items, s, &draws, &scratch, &out);
    benchmark::DoNotOptimize(out.chosen.data());
  }
  const std::size_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_iter"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_OrderRebuild(benchmark::State& state) {
  SummarizerRebuildLoop(state, OrderSummarizeInto);
}
BENCHMARK(BM_OrderRebuild);

void BM_ProductRebuild(benchmark::State& state) {
  SummarizerRebuildLoop(
      state, [](const std::vector<WeightedKey>& items, double s, Rng* rng,
                SummarizeScratch* scratch, SummarizeOutput* out) {
        ProductSummarizeInto(items, /*dims=*/2, {}, s, rng, scratch, out);
      });
}
BENCHMARK(BM_ProductRebuild);

void BM_CounterInc(benchmark::State& state) {
  // Armed-telemetry cost of one counter bump: a relaxed fetch_add on a
  // cache-line-padded atomic, the per-event price every instrumented site
  // pays when telemetry is on.
  const bool was_enabled = telemetry::Enabled();
  telemetry::SetEnabled(true);
  telemetry::Counter* c = telemetry::GetCounter("bench.counter");
  for (auto _ : state) {
    c->Inc();
  }
  benchmark::DoNotOptimize(c->value());
  telemetry::SetEnabled(was_enabled);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterInc);

void BM_TelemetrySpan(benchmark::State& state) {
  // Full armed span lifecycle: two monotonic clock reads, a histogram
  // Observe, and a trace-ring append — the per-span cost of instrumenting
  // a seal/merge/query section.
  const bool was_enabled = telemetry::Enabled();
  telemetry::SetEnabled(true);
  telemetry::Histogram* h = telemetry::GetHistogram("bench.span_ns");
  for (auto _ : state) {
    telemetry::Span span("bench.span", h);
    benchmark::DoNotOptimize(&span);
  }
  telemetry::SetEnabled(was_enabled);
  telemetry::ClearTraceEvents();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetrySpan);

void BM_TelemetrySpanDisarmed(benchmark::State& state) {
  // The same span with telemetry globally off: one relaxed load and a
  // branch, the whole per-site cost of a disarmed build (the zero-overhead
  // claim in docs/observability.md).
  const bool was_enabled = telemetry::Enabled();
  telemetry::SetEnabled(false);
  telemetry::Histogram* h = telemetry::GetHistogram("bench.span_ns");
  for (auto _ : state) {
    telemetry::Span span("bench.span", h);
    benchmark::DoNotOptimize(&span);
  }
  telemetry::SetEnabled(was_enabled);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetrySpanDisarmed);

void BM_RegistryMake(benchmark::State& state) {
  // Per-build overhead of the registry factory path (lookup + validation +
  // builder allocation) — the cost every call site pays over calling the
  // underlying function directly.
  SummarizerConfig cfg;
  cfg.s = 1000.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeSummarizer(keys::kProduct, cfg));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryMake);

}  // namespace
}  // namespace sas

SAS_BENCHMARK_MAIN()

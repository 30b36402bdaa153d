// Micro-benchmarks (google-benchmark) for the time-windowed backend
// (window/windowed.h): timestamped ingest throughput, the cost of an epoch
// advance (bucket seal + back-stack merge + expiry, amortized flips), and
// window queries with and without the cached merged sample, and the CSV
// trace parse (data/trace_reader.h) that feeds a windowed ingest. Baselines
// are checked into BENCH_window.json and gated by bench/compare_bench.py in
// CI.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <streambuf>
#include <string>
#include <vector>

#include "api/registry.h"
#include "core/random.h"
#include "data/trace_reader.h"
#include "window/windowed.h"

namespace sas {
namespace {

constexpr double kWindow = 64.0;
constexpr int kBuckets = 8;
const char kKey[] = "windowed:64:8:obliv";

std::vector<WeightedKey> ParetoItems(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<WeightedKey> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i] = {static_cast<KeyId>(i), rng.NextPareto(1.2),
                {rng.NextBounded(1 << 20), rng.NextBounded(1 << 20)}};
  }
  return items;
}

WindowedSummarizer* AsWindowed(Summarizer& builder) {
  WindowedSummarizer* win = builder.AsWindowed();
  if (win == nullptr) std::abort();
  return win;
}

/// Timestamped ingest across many epochs: the steady-state cost of
/// AddTimed (clock checks, buffer append, periodic bucket seal/rebuild).
void BM_WindowIngest(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  static const std::vector<WeightedKey> items = ParetoItems(1 << 17, 61);
  // Spread the n items over two full windows so every run seals and
  // retires buckets (16 epochs).
  const double horizon = 2.0 * kWindow;
  std::uint64_t seed = 0;  // per iteration: state.iterations() is constant
  for (auto _ : state) {
    SummarizerConfig cfg;
    cfg.s = 1000.0;
    cfg.seed = ++seed;
    auto builder = MakeSummarizer(kKey, cfg);
    WindowedSummarizer* win = AsWindowed(*builder);
    for (std::size_t i = 0; i < n; ++i) {
      win->AddTimed(horizon * static_cast<double>(i) / n, items[i]);
    }
    benchmark::DoNotOptimize(builder->Finalize());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_WindowIngest)->Arg(1 << 14)->Arg(1 << 17)
    ->Unit(benchmark::kMillisecond);

/// One epoch advance: seal the current bucket (inner rebuild over the
/// bucket's items), fold it into the back stack's running merge (one
/// two-way merge), expire the oldest bucket, recycle the builder; every
/// B-th advance also flips the back stack (B-2 two-way merges).
void BM_WindowAdvance(benchmark::State& state) {
  const std::size_t per_bucket = static_cast<std::size_t>(state.range(0));
  static const std::vector<WeightedKey> items = ParetoItems(1 << 14, 62);
  SummarizerConfig cfg;
  cfg.s = 1000.0;
  cfg.seed = 63;
  auto builder = MakeSummarizer(kKey, cfg);
  WindowedSummarizer* win = AsWindowed(*builder);
  const double span = win->bucket_span();
  double now = 0.0;
  std::size_t next = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < per_bucket; ++i) {
      win->Add(items[next++ % items.size()]);
    }
    now += span;
    win->Advance(now);  // seals the bucket just filled
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(per_bucket));
}
BENCHMARK(BM_WindowAdvance)->Arg(1 << 10)->Arg(1 << 13)
    ->Unit(benchmark::kMicrosecond);

/// Repeated-query path, cache warm: QueryAt between advances returns the
/// cached merged sample without re-merging.
void BM_WindowQueryCached(benchmark::State& state) {
  static const std::vector<WeightedKey> items = ParetoItems(1 << 15, 64);
  SummarizerConfig cfg;
  cfg.s = 1000.0;
  cfg.seed = 65;
  auto builder = MakeSummarizer(kKey, cfg);
  WindowedSummarizer* win = AsWindowed(*builder);
  const double horizon = kWindow;
  for (std::size_t i = 0; i < items.size(); ++i) {
    win->AddTimed(horizon * static_cast<double>(i) / items.size(), items[i]);
  }
  (void)win->QueryAt(horizon);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(win->QueryAt(horizon).EstimateTotal());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowQueryCached);

/// Repeated-query path, cache cold: every iteration crosses one epoch
/// boundary (fixed per-bucket fill), so each QueryAt pays one advance (see
/// BM_WindowAdvance, flips amortized) plus the window merge of the oldest
/// front aggregate with the back stack's running merge (two parts of ~s
/// entries) — the steady-state cost a per-epoch dashboard refresh pays.
void BM_WindowQueryUncached(benchmark::State& state) {
  static const std::vector<WeightedKey> items = ParetoItems(1 << 15, 66);
  constexpr std::size_t kPerBucket = 1 << 10;
  SummarizerConfig cfg;
  cfg.s = 1000.0;
  cfg.seed = 67;
  auto builder = MakeSummarizer(kKey, cfg);
  WindowedSummarizer* win = AsWindowed(*builder);
  const double span = win->bucket_span();
  double now = 0.0;
  std::size_t next = 0;
  // Pre-fill a full ring so the loop runs in steady state.
  for (int e = 0; e < kBuckets; ++e) {
    for (std::size_t i = 0; i < kPerBucket; ++i) {
      win->Add(items[next++ % items.size()]);
    }
    now += span;
    win->Advance(now);
  }
  for (auto _ : state) {
    for (std::size_t i = 0; i < kPerBucket; ++i) {
      win->Add(items[next++ % items.size()]);
    }
    now += span;
    benchmark::DoNotOptimize(win->QueryAt(now).EstimateTotal());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowQueryUncached)->Unit(benchmark::kMillisecond);

/// Read-only streambuf over a string, so the parse is timed without a copy
/// into a stringstream.
class TextBuf : public std::streambuf {
 public:
  explicit TextBuf(const std::string& text) {
    char* p = const_cast<char*>(text.data());
    setg(p, p, p + text.size());
  }
};

/// Five-column rows (timestamp,key,weight,x,y) shaped like a flow trace
/// export: a header, increasing timestamps with six decimals, Pareto
/// weights with three, 32-bit coordinates. `sep` follows each field
/// but the last.
std::string SyntheticTrace(std::size_t rows, std::uint64_t seed,
                           const char* sep) {
  Rng rng(seed);
  std::string csv = "timestamp,key,weight,x,y\n";
  char line[128];
  double ts = 0.0;
  for (std::size_t i = 0; i < rows; ++i) {
    ts += rng.NextExp() / 64.0;
    const int n = std::snprintf(
        line, sizeof(line), "%.6f%s%llu%s%.3f%s%llu%s%llu\n", ts, sep,
        static_cast<unsigned long long>(rng.NextBounded(1 << 20)), sep,
        rng.NextPareto(1.2), sep,
        static_cast<unsigned long long>(rng.NextBounded(1ULL << 32)), sep,
        static_cast<unsigned long long>(rng.NextBounded(1ULL << 32)));
    csv.append(line, static_cast<std::size_t>(n));
  }
  return csv;
}

constexpr std::size_t kTraceRows = 100000;

/// CSV bytes to TimedItem batches through TraceReader, reported as rows/s.
void ParseTrace(benchmark::State& state, const std::string& csv) {
  std::vector<TimedItem> batch;
  for (auto _ : state) {
    TextBuf text(csv);
    std::istream in(&text);
    TraceReader reader(in);
    while (reader.NextBatch(&batch)) benchmark::DoNotOptimize(batch.data());
    if (reader.records_read() != kTraceRows) std::abort();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kTraceRows));
}

/// The parse layer of a streamed windowed ingest: ~100k plain rows, which
/// take the reader's one-pass scan.
void BM_TraceParse(benchmark::State& state) {
  static const std::string csv = SyntheticTrace(kTraceRows, 68, ",");
  ParseTrace(state, csv);
}
BENCHMARK(BM_TraceParse)->Unit(benchmark::kMillisecond);

/// The same rows with a space after each delimiter: every row takes the
/// reader's general split-trim-convert path.
void BM_TraceParseFallback(benchmark::State& state) {
  static const std::string csv = SyntheticTrace(kTraceRows, 68, ", ");
  ParseTrace(state, csv);
}
BENCHMARK(BM_TraceParseFallback)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sas

BENCHMARK_MAIN();

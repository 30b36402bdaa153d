// Batch workloads: "sharded:3:product" and "sharded:3:obliv" offline builds
// of the Network dataset (one producer thread feeding three shard workers),
// publication of the finished sample to a QueryService, then the
// single-threaded query battery on the finalized RangeSummary.
//
// Untraced, after kWarmupSeconds of untimed builds, the run repeats build
// + publish + battery until opt.seconds of measuring have passed, cycling
// through kBuildSeeds build seeds; the set-up is repeated at even steps of
// that time (SetupTimer), outside it. Traced, it measures build + publish disarmed
// (after the same warm-up), then armed (benchmark spans around AddBatch and
// Finalize plus the library's shard.merge and serve.publish spans and
// back-pressure histogram), then replays the build on one thread through
// public calls (ShardIndex partition, MakeSummarizer per shard at
// ForkSeed(seed, i), MergeAllSamples at ForkSeed(seed, 3)) and checks that
// the replay is bit-identical to the sharded build.

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>

#include "api/registry.h"
#include "api/sharded.h"
#include "api/summary.h"
#include "core/merge.h"
#include "core/random.h"
#include "eval/metrics.h"
#include "inputs.h"
#include "serve/query_service.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kShards = 3;
/// Items per AddBatch call: the hand-off size of TraceReader and of the
/// sharded wrapper's shard queues.
constexpr std::size_t kFeedBatch = 4096;
/// ForkSeed stream of build seed i.
constexpr std::uint64_t kBuildSeedStream = 100;
/// Minimum cycles of each traced phase.
constexpr int kMinTracedCycles = 3;
/// Battery queries per build after the first kBuildSeeds builds.
constexpr std::size_t kQuerySlice = 25;
/// Passes of the battery over the replayed sample (core.query_ns).
constexpr std::size_t kQueryReps = 20;
/// Untimed builds before measuring (untraced runs and the disarmed phase
/// of traced runs).
constexpr double kWarmupSeconds = 1.0;

using sas::Sample;
using sas::WeightedKey;

sas::SummarizerConfig BuildConfig(std::uint64_t seed, int cycle) {
  sas::SummarizerConfig cfg;
  cfg.s = kSampleSize;
  cfg.seed = sas::ForkSeed(seed, kBuildSeedStream + cycle % kBuildSeeds);
  return cfg;
}

void Feed(sas::Summarizer* builder, std::span<const WeightedKey> items) {
  for (std::size_t i = 0; i < items.size(); i += kFeedBatch) {
    builder->AddBatch(items.subspan(i, std::min(kFeedBatch, items.size() - i)));
  }
}

Sample TakeSample(std::unique_ptr<sas::RangeSummary> summary) {
  auto* sample = dynamic_cast<sas::SampleSummary*>(summary.get());
  if (sample == nullptr) {
    throw std::logic_error("summary \"" + summary->Name() +
                           "\" is not sample-backed");
  }
  return sample->TakeSample();
}

bool SameSample(const Sample& a, const Sample& b) {
  if (!BitEqual(a.tau(), b.tau()) || a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const WeightedKey& x = a.entries()[i];
    const WeightedKey& y = b.entries()[i];
    if (x.id != y.id || !BitEqual(x.weight, y.weight) || !(x.pt == y.pt)) {
      return false;
    }
  }
  return true;
}

/// Output checks of one finalized build: the merged sample has exactly s
/// entries and preserves the data total.
void CheckBuild(const sas::RangeSummary& summary, double data_total,
                Ledger* ledger) {
  const sas::SampleSummary* s = summary.AsSample();
  if (!ledger->Op(s != nullptr, "batch: summary is not sample-backed")) return;
  ledger->Op(s->sample().size() == static_cast<std::size_t>(kSampleSize),
             "batch: merged sample size " + std::to_string(s->sample().size()) +
                 " != s");
  ledger->Op(SameTotal(s->sample().EstimateTotal(), data_total),
             "batch: merged sample does not preserve the data total");
}

struct Build {
  std::unique_ptr<sas::RangeSummary> summary;
  std::uint64_t add_ns = 0;
  std::uint64_t finalize_ns = 0;
};

/// One timed sharded build; AddBatch and Finalize each under a benchmark
/// span (recorded only while telemetry is armed).
Build TimedBuild(const std::string& key, const sas::SummarizerConfig& cfg,
                 std::span<const WeightedKey> items,
                 std::unique_ptr<sas::Summarizer> builder = nullptr) {
  if (builder == nullptr) builder = sas::MakeSummarizer(key, cfg);
  Build b;
  {
    Phase add("bench.sharded.add", &b.add_ns);
    Feed(builder.get(), items);
  }
  {
    Phase finalize("bench.sharded.finalize", &b.finalize_ns);
    b.summary = builder->Finalize();
  }
  return b;
}

double ItemsPerSecond(std::size_t items, const Build& b) {
  return static_cast<double>(items) * 1e9 /
         static_cast<double>(b.add_ns + b.finalize_ns);
}

void RunUntraced(const Options& opt, const std::string& key,
                 Metrics* metrics, Metrics* samples, Ledger* ledger) {
  // Set-up: inputs with exact answers, then the builder of the next build.
  // Repeats replace both with identical ones (same seed, same cycle).
  std::unique_ptr<BatchInputs> in;
  std::unique_ptr<sas::Summarizer> builder;
  SetupTimer setups(opt.seconds);
  const auto set_up = [&](int cycle) {
    in.reset();
    builder.reset();
    const std::uint64_t t0 = NowNs();
    in = std::make_unique<BatchInputs>(MakeBatchInputs(opt.seed));
    builder = sas::MakeSummarizer(key, BuildConfig(opt.seed, cycle));
    setups.Add(SecondsSince(t0));
  };
  set_up(0);
  sas::QueryService service;
  sas::QueryService::Reader checker(service);
  std::vector<double> exacts;
  for (const auto& q : in->battery.queries) exacts.push_back(q.exact);
  PeakHeap heap;
  double peak_mb = 0.0;
  heap.Start();

  // Builds in the first kWarmupSeconds are checked but not timed: the
  // heap and caches fill while they run.
  std::vector<double> errors;
  std::vector<double> build_ns;
  LatencyRecorder publish_ns, query_ns;
  std::size_t next_query = 0;
  const std::uint64_t start = NowNs();
  for (int cycle = 0;; ++cycle) {
    const double measured_s =
        SecondsSince(start) - setups.Paused() - kWarmupSeconds;
    const bool timed = measured_s >= 0.0;
    const std::vector<WeightedKey>& items = in->data.items;
    const sas::QueryBattery& battery = in->battery;
    Build b;
    std::string error;
    try {
      // Each build uses a builder made before it (cycle 0's during
      // set-up), so its worker threads are up before the clock starts.
      b = TimedBuild(key, BuildConfig(opt.seed, cycle), items,
                     std::move(builder));
      builder = sas::MakeSummarizer(key, BuildConfig(opt.seed, cycle + 1));
    } catch (const std::exception& e) {
      error = e.what();
    }
    if (!ledger->Op(error.empty(), "batch: build threw: " + error)) break;
    // Per build, first AddBatch to Finalize return. Builds are the slices
    // of items_per_s: a build takes 5-70 ms, and single builds fall into a
    // fast mode and one 1.5-2.5x slower, in stretches of a second or more
    // whose share of a run follows the host's load.
    if (timed) {
      build_ns.push_back(static_cast<double>(b.add_ns + b.finalize_ns));
    }
    CheckBuild(*b.summary, battery.data_total, ledger);

    // Publication of the finished summary to the serving tier: the
    // staleness a batch result adds after Finalize.
    if (const sas::SampleSummary* s = b.summary->AsSample()) {
      const std::uint64_t t0 = NowNs();
      service.Publish(s->sample());
      if (timed) publish_ns.Add(NowNs() - t0);
      const sas::SnapshotHandle snap = checker.Acquire();
      const std::uint64_t publishes = static_cast<std::uint64_t>(cycle) + 1;
      ledger->Op(service.publishes() == publishes &&
                     SameTotal(snap->TotalWeight(), battery.data_total),
                 "batch: published snapshot does not preserve the data "
                 "total");
    }

    // The whole battery on the first kBuildSeeds summaries (range_err),
    // then a rotating slice per build, so builds dominate the run.
    const std::size_t nq = battery.queries.size();
    const bool full = cycle < kBuildSeeds;
    const std::size_t count = full ? nq : std::min(kQuerySlice, nq);
    std::vector<double> estimates;
    std::uint64_t nonfinite = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const auto& q = battery.queries[full ? i : next_query++ % nq];
      const std::uint64_t t0 = NowNs();
      const double est = b.summary->EstimateQuery(q);
      const std::uint64_t dt = NowNs() - t0;
      if (timed) query_ns.Add(dt);
      estimates.push_back(est);
      if (!std::isfinite(est)) ++nonfinite;
    }
    ledger->Ops(count, nonfinite, "batch: non-finite estimate");
    if (full) {
      errors.push_back(
          sas::ComputeErrors(estimates, exacts, battery.data_total).mean_abs);
    }
    if (setups.Due(measured_s)) {
      peak_mb = std::max(peak_mb, heap.Stop());
      set_up(cycle + 1);
      heap.Start();
    }
    if (cycle + 1 >= kBuildSeeds && measured_s >= opt.seconds &&
        setups.Done()) {
      break;
    }
  }
  peak_mb = std::max(peak_mb, heap.Stop());
  publish_ns.Finish();
  query_ns.Finish();

  (*metrics)["setup_s"] = setups.MedianSeconds();
  (*metrics)["items_per_s"] = static_cast<double>(in->data.items.size()) *
                              1e9 / FastQuartileOfTimes(build_ns);
  (*metrics)["query_us_p50"] = query_ns.P50Ns() * 1e-3;
  (*metrics)["query_us_p99"] = query_ns.P99Ns() * 1e-3;
  (*metrics)["queries_per_s"] = query_ns.RatePerS();
  (*metrics)["publish_ms_p50"] = publish_ns.P50Ns() * 1e-6;
  (*metrics)["publish_ms_p99"] = publish_ns.P99Ns() * 1e-6;
  (*metrics)["range_err"] = Mean(errors);
  (*metrics)["peak_heap_mb"] = peak_mb;
  (*samples)["builds"] = static_cast<double>(build_ns.size());
  (*samples)["queries"] = static_cast<double>(query_ns.count());
}

struct ReplayTimes {
  std::uint64_t route_ns = 0;
  std::uint64_t add_ns = 0;
  std::uint64_t finalize_ns = 0;
  std::uint64_t merge_ns = 0;
  std::uint64_t wall_ns = 0;
};

/// The sharded build of `cfg` replayed on this thread through public calls.
/// Builder construction happens before the replay clock starts, as it does
/// before the first AddBatch of the sharded build.
Sample Replay(const std::string& inner, const sas::SummarizerConfig& cfg,
              std::span<const WeightedKey> items, ReplayTimes* t) {
  std::vector<std::unique_ptr<sas::Summarizer>> builders;
  std::vector<std::vector<WeightedKey>> parts(kShards);
  for (int i = 0; i < kShards; ++i) {
    sas::SummarizerConfig shard_cfg = cfg;
    shard_cfg.seed = sas::ForkSeed(cfg.seed, static_cast<std::uint64_t>(i));
    builders.push_back(sas::MakeSummarizer(inner, shard_cfg));
    parts[static_cast<std::size_t>(i)].reserve(items.size() / kShards * 2);
  }
  Sample merged;
  Phase wall("bench.replay", &t->wall_ns);
  {
    Phase route("bench.replay.route", &t->route_ns);
    for (const WeightedKey& it : items) {
      parts[sas::ShardIndex(it.id, cfg.seed, kShards)].push_back(it);
    }
  }
  {
    Phase add("bench.replay.inner_add", &t->add_ns);
    for (int i = 0; i < kShards; ++i) {
      Feed(builders[static_cast<std::size_t>(i)].get(),
           parts[static_cast<std::size_t>(i)]);
    }
  }
  std::vector<Sample> samples;
  {
    Phase finalize("bench.replay.inner_finalize", &t->finalize_ns);
    for (auto& b : builders) samples.push_back(TakeSample(b->Finalize()));
  }
  {
    Phase merge("bench.replay.merge", &t->merge_ns);
    sas::Rng rng(sas::ForkSeed(cfg.seed, kShards));
    merged = sas::MergeAllSamples(samples, static_cast<std::size_t>(cfg.s),
                                  &rng);
  }
  return merged;
}

void RunTraced(const Options& opt, const std::string& inner,
               const std::string& key, Metrics* metrics, Metrics* samples,
               Ledger* ledger) {
  const BatchInputs in = MakeBatchInputs(opt.seed);
  const std::vector<WeightedKey>& items = in.data.items;
  const double n = static_cast<double>(items.size());
  const double phase_s = opt.seconds / 3.0;

  // Builds at build seed 0, each checked and published; run disarmed
  // (after a warm-up, the base of trace.overhead_pct), then armed.
  sas::QueryService service;
  std::uint64_t add_ns = 0, finalize_ns = 0;
  Sample reference;
  const auto run_builds = [&](std::vector<double>* ips, double seconds) {
    add_ns = finalize_ns = 0;
    for (std::uint64_t t0 = NowNs();
         ips->size() < kMinTracedCycles || SecondsSince(t0) < seconds;) {
      Build b = TimedBuild(key, BuildConfig(opt.seed, 0), items);
      ips->push_back(ItemsPerSecond(items.size(), b));
      add_ns += b.add_ns;
      finalize_ns += b.finalize_ns;
      CheckBuild(*b.summary, in.battery.data_total, ledger);
      if (const sas::SampleSummary* s = b.summary->AsSample()) {
        service.Publish(s->sample());
      }
      if (ips->size() == 1) reference = TakeSample(std::move(b.summary));
    }
  };
  std::vector<double> warmup, plain_ips;
  run_builds(&warmup, kWarmupSeconds);
  run_builds(&plain_ips, phase_s);

  // Armed: producer, back-pressure, merge, skew, publication.
  sas::telemetry::SetEnabled(true);
  sas::telemetry::ClearTraceEvents();
  const HistogramDelta backpressure("sas.shard.backpressure_wait_ns");
  const HistogramDelta merge("sas.shard.merge_ns");
  const HistogramDelta publish("sas.serve.publish_ns");
  std::vector<sas::telemetry::Counter*> shard_items;
  std::vector<std::uint64_t> shard_items0;
  for (int i = 0; i < kShards; ++i) {
    shard_items.push_back(
        sas::telemetry::GetCounter("sas.shard.items." + std::to_string(i)));
    shard_items0.push_back(shard_items.back()->value());
  }
  std::vector<double> traced_ips;
  run_builds(&traced_ips, phase_s);
  const double builds = static_cast<double>(traced_ips.size());
  double max_items = 0.0, sum_items = 0.0;
  for (int i = 0; i < kShards; ++i) {
    const double v = static_cast<double>(
        shard_items[static_cast<std::size_t>(i)]->value() -
        shard_items0[static_cast<std::size_t>(i)]);
    max_items = std::max(max_items, v);
    sum_items += v;
  }

  // Single-thread replay at build seed 0, checked bit for bit against the
  // armed sharded build.
  std::vector<double> route, inner_add, inner_finalize, replay_merge,
      coverage;
  Sample replayed;
  for (std::uint64_t t0 = NowNs();
       route.size() < kMinTracedCycles || SecondsSince(t0) < phase_s;) {
    ReplayTimes t;
    replayed = Replay(inner, BuildConfig(opt.seed, 0), items, &t);
    ledger->Op(SameSample(replayed, reference),
               "batch: single-thread replay is not bit-identical to the "
               "sharded build");
    route.push_back(static_cast<double>(t.route_ns) / n);
    inner_add.push_back(static_cast<double>(t.add_ns) / n);
    inner_finalize.push_back(static_cast<double>(t.finalize_ns) * 1e-6);
    replay_merge.push_back(static_cast<double>(t.merge_ns) * 1e-6);
    coverage.push_back(
        static_cast<double>(t.route_ns + t.add_ns + t.finalize_ns +
                            t.merge_ns) /
        static_cast<double>(t.wall_ns));
  }
  ledger->Op(Median(coverage) >= 0.9,
             "batch: replay.coverage below 0.9 (attribution incomplete)");

  // core.query_ns: the battery on the replayed sample (core sample
  // queries, no summary wrapper, no span per query).
  std::uint64_t query_ns = 0;
  double sink = 0.0;
  for (std::size_t rep = 0; rep < kQueryReps; ++rep) {
    const std::uint64_t t0 = NowNs();
    for (const auto& q : in.battery.queries) sink += replayed.EstimateQuery(q);
    query_ns += NowNs() - t0;
  }
  ledger->Op(std::isfinite(sink), "batch: non-finite replay estimate");
  sas::telemetry::SetEnabled(false);

  const double plain = Median(plain_ips);
  (*metrics)["sharded.add_ns_per_item"] =
      static_cast<double>(add_ns) / (builds * n);
  (*metrics)["sharded.backpressure_ms"] = backpressure.sum() * 1e-6 / builds;
  (*metrics)["sharded.finalize_ms"] =
      static_cast<double>(finalize_ns) * 1e-6 / builds;
  (*metrics)["core.merge_ms"] = merge.sum() * 1e-6 / builds;
  (*metrics)["shard.skew"] = max_items / (sum_items / kShards);
  (*metrics)["serve.publish_ms"] = publish.mean() * 1e-6;
  (*metrics)["sharded.route_ns_per_item"] = Median(route);
  (*metrics)["inner.add_ns_per_item"] = Median(inner_add);
  (*metrics)["inner.finalize_ms"] = Median(inner_finalize);
  (*metrics)["replay.merge_ms"] = Median(replay_merge);
  (*metrics)["replay.coverage"] = Median(coverage);
  (*metrics)["core.query_ns"] =
      static_cast<double>(query_ns) /
      static_cast<double>(kQueryReps * in.battery.queries.size());
  (*metrics)["trace.overhead_pct"] =
      (plain - Median(traced_ips)) / plain * 100.0;
  (*samples)["untraced_builds"] = static_cast<double>(plain_ips.size());
  (*samples)["traced_builds"] = builds;
  (*samples)["replays"] = static_cast<double>(route.size());
}

}  // namespace

void RunBatch(const Options& opt, const std::string& inner, Metrics* metrics,
              Metrics* samples, Ledger* ledger) {
  const std::string key = "sharded:" + std::to_string(kShards) + ":" + inner;
  if (opt.trace) {
    RunTraced(opt, inner, key, metrics, samples, ledger);
  } else {
    RunUntraced(opt, key, metrics, samples, ledger);
  }
}

}  // namespace perfbench

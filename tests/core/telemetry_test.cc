// Telemetry subsystem tests (core/telemetry.h): instrument correctness
// (counters, gauges, log2-bucketed histograms with percentile extraction),
// span timing and nesting into the trace rings, snapshot capture/diff, and
// exact multi-threaded counter sums (the suite runs under the CI
// ThreadSanitizer job via the `tsan` ctest label).
//
// The registry is process-global and shared with every other test in this
// binary, so tests use their own uniquely named instruments and assert on
// deltas, never on absolute registry state.

#include "core/telemetry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.h"
#include "aware/kd_hierarchy.h"
#include "core/fault.h"
#include "core/ipps.h"
#include "core/pair_aggregate.h"
#include "serve/query_service.h"
#include "window/windowed.h"

namespace sas {
namespace telemetry {
namespace {

/// Arms (or disarms) telemetry for one test body, restoring the previous
/// state on scope exit so test order never matters.
class ScopedEnabled {
 public:
  explicit ScopedEnabled(bool on) : was_(Enabled()) { SetEnabled(on); }
  ~ScopedEnabled() { SetEnabled(was_); }

 private:
  bool was_;
};

TEST(TelemetryCounter, IncrementsAndReportsExactly) {
  Counter* c = GetCounter("test.counter.basic");
  const std::uint64_t before = c->value();
  c->Inc();
  c->Inc(41);
  EXPECT_EQ(c->value() - before, 42u);
  // Same name resolves to the same instrument (stable pointers).
  EXPECT_EQ(GetCounter("test.counter.basic"), c);
}

TEST(TelemetryGauge, SetAddSubTrackALevel) {
  Gauge* g = GetGauge("test.gauge.basic");
  g->Set(10);
  g->Add(5);
  g->Sub(7);
  EXPECT_EQ(g->value(), 8);
  g->Sub(20);  // signed: transient negative levels are representable
  EXPECT_EQ(g->value(), -12);
}

TEST(TelemetryRegistry, NameReuseAcrossKindsThrows) {
  GetCounter("test.registry.typed-once");
  EXPECT_THROW(GetGauge("test.registry.typed-once"), std::logic_error);
  EXPECT_THROW(GetHistogram("test.registry.typed-once"), std::logic_error);
}

TEST(TelemetryHistogram, BucketBoundariesAreBitWidths) {
  // Bucket 0 holds the value 0; bucket b >= 1 holds [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(1), 1);
  EXPECT_EQ(Histogram::BucketOf(2), 2);
  EXPECT_EQ(Histogram::BucketOf(3), 2);
  EXPECT_EQ(Histogram::BucketOf(4), 3);
  EXPECT_EQ(Histogram::BucketOf(1023), 10);
  EXPECT_EQ(Histogram::BucketOf(1024), 11);
  EXPECT_EQ(Histogram::BucketOf(~std::uint64_t{0}), 64);
  EXPECT_EQ(Histogram::BucketFloor(0), 0u);
  EXPECT_EQ(Histogram::BucketFloor(1), 1u);
  EXPECT_EQ(Histogram::BucketFloor(11), 1024u);
  for (std::uint64_t v : {std::uint64_t{1}, std::uint64_t{7},
                          std::uint64_t{4096}, std::uint64_t{1} << 40}) {
    const int b = Histogram::BucketOf(v);
    EXPECT_GE(v, Histogram::BucketFloor(b)) << v;
    EXPECT_LT(v, Histogram::BucketFloor(b + 1)) << v;
  }
}

TEST(TelemetryHistogram, ObserveRoutesToTheRightBucketAndTracksMax) {
  Histogram* h = GetHistogram("test.hist.buckets");
  h->Observe(0);    // bucket 0
  h->Observe(1);    // bucket 1
  h->Observe(2);    // bucket 2
  h->Observe(3);    // bucket 2
  h->Observe(600);  // bucket 10: [512, 1024)
  EXPECT_EQ(h->count(), 5u);
  EXPECT_EQ(h->sum(), 606u);
  EXPECT_EQ(h->max(), 600u);
  HistogramSnap snap;
  h->SnapshotTo(&snap);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 2u);
  EXPECT_EQ(snap.buckets[10], 1u);
}

TEST(TelemetryHistogram, QuantilesBracketTheDistribution) {
  Histogram* h = GetHistogram("test.hist.quantiles");
  // 90 small observations and 10 large ones: p50 sits in the small mass,
  // p99 in the large, and q = 1 is the exact max (not a bucket bound).
  for (int i = 0; i < 90; ++i) h->Observe(1);
  for (int i = 0; i < 10; ++i) h->Observe(1000);
  HistogramSnap snap;
  h->SnapshotTo(&snap);
  EXPECT_GE(snap.Quantile(0.5), 1.0);
  EXPECT_LT(snap.Quantile(0.5), 2.0);  // inside bucket 1 = [1, 2)
  EXPECT_GE(snap.Quantile(0.95), 512.0);  // inside bucket 10 = [512, 1024)
  EXPECT_LE(snap.Quantile(0.95), 1000.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 1000.0);
  // Monotone in q.
  EXPECT_LE(snap.Quantile(0.5), snap.Quantile(0.9));
  EXPECT_LE(snap.Quantile(0.9), snap.Quantile(0.99));
  // Empty histogram: all quantiles are 0.
  HistogramSnap empty;
  EXPECT_EQ(empty.Quantile(0.5), 0.0);
}

TEST(TelemetrySpan, FeedsHistogramAndNestsInTrace) {
  ScopedEnabled on(true);
  ClearTraceEvents();
  Histogram* outer_h = GetHistogram("test.span.outer_ns");
  Histogram* inner_h = GetHistogram("test.span.inner_ns");
  const std::uint64_t outer_before = outer_h->count();
  const std::uint64_t inner_before = inner_h->count();
  std::uint64_t inner_elapsed = 0;
  {
    Span outer("test.outer", outer_h);
    {
      Span inner("test.inner", inner_h);
      // Make the inner interval observable.
      while (inner.ElapsedNs() == 0) {
      }
      inner_elapsed = inner.ElapsedNs();
    }
    EXPECT_GE(outer.ElapsedNs(), inner_elapsed);
  }
  EXPECT_EQ(outer_h->count() - outer_before, 1u);
  EXPECT_EQ(inner_h->count() - inner_before, 1u);
  // Both spans land in the thread ring; the export is one JSON object in
  // Chrome trace-event shape.
  const std::string trace = ChromeTraceJson();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("test.outer"), std::string::npos);
  EXPECT_NE(trace.find("test.inner"), std::string::npos);
  ClearTraceEvents();
  EXPECT_EQ(ChromeTraceJson().find("test.outer"), std::string::npos);
}

TEST(TelemetrySpan, DisarmedSpanObservesNothing) {
  ScopedEnabled off(false);
  Histogram* h = GetHistogram("test.span.disarmed_ns");
  const std::uint64_t before = h->count();
  {
    Span span("test.disarmed", h);
    EXPECT_EQ(span.ElapsedNs(), 0u);
  }
  EXPECT_EQ(h->count(), before);
}

TEST(TelemetrySnapshot, DiffSinceSubtractsCountersAndHistograms) {
  Counter* c = GetCounter("test.snap.counter");
  Gauge* g = GetGauge("test.snap.gauge");
  Histogram* h = GetHistogram("test.snap.hist");
  c->Inc(5);
  g->Set(3);
  h->Observe(100);
  const TelemetrySnapshot before = Registry::Global().Capture();
  c->Inc(7);
  g->Set(11);
  h->Observe(200);
  h->Observe(50);
  const TelemetrySnapshot after = Registry::Global().Capture();
  const TelemetrySnapshot diff = after.DiffSince(before);

  const auto counter = [&](const TelemetrySnapshot& s, const char* name)
      -> const CounterSnap* {
    for (const auto& e : s.counters) {
      if (e.name == name) return &e;
    }
    return nullptr;
  };
  ASSERT_NE(counter(diff, "test.snap.counter"), nullptr);
  EXPECT_EQ(counter(diff, "test.snap.counter")->value, 7u);
  for (const auto& e : diff.gauges) {
    if (e.name == "test.snap.gauge") EXPECT_EQ(e.value, 11);  // level, not Δ
  }
  for (const auto& e : diff.histograms) {
    if (e.name == "test.snap.hist") {
      EXPECT_EQ(e.count, 2u);
      EXPECT_EQ(e.sum, 250u);
      EXPECT_EQ(e.max, 200u);  // later max: the instrument keeps no window
    }
  }
  // A name absent from `earlier` keeps its full value.
  GetCounter("test.snap.fresh")->Inc(9);
  const TelemetrySnapshot later = Registry::Global().Capture();
  const TelemetrySnapshot diff2 = later.DiffSince(before);
  ASSERT_NE(counter(diff2, "test.snap.fresh"), nullptr);
  EXPECT_EQ(counter(diff2, "test.snap.fresh")->value, 9u);
}

TEST(TelemetrySnapshot, FaultHitCountsAreReExported) {
  FaultInjector fi;
  fi.Configure("test.site=delay@1000000:1");  // never due; hits still count
  fi.Hit("test.site");
  fi.Hit("test.site");
  const TelemetrySnapshot snap = CaptureSnapshot(&fi);
  bool found = false;
  for (const auto& c : snap.counters) {
    if (c.name == "sas.fault.hits.test.site") {
      EXPECT_EQ(c.value, 2u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(TelemetryExport, PrometheusAndJsonCarryEveryKind) {
  GetCounter("test.export.counter")->Inc(3);
  GetGauge("test.export.gauge")->Set(-4);
  GetHistogram("test.export.hist_ns")->Observe(1000);
  const TelemetrySnapshot snap = Registry::Global().Capture();
  const std::string prom = ToPrometheus(snap);
  EXPECT_NE(prom.find("# TYPE test_export_counter counter"),
            std::string::npos);
  EXPECT_NE(prom.find("test_export_gauge -4"), std::string::npos);
  EXPECT_NE(prom.find("test_export_hist_ns{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("test_export_hist_ns_count"), std::string::npos);
  const std::string json = ToJson(snap);
  EXPECT_NE(json.find("\"test.export.counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"test.export.gauge\":-4"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(TelemetryThreading, ConcurrentCounterSumsAreExact) {
  // Relaxed atomic adds are wait-free and lose nothing: N threads times M
  // increments must sum exactly. The CI ThreadSanitizer job re-runs this
  // suite to certify the no-lock claim.
  constexpr int kThreads = 8;
  constexpr int kIncrements = 50000;
  Counter* c = GetCounter("test.mt.counter");
  Histogram* h = GetHistogram("test.mt.hist");
  const std::uint64_t c_before = c->value();
  const std::uint64_t h_before = h->count();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIncrements; ++i) {
        c->Inc();
        h->Observe(static_cast<std::uint64_t>(t + 1));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->value() - c_before,
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(h->count() - h_before,
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(TelemetryConfig, GlobalDisableIsTheDefaultOffSwitch) {
  ScopedEnabled off(false);
  Counter* accepted = GetCounter("sas.ingest.accepted");
  const std::uint64_t before = accepted->value();
  SummarizerConfig cfg;
  cfg.s = 2.0;
  cfg.seed = 1;
  auto builder = MakeSummarizer("obliv", cfg);
  builder->AddBatch(
      std::vector<WeightedKey>{{1, 2.0, {10, 20}}, {2, 3.0, {30, 40}}});
  EXPECT_EQ(accepted->value(), before);
}

TEST(TelemetryConfig, ReaderGaugeSurvivesAnArmingToggle) {
  // sas.serve.active_readers counts live readers whatever the arming: a
  // reader built disarmed and destroyed armed leaves the level unchanged.
  ScopedEnabled off(false);
  Gauge* readers = GetGauge("sas.serve.active_readers");
  const std::int64_t before = readers->value();
  QueryService svc;
  {
    QueryService::Reader reader(svc);
    SetEnabled(true);
  }
  EXPECT_EQ(readers->value(), before);
  SetEnabled(false);
  {
    QueryService::Reader reader(svc);
    EXPECT_EQ(readers->value(), before + 1);
  }
  EXPECT_EQ(readers->value(), before);
}

TEST(TelemetrySpan, ProductBuildPhasesObserveOncePerFinalize) {
  // The product build's three phase spans record exactly once per
  // Finalize, and arming them leaves the sample bit-identical.
  Histogram* phases[] = {GetHistogram("sas.aware.solve_tau_ns"),
                         GetHistogram("sas.aware.kd_build_ns"),
                         GetHistogram("sas.aware.kd_aggregate_ns")};
  std::vector<WeightedKey> items;
  for (KeyId i = 0; i < 500; ++i) {
    items.push_back({i, 1.0 + static_cast<double>(i % 17),
                     {(i * 2654435761ULL) & 0xFFFF, (i * 40503ULL) & 0xFFFF}});
  }
  SummarizerConfig cfg;
  cfg.s = 50.0;
  cfg.seed = 9;
  auto build = [&](bool armed) {
    ScopedEnabled scope(armed);
    auto builder = MakeSummarizer("product", cfg);
    builder->AddBatch(items);
    return builder->Finalize();
  };
  std::uint64_t before[3];
  for (int k = 0; k < 3; ++k) before[k] = phases[k]->count();
  const auto quiet = build(false);
  for (int k = 0; k < 3; ++k) EXPECT_EQ(phases[k]->count(), before[k]);
  const auto traced = build(true);
  for (int k = 0; k < 3; ++k) EXPECT_EQ(phases[k]->count(), before[k] + 1);

  const auto& a = quiet->AsSample()->sample().entries();
  const auto& b = traced->AsSample()->sample().entries();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].weight, b[i].weight);
  }
}

TEST(TelemetrySpan, KdPresortNestsInsideTheKdBuildPhase) {
  // sas.aware.kd_presort_ns gets one value per armed kd build (a product
  // Finalize runs one), none while disarmed, and the presort never takes
  // longer than the kd_build phase around it.
  Histogram* presort = GetHistogram("sas.aware.kd_presort_ns");
  Histogram* kd_build = GetHistogram("sas.aware.kd_build_ns");
  std::vector<WeightedKey> items;
  for (KeyId i = 0; i < 3000; ++i) {
    items.push_back({i, 1.0 + static_cast<double>(i % 29),
                     {(i * 2654435761ULL) & 0xFFFF, (i * 40503ULL) & 0xFFFF}});
  }
  SummarizerConfig cfg;
  cfg.s = 100.0;
  auto build = [&](bool armed) {
    ScopedEnabled scope(armed);
    auto builder = MakeSummarizer("product", cfg);
    builder->AddBatch(items);
    builder->Finalize();
  };
  const std::uint64_t count = presort->count();
  build(false);
  EXPECT_EQ(presort->count(), count);
  const std::uint64_t presort_sum = presort->sum();
  const std::uint64_t kd_build_sum = kd_build->sum();
  build(true);
  ASSERT_EQ(presort->count(), count + 1);
  EXPECT_LE(presort->sum() - presort_sum, kd_build->sum() - kd_build_sum);
}

TEST(TelemetrySpan, ProductBuildRecordsKdNodeCount) {
  // sas.aware.kd_nodes gets one value per armed product build: the node
  // count of its kd tree, which is cut at cells of mass <= 1.
  Histogram* kd_nodes = GetHistogram("sas.aware.kd_nodes");
  std::vector<WeightedKey> items;
  std::vector<Weight> weights;
  for (KeyId i = 0; i < 2000; ++i) {
    items.push_back({i, 1.0 + static_cast<double>(i % 23),
                     {(i * 2654435761ULL) & 0xFFFF, (i * 40503ULL) & 0xFFFF}});
    weights.push_back(items.back().weight);
  }
  SummarizerConfig cfg;
  cfg.s = 100.0;
  auto build = [&](bool armed) {
    ScopedEnabled scope(armed);
    auto builder = MakeSummarizer("product", cfg);
    builder->AddBatch(items);
    builder->Finalize();
  };
  const std::uint64_t count = kd_nodes->count();
  const std::uint64_t sum = kd_nodes->sum();
  build(false);
  EXPECT_EQ(kd_nodes->count(), count);
  build(true);
  ASSERT_EQ(kd_nodes->count(), count + 1);

  std::vector<double> probs;
  IppsProbabilities(weights, SolveTau(weights, cfg.s), &probs);
  std::vector<Coord> coords;
  std::vector<double> mass;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const double q = SnapProbability(probs[i]);
    if (IsSet(q)) continue;
    coords.push_back(items[i].pt.x);
    coords.push_back(items[i].pt.y);
    mass.push_back(q);
  }
  KdBuildScratch scratch;
  KdHierarchy capped;
  KdHierarchy::BuildInto(coords, 2, mass, &scratch, &capped, 1.0);
  EXPECT_EQ(kd_nodes->sum() - sum,
            static_cast<std::uint64_t>(capped.num_nodes()));
  EXPECT_LT(capped.num_nodes(),
            KdHierarchy::Build(coords, 2, mass).num_nodes());
}

TEST(TelemetrySpan, MergePhasesNestInWindowAndShardMerges) {
  // merge.solve_tau and merge.settle record once each per merge that has to
  // sample (parts that fit in s are kept whole, untimed), nothing while
  // disarmed, and inside the window.merge / shard.merge span around them.
  Histogram* solve_tau = GetHistogram("sas.merge.solve_tau_ns");
  Histogram* settle = GetHistogram("sas.merge.settle_ns");
  Histogram* window_merge = GetHistogram("sas.window.merge_ns");
  Histogram* shard_merge = GetHistogram("sas.shard.merge_ns");
  std::vector<WeightedKey> items;
  for (KeyId i = 0; i < 2000; ++i) {
    items.push_back({i, 1.0 + static_cast<double>(i % 31),
                     {(i * 2654435761ULL) & 0xFFFF, (i * 40503ULL) & 0xFFFF}});
  }
  SummarizerConfig cfg;
  cfg.s = 50.0;
  cfg.seed = 3;
  auto windowed = [&](bool armed) {
    ScopedEnabled scope(armed);
    auto builder = MakeSummarizer("windowed:8:4:obliv", cfg);
    WindowedSummarizer* win = builder->AsWindowed();
    for (std::size_t i = 0; i < items.size(); ++i) {
      win->AddTimed(20.0 * static_cast<double>(i) / 2000.0, items[i]);
    }
    builder->Finalize();
  };
  auto sharded = [&](bool armed) {
    ScopedEnabled scope(armed);
    auto builder = MakeSummarizer("sharded:2:obliv", cfg);
    builder->AddBatch(items);
    builder->Finalize();
  };
  auto check = [&](const auto& run, Histogram* outer) {
    const std::uint64_t quiet_solve = solve_tau->count();
    const std::uint64_t quiet_settle = settle->count();
    run(false);
    EXPECT_EQ(solve_tau->count(), quiet_solve);
    EXPECT_EQ(settle->count(), quiet_settle);
    const std::uint64_t solve0 = solve_tau->count(), settle0 = settle->count();
    const std::uint64_t outer0 = outer->count();
    const std::uint64_t ns0 = solve_tau->sum() + settle->sum();
    const std::uint64_t outer_ns0 = outer->sum();
    run(true);
    const std::uint64_t settles = settle->count() - settle0;
    EXPECT_GT(settles, 0u);
    EXPECT_LE(settles, outer->count() - outer0);
    EXPECT_EQ(solve_tau->count() - solve0, settles);
    EXPECT_LE(solve_tau->sum() + settle->sum() - ns0,
              outer->sum() - outer_ns0);
  };
  check(windowed, window_merge);
  check(sharded, shard_merge);
}

}  // namespace
}  // namespace telemetry
}  // namespace sas

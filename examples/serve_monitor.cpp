// Live serving demo: one ingest thread streams timestamped flow records
// into a serve-wrapped windowed builder ("serve:windowed:...") while
// concurrent reader threads answer box and subset queries against the
// lock-free published snapshots — the structure the serving tier exists
// for (src/serve/, docs/serving.md).
//
// The ingest thread replays a synthetic flow trace (data/network_gen)
// spread over `hours` hours of simulated time; every 10-minute bucket
// crossing republishes the merged one-hour window through the
// QueryService. Four reader threads acquire snapshot handles and issue
// drill-down queries continuously (each read is one epoch pin + one atomic
// load — no locks, no waiting on ingest), checking on every read that the
// snapshot they hold is internally consistent: the total precomputed at
// publish must equal the sample's own EstimateTotal bit for bit (a torn
// snapshot would pair one publish's entries with another's total), an id
// drill-down must land between 0 and that total, and a sample-proportional
// draw must pick an entry that exists. Exits non-zero if any reader ever
// observes an inconsistency.
//
//   $ ./serve_monitor [pairs=30000] [s=1500] [hours=4] [--telemetry[=prom|json]]
//
// --telemetry arms the process metrics registry and prints the serving
// counters (sas.serve.publishes / reclaimed, the epoch gauge, publish and
// query latency histograms) next to the ingest metrics.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.h"
#include "core/random.h"
#include "core/telemetry.h"
#include "data/network_gen.h"
#include "serve/query_service.h"
#include "serve/servable.h"
#include "window/windowed.h"

namespace {

using namespace sas;

constexpr double kHour = 3600.0;

struct ReaderStats {
  std::uint64_t reads = 0;
  std::uint64_t draws = 0;
  bool mismatch = false;
};

/// Sample-proportional pick: the entry where the running adjusted weight
/// first exceeds u * total (a linear inverse-CDF walk; the reader already
/// scans O(s) per read). Rounding can leave the walk short of u * total,
/// so it falls back to the last entry. `sample` must be non-empty.
const WeightedKey& DrawProportional(const Sample& sample, double total,
                                    Rng* rng) {
  const double target = rng->NextDouble() * total;
  double running = 0.0;
  for (const WeightedKey& e : sample.entries()) {
    running += sample.AdjustedWeight(e);
    if (running > target) return e;
  }
  return sample.entries().back();
}

/// Reader loop: acquire, check the snapshot, drill down, draw. Runs until
/// `stop`; one Reader (epoch slot) per thread.
void ReaderLoop(QueryService* svc, std::atomic<bool>* stop,
                std::uint64_t seed, ReaderStats* out) {
  QueryService::Reader reader(*svc);
  Rng rng(seed);
  // sas-lint: allow(unforked-rng) — demo-local query generator.
  while (!stop->load(std::memory_order_acquire)) {
    SnapshotHandle snap = reader.TryAcquire();
    if (!snap) continue;  // nothing published yet
    ++out->reads;
    const Sample& sample = snap->sample();

    // Torn-snapshot check: the total precomputed at publish must be the
    // sum over exactly these entries.
    const Weight total = snap->TotalWeight();
    if (sample.EstimateTotal() != total) out->mismatch = true;

    // A random id drill-down: a subset of the same non-negative terms,
    // summed in the same order, cannot leave [0, total].
    const KeyId lo = static_cast<KeyId>(rng.NextBounded(1u << 16));
    const KeyId hi = lo + 1 + static_cast<KeyId>(rng.NextBounded(1u << 14));
    const Weight drill = sample.EstimateSubset(
        [lo, hi](const WeightedKey& k) { return k.id >= lo && k.id < hi; });
    if (!(drill >= 0.0 && drill <= total)) out->mismatch = true;

    // Sample-proportional drawdown: the drawn entry must exist.
    if (snap->size() > 0) {
      const WeightedKey& drawn = DrawProportional(sample, total, &rng);
      if (!(drawn.weight >= 0.0)) out->mismatch = true;
      ++out->draws;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t pairs = 30000;
  double s = 1500.0;
  double hours = 4.0;
  bool telemetry_on = false;
  std::string telemetry_format = "table";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "pairs=", 6) == 0) {
      pairs = static_cast<std::size_t>(std::strtoull(argv[i] + 6, nullptr, 10));
    }
    if (std::strncmp(argv[i], "s=", 2) == 0) s = std::atof(argv[i] + 2);
    if (std::strncmp(argv[i], "hours=", 6) == 0) {
      hours = std::atof(argv[i] + 6);
    }
    if (std::strcmp(argv[i], "--telemetry") == 0) telemetry_on = true;
    if (std::strncmp(argv[i], "--telemetry=", 12) == 0) {
      telemetry_on = true;
      telemetry_format = argv[i] + 12;
    }
  }
  if (telemetry_on) telemetry::SetEnabled(true);

  // One-hour window at 10-minute buckets, served: every bucket crossing
  // republishes the merged window through the QueryService.
  SummarizerConfig cfg;
  cfg.s = s;
  cfg.seed = 2011;
  auto builder = MakeSummarizer("serve:windowed:3600:6:obliv", cfg);
  ServableSummarizer* servable = builder->AsServable();
  WindowedSummarizer* win = builder->AsWindowed();
  if (servable == nullptr || win == nullptr) {
    std::fprintf(stderr, "serve:windowed builder missing a capability\n");
    return 1;
  }
  auto service = servable->service();

  // Synthetic flow records (clustered address space, Pareto flow sizes),
  // replayed in arrival order over the simulated interval.
  NetworkConfig gen_cfg;
  gen_cfg.num_pairs = pairs;
  gen_cfg.num_sources = pairs / 5;
  gen_cfg.num_dests = pairs / 6;
  gen_cfg.bits = 24;
  gen_cfg.seed = 424242;
  const std::vector<WeightedKey> flows = GenerateNetwork(gen_cfg).items;
  const double horizon = hours * kHour;

  std::printf("serve_monitor: %zu flows over %.1f h into %s (s=%.0f), "
              "4 readers\n",
              flows.size(), hours, "serve:windowed:3600:6:obliv", s);

  std::atomic<bool> stop{false};
  std::vector<ReaderStats> stats(4);
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < stats.size(); ++r) {
    readers.emplace_back(ReaderLoop, service.get(), &stop, 7000 + r,
                         &stats[r]);
  }

  // Ingest thread is this one: replay the trace against simulated time.
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const double ts =
        horizon * static_cast<double>(i) / static_cast<double>(flows.size());
    win->AddTimed(ts, flows[i]);
  }
  win->Advance(horizon);  // final publish of the complete last window
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  std::uint64_t reads = 0;
  std::uint64_t draws = 0;
  bool mismatch = false;
  for (const ReaderStats& st : stats) {
    reads += st.reads;
    draws += st.draws;
    mismatch = mismatch || st.mismatch;
  }

  std::printf("publishes=%llu reclaimed=%llu pending=%zu epoch=%llu\n",
              static_cast<unsigned long long>(service->publishes()),
              static_cast<unsigned long long>(service->reclaimed()),
              service->retired_pending(),
              static_cast<unsigned long long>(service->epoch()));
  std::printf("reads=%llu draws=%llu mismatches=%s\n",
              static_cast<unsigned long long>(reads),
              static_cast<unsigned long long>(draws),
              mismatch ? "YES" : "none");

  if (telemetry_on) {
    const telemetry::TelemetrySnapshot snap = builder->DescribeTelemetry();
    if (telemetry_format == "prom") {
      std::printf("\n%s", telemetry::ToPrometheus(snap).c_str());
    } else if (telemetry_format == "json") {
      std::printf("\n%s\n", telemetry::ToJson(snap).c_str());
    } else {
      std::printf("\ntelemetry snapshot:\n");
      for (const auto& c : snap.counters) {
        if (c.value > 0) {
          std::printf("  %-34s %12llu\n", c.name.c_str(),
                      static_cast<unsigned long long>(c.value));
        }
      }
      for (const auto& g : snap.gauges) {
        if (g.value != 0) {
          std::printf("  %-34s %12lld\n", g.name.c_str(),
                      static_cast<long long>(g.value));
        }
      }
    }
  }

  if (mismatch) {
    std::fprintf(stderr, "FAIL: a reader observed an inconsistent snapshot\n");
    return 1;
  }
  if (service->publishes() == 0) {
    std::fprintf(stderr, "FAIL: nothing was published\n");
    return 1;
  }
  std::printf("OK\n");
  return 0;
}

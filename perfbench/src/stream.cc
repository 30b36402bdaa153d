// Streaming workload: an in-memory CSV trace goes through TraceReader into
// "serve:windowed:3600:60:product", replayed closed-loop as fast as ingest
// allows, while two closed-loop reader threads answer the checkpoint
// queries on whatever snapshot is current (acquire + EstimateQuery +
// release). Every epoch-crossing AddTimed call seals a bucket, merges the
// 59 sealed buckets and publishes a snapshot; its duration is the
// staleness a result adds after its last event.
//
// Checks, per publish: the publish count advanced by exactly one and the
// snapshot preserves the live window's exact total. Per pass: every row
// parsed, publishes == the crossings the trace implies, late and dropped
// counts equal to the reference model's. Readers re-check every 64th
// estimate bit for bit against the snapshot sample's linear scan.
//
// Untraced, after one untimed warm-up pass, passes over the trace repeat
// until opt.seconds of measuring have passed; the set-up is repeated at
// even steps of that time (SetupTimer), outside it.
// Traced, a warm-up pass is followed by untraced passes for half of
// opt.seconds (the base of trace.overhead_pct), then armed passes for the
// other half, whose spans wrap TraceReader::NextBatch and every crossing
// call (the library adds window.seal and serve.publish inside it), with the
// non-crossing AddTimed runs between crossings timed as one segment each.

#include <algorithm>
#include <atomic>
#include <istream>
#include <memory>
#include <streambuf>
#include <thread>

#include "api/registry.h"
#include "core/random.h"
#include "data/trace_reader.h"
#include "eval/metrics.h"
#include "inputs.h"
#include "serve/query_service.h"
#include "serve/servable.h"
#include "window/windowed.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr char kKey[] = "serve:windowed:3600:60:product";
constexpr int kReaders = 2;
/// Every kCheckEvery-th read is re-checked against the linear scan.
constexpr std::uint64_t kCheckEvery = 64;
/// ForkSeed stream of build seed i.
constexpr std::uint64_t kBuildSeedStream = 200;

/// Read-only streambuf over the CSV text: TraceReader parses the bytes in
/// place, with no copy into a stringstream.
class TextBuf : public std::streambuf {
 public:
  explicit TextBuf(const std::string& text) {
    char* p = const_cast<char*>(text.data());
    setg(p, p, p + text.size());
  }
};

struct ReaderTally {
  LatencyRecorder latency;
  std::uint64_t reads = 0;
  std::uint64_t empty = 0;  // empty acquires after the first publish
  std::uint64_t checked = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t acquire_ns = 0;  // split timings, traced pass only
  std::uint64_t estimate_ns = 0;
  std::string error;  // what ended the reader early, if anything did
};

void ReadUntilStopped(sas::QueryService* svc,
                      const std::vector<sas::MultiRangeQuery>* queries,
                      std::size_t next, bool split,
                      const std::atomic<bool>* stop, ReaderTally* out) {
  sas::QueryService::Reader reader(*svc);
  while (!stop->load(std::memory_order_acquire)) {
    // A service never unpublishes, so once has_snapshot() is true every
    // acquire must return a snapshot.
    const bool published = svc->has_snapshot();
    const std::uint64_t t0 = NowNs();
    sas::SnapshotHandle snap = reader.TryAcquire();
    if (!snap) {
      if (published) ++out->empty;
      continue;
    }
    const std::uint64_t t1 = split ? NowNs() : 0;
    const sas::MultiRangeQuery& q = (*queries)[next++ % queries->size()];
    const double est = snap->EstimateQuery(q, &reader.scratch());
    const std::uint64_t t2 = NowNs();
    std::uint64_t excluded = 0;
    if (next % kCheckEvery == 0) {
      ++out->checked;
      if (!BitEqual(est, snap->sample().EstimateQuery(q))) ++out->mismatched;
      excluded = NowNs() - t2;
    }
    snap.Release();
    out->latency.Add(NowNs() - t0 - excluded);
    ++out->reads;
    if (split) {
      out->acquire_ns += t1 - t0;
      out->estimate_ns += t2 - t1;
    }
  }
}

/// Reader thread entry: a throw ends the thread's reads and is reported
/// as a failed operation.
void ReaderLoop(sas::QueryService* svc,
                const std::vector<sas::MultiRangeQuery>* queries,
                std::size_t next, bool split, const std::atomic<bool>* stop,
                ReaderTally* out) {
  try {
    ReadUntilStopped(svc, queries, next, split, stop, out);
  } catch (const std::exception& e) {
    out->error = e.what();
  }
  out->latency.Finish();
}

struct PassResult {
  std::uint64_t ingest_ns = 0;  // CSV bytes to last AddTimed, checks excluded
  std::uint64_t wall_ns = 0;    // the same, checks included
  std::vector<std::uint64_t> publish_ns;  // per crossing call
  std::vector<double> errors;  // mean |est - exact| / total per checkpoint
  ReaderTally readers;         // all readers, merged
  // Traced pass only.
  std::uint64_t parse_ns = 0;
  std::uint64_t append_ns = 0;
  std::uint64_t crossing_ns = 0;
  std::size_t retired_pending_max = 0;
  std::size_t late = 0;
  std::size_t dropped = 0;
};

/// One serve builder, at build seed `build` (cycling through kBuildSeeds),
/// with its reader threads: constructed during set-up, then replays the
/// trace once.
class Pipeline {
 public:
  Pipeline(const StreamInputs& in, std::uint64_t seed, int build,
           bool split_reads)
      : in_(in) {
    sas::SummarizerConfig cfg;
    cfg.s = kSampleSize;
    cfg.seed = sas::ForkSeed(seed, kBuildSeedStream + build % kBuildSeeds);
    builder_ = sas::MakeSummarizer(kKey, cfg);
    win_ = builder_->AsWindowed();
    service_ = builder_->AsServable()->service();
    tallies_.resize(kReaders);
    try {
      for (int r = 0; r < kReaders; ++r) {
        threads_.emplace_back(ReaderLoop, service_.get(), &in_.reader_queries,
                              in_.reader_queries.size() * r / kReaders,
                              split_reads, &stop_, &tallies_[r]);
      }
    } catch (...) {
      StopReaders();  // join the readers already running, then rethrow
      throw;
    }
  }
  ~Pipeline() { StopReaders(); }
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  PassResult Run(bool traced, Ledger* ledger);

 private:
  void StopReaders() {
    stop_.store(true, std::memory_order_release);
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }
  /// The checks after crossing call number `p` (excluded from the ingest
  /// time): publish count, exact window total, accuracy checkpoint.
  void CheckPublish(std::size_t p, sas::QueryService::Reader* self,
                    PassResult* out, Ledger* ledger);

  const StreamInputs& in_;
  std::unique_ptr<sas::Summarizer> builder_;
  sas::WindowedSummarizer* win_ = nullptr;
  std::shared_ptr<sas::QueryService> service_;
  std::atomic<bool> stop_{false};
  std::vector<ReaderTally> tallies_;
  std::vector<std::thread> threads_;
  std::size_t next_checkpoint_ = 0;
};

void Pipeline::CheckPublish(std::size_t p, sas::QueryService::Reader* self,
                            PassResult* out, Ledger* ledger) {
  ledger->Op(service_->publishes() == p + 1,
             "stream: crossing call #" + std::to_string(p) +
                 " did not publish exactly once");
  sas::SnapshotHandle snap = self->TryAcquire();
  ledger->Op(snap && p < in_.window_total.size() &&
                 SameTotal(snap->TotalWeight(), in_.window_total[p]),
             "stream: publish #" + std::to_string(p) +
                 " does not preserve the live window's total");
  if (snap && next_checkpoint_ < in_.checkpoints.size() &&
      in_.checkpoints[next_checkpoint_].publish == p) {
    const sas::QueryBattery& battery = in_.checkpoints[next_checkpoint_].battery;
    std::vector<double> estimates, exacts;
    for (const auto& q : battery.queries) {
      estimates.push_back(snap->EstimateQuery(q, &self->scratch()));
      exacts.push_back(q.exact);
    }
    out->errors.push_back(
        sas::ComputeErrors(estimates, exacts, battery.data_total).mean_abs);
    ++next_checkpoint_;
  }
  out->retired_pending_max =
      std::max(out->retired_pending_max, service_->retired_pending());
}

PassResult Pipeline::Run(bool traced, Ledger* ledger) {
  PassResult out;
  TextBuf text(in_.csv);
  std::istream stream(&text);
  sas::TraceReader reader(stream);
  sas::QueryService::Reader self(*service_);
  std::vector<sas::TimedItem> batch;
  std::size_t row = 0;
  std::size_t publish = 0;
  std::uint64_t excluded = 0;
  const std::uint64_t start = NowNs();
  try {
    for (;;) {
      bool more = false;
      if (traced) {
        Phase parse("bench.trace.parse", &out.parse_ns);
        more = reader.NextBatch(&batch);
      } else {
        more = reader.NextBatch(&batch);
      }
      if (!more) break;
      std::uint64_t segment = traced ? NowNs() : 0;
      for (const sas::TimedItem& r : batch) {
        if (row < in_.rows && in_.crosses[row] != 0) {
          const std::uint64_t t0 = NowNs();
          if (traced) out.append_ns += t0 - segment;
          {
            sas::telemetry::Span span("bench.window.crossing");
            win_->AddTimed(r.ts, r.item);
          }
          const std::uint64_t t1 = NowNs();
          out.publish_ns.push_back(t1 - t0);
          out.crossing_ns += t1 - t0;
          CheckPublish(publish++, &self, &out, ledger);
          segment = NowNs();
          excluded += segment - t1;
        } else {
          win_->AddTimed(r.ts, r.item);
        }
        ++row;
      }
      if (traced) out.append_ns += NowNs() - segment;
    }
  } catch (const std::exception& e) {
    ledger->Op(false, std::string("stream: ingest threw: ") + e.what());
  }
  out.wall_ns = NowNs() - start;
  out.ingest_ns = out.wall_ns - excluded;
  StopReaders();

  ledger->Op(row == in_.rows && reader.stats().parsed == in_.rows,
             "stream: parsed " + std::to_string(reader.stats().parsed) +
                 " rows, the trace has " + std::to_string(in_.rows));
  ledger->Op(service_->publishes() == in_.window_total.size(),
             "stream: " + std::to_string(service_->publishes()) +
                 " publishes, the trace implies " +
                 std::to_string(in_.window_total.size()) + " epoch crossings");
  out.late = win_->late_items();
  out.dropped = win_->dropped_items();
  ledger->Op(out.late == in_.late && out.dropped == in_.dropped,
             "stream: late/dropped rows differ from the reference model");
  for (ReaderTally& t : tallies_) {
    ledger->Op(t.error.empty(), "stream: reader threw: " + t.error);
    out.readers.latency.Absorb(t.latency);
    out.readers.reads += t.reads;
    out.readers.empty += t.empty;
    out.readers.checked += t.checked;
    out.readers.mismatched += t.mismatched;
    out.readers.acquire_ns += t.acquire_ns;
    out.readers.estimate_ns += t.estimate_ns;
  }
  ledger->Ops(out.readers.reads + out.readers.empty, out.readers.empty,
              "stream: empty acquires after the first publish");
  ledger->Ops(out.readers.checked, out.readers.mismatched,
              "stream: reader estimate not bit-identical to the linear scan");
  return out;
}

double ItemsPerSecond(const StreamInputs& in, const PassResult& r) {
  return static_cast<double>(in.rows) * 1e9 / static_cast<double>(r.ingest_ns);
}

void RunUntraced(const Options& opt, Metrics* metrics, Metrics* samples,
                 Ledger* ledger) {
  // Set-up: trace, reference model and exact answers, then the builder
  // and its reader threads. Repeats replace the inputs with identical ones
  // and discard their builder (every timed pass makes its own).
  std::unique_ptr<StreamInputs> in;
  std::unique_ptr<Pipeline> pipeline;
  SetupTimer setups(opt.seconds);
  const auto set_up = [&] {
    pipeline.reset();
    in.reset();
    const std::uint64_t t0 = NowNs();
    in = std::make_unique<StreamInputs>(MakeStreamInputs(opt.seed));
    pipeline = std::make_unique<Pipeline>(*in, opt.seed, 0, false);
    setups.Add(SecondsSince(t0));
  };
  set_up();
  // The first pass is checked but not timed: the heap and caches fill
  // while it runs. range_err averages the checkpoints of every pass, each
  // pass at the next build seed.
  std::vector<double> errors = pipeline->Run(false, ledger).errors;
  pipeline.reset();

  // Memory per pass: the builder with its window and snapshots, and the
  // readers' state; the median over passes.
  std::vector<double> items_per_s, queries_per_s, publish_p50, peak_mb;
  PeakHeap heap;
  LatencyRecorder publish_ns, query_ns;
  const std::uint64_t start = NowNs();
  for (int pass = 1;; ++pass) {
    heap.Start();
    pipeline = std::make_unique<Pipeline>(*in, opt.seed, pass, false);
    const PassResult r = pipeline->Run(false, ledger);
    pipeline.reset();
    peak_mb.push_back(heap.Stop());
    items_per_s.push_back(ItemsPerSecond(*in, r));
    queries_per_s.push_back(static_cast<double>(r.readers.reads) * 1e9 /
                            static_cast<double>(r.wall_ns));
    // Publish p50 per pass: a pass holds the whole daily rate cycle, so
    // every pass sees the same mix of small and large buckets.
    publish_p50.push_back(
        Median(std::vector<double>(r.publish_ns.begin(), r.publish_ns.end())));
    for (std::uint64_t ns : r.publish_ns) publish_ns.Add(ns);
    query_ns.Absorb(r.readers.latency);
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    const double measured_s = SecondsSince(start) - setups.Paused();
    if (setups.Due(measured_s)) {
      set_up();
      pipeline.reset();
    }
    if (measured_s >= opt.seconds && setups.Done()) break;
  }
  publish_ns.Finish();

  (*metrics)["setup_s"] = setups.MedianSeconds();
  (*metrics)["items_per_s"] = FastQuartileOfRates(items_per_s);
  (*metrics)["query_us_p50"] = query_ns.P50Ns() * 1e-3;
  (*metrics)["query_us_p99"] = query_ns.P99Ns() * 1e-3;
  (*metrics)["queries_per_s"] = FastQuartileOfRates(queries_per_s);
  (*metrics)["publish_ms_p50"] = FastQuartileOfTimes(publish_p50) * 1e-6;
  (*metrics)["publish_ms_p99"] = publish_ns.P99Ns() * 1e-6;
  (*metrics)["range_err"] = Mean(errors);
  (*metrics)["peak_heap_mb"] = Median(peak_mb);
  (*samples)["passes"] = static_cast<double>(items_per_s.size());
  (*samples)["publishes"] = static_cast<double>(publish_ns.count());
  (*samples)["reads"] = static_cast<double>(query_ns.count());
}

void RunTraced(const Options& opt, Metrics* metrics, Metrics* samples,
               Ledger* ledger) {
  const StreamInputs in = MakeStreamInputs(opt.seed);
  Pipeline(in, opt.seed, 0, false).Run(false, ledger);  // warm-up

  // Untraced passes for the first half of the run (the base of
  // trace.overhead_pct), armed passes for the second.
  const double phase_s = opt.seconds / 2.0;
  std::vector<double> plain_ips, traced_ips;
  for (const std::uint64_t t0 = NowNs();
       plain_ips.empty() || SecondsSince(t0) < phase_s;) {
    plain_ips.push_back(
        ItemsPerSecond(in, Pipeline(in, opt.seed, 0, false).Run(false, ledger)));
  }

  sas::telemetry::SetEnabled(true);
  sas::telemetry::ClearTraceEvents();
  const HistogramDelta seal("sas.window.seal_ns");
  const HistogramDelta publish("sas.serve.publish_ns");
  const HistogramDelta fanin("sas.window.merge_fanin");
  const HistogramDelta bucket_items("sas.window.bucket_items");
  PassResult sum;  // the armed passes, summed (maxima for the counts)
  for (const std::uint64_t t0 = NowNs();
       traced_ips.empty() || SecondsSince(t0) < phase_s;) {
    const PassResult r = Pipeline(in, opt.seed, 0, true).Run(true, ledger);
    traced_ips.push_back(ItemsPerSecond(in, r));
    sum.ingest_ns += r.ingest_ns;
    sum.parse_ns += r.parse_ns;
    sum.append_ns += r.append_ns;
    sum.crossing_ns += r.crossing_ns;
    sum.publish_ns.insert(sum.publish_ns.end(), r.publish_ns.begin(),
                          r.publish_ns.end());
    sum.readers.reads += r.readers.reads;
    sum.readers.empty += r.readers.empty;
    sum.readers.acquire_ns += r.readers.acquire_ns;
    sum.readers.estimate_ns += r.readers.estimate_ns;
    sum.retired_pending_max =
        std::max(sum.retired_pending_max, r.retired_pending_max);
    sum.late = r.late;  // the same every pass (checked in Run)
    sum.dropped = r.dropped;
  }
  sas::telemetry::SetEnabled(false);

  const double passes = static_cast<double>(traced_ips.size());
  const double rows = static_cast<double>(in.rows) * passes;
  const double crossings = static_cast<double>(sum.publish_ns.size());
  const double reads = static_cast<double>(sum.readers.reads);
  const double coverage =
      static_cast<double>(sum.parse_ns + sum.append_ns + sum.crossing_ns) /
      static_cast<double>(sum.ingest_ns);
  ledger->Op(coverage >= 0.9,
             "stream: ingest.coverage below 0.9 (attribution incomplete)");
  (*metrics)["data.parse_ns_per_row"] =
      static_cast<double>(sum.parse_ns) / rows;
  (*metrics)["window.append_ns_per_item"] =
      static_cast<double>(sum.append_ns) / (rows - crossings);
  (*metrics)["window.seal_ms"] = seal.mean() * 1e-6;
  (*metrics)["window.merge_ms"] =
      (static_cast<double>(sum.crossing_ns) - seal.sum() - publish.sum()) *
      1e-6 / crossings;
  (*metrics)["window.merge_fanin"] = fanin.mean();
  (*metrics)["window.bucket_items"] = bucket_items.mean();
  (*metrics)["serve.publish_ms"] = publish.mean() * 1e-6;
  (*metrics)["serve.retired_pending_max"] =
      static_cast<double>(sum.retired_pending_max);
  (*metrics)["serve.acquire_ns"] =
      static_cast<double>(sum.readers.acquire_ns) / reads;
  (*metrics)["serve.estimate_ns"] =
      static_cast<double>(sum.readers.estimate_ns) / reads;
  (*metrics)["serve.empty_acquires"] = static_cast<double>(sum.readers.empty);
  (*metrics)["window.late_items"] = static_cast<double>(sum.late);
  (*metrics)["window.dropped_items"] = static_cast<double>(sum.dropped);
  (*metrics)["ingest.coverage"] = coverage;
  const double plain = Median(plain_ips);
  (*metrics)["trace.overhead_pct"] =
      (plain - Median(traced_ips)) / plain * 100.0;
  (*samples)["untraced_passes"] = static_cast<double>(plain_ips.size());
  (*samples)["traced_passes"] = passes;
  (*samples)["crossings"] = crossings;
  (*samples)["reads"] = reads;
}

}  // namespace

void RunStream(const Options& opt, Metrics* metrics, Metrics* samples,
               Ledger* ledger) {
  if (opt.trace) {
    RunTraced(opt, metrics, samples, ledger);
  } else {
    RunUntraced(opt, metrics, samples, ledger);
  }
}

}  // namespace perfbench

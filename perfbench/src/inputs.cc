#include "inputs.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <numbers>

#include "core/random.h"
#include "data/network_gen.h"
#include "summaries/exact_summary.h"

namespace perfbench {

namespace {

// Battery shape: the paper's hard case, several disjoint uniform-weight
// cells per query (8 cells at depth 6, ~12% of the weight per query).
constexpr int kRanges = 8;
constexpr int kCellDepth = 6;
constexpr int kBatchQueries = 200;
constexpr int kCheckpointQueries = 40;

// Stream shape: 360 bucket spans (6 h) of trace time, short enough that a
// run replays it many times. The rate follows one daily cycle compressed
// into those 6 h, from 7 rows/s at the quietest hour to 29 at the peak:
// ~1100 rows per bucket and ~390k rows in all.
constexpr int kTraceEpochs = 360;
constexpr double kMeanRate = 18.0;
constexpr double kDiurnalAmplitude = 0.6;
constexpr double kTick = 1.0 / 64.0;    // timestamp resolution
constexpr double kWeightStep = 0.125;   // weight resolution
constexpr double kLateShare = 0.01;     // rows up to kLateMax seconds late
constexpr double kLateMax = 240.0;
constexpr double kDroppedShare = 2e-4;  // rows 1-2 h late: out of window
constexpr std::size_t kCheckpointEvery = 20;

enum Stream : std::uint64_t { kQueries = 2, kTrace = 3 };

/// The Network dataset at the paper's size (196k flows). The flows are the
/// same for every workload seed, like a captured trace: the seed varies the
/// query batteries, the build seeds, and the order and arrival times of the
/// stream's rows, so runs at different seeds differ only in what a
/// benchmark should average over.
sas::Dataset2D MakeNetwork() {
  return sas::GenerateNetwork(sas::NetworkConfig{});  // the default seed
}

double Quantize(double v, double step) { return std::floor(v / step) * step; }

template <typename T>
void AppendNumber(std::string* out, T v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

void AppendFixed(std::string* out, double v, int digits) {
  char buf[48];
  const auto res =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, digits);
  out->append(buf, res.ptr);
}

}  // namespace

BatchInputs MakeBatchInputs(std::uint64_t seed) {
  BatchInputs in;
  in.data = MakeNetwork();
  const sas::WeightPartition part(in.data.items, in.data.domain);
  sas::Rng rng(sas::ForkSeed(seed, kQueries));
  in.battery = sas::UniformWeightQueries(in.data.items, part, kBatchQueries,
                                         kRanges, kCellDepth, &rng);
  return in;
}

StreamInputs MakeStreamInputs(std::uint64_t seed) {
  sas::Dataset2D data = MakeNetwork();
  sas::Rng rng(sas::ForkSeed(seed, kTrace));

  // Row pool: the flows in a seeded order, weights on the 1/8 grid. Row j
  // replays pool[j % n]; a window holds far fewer rows than n, so keys
  // never repeat inside one window.
  std::vector<sas::WeightedKey> pool = data.items;
  for (std::size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.NextBounded(i)]);
  }
  for (sas::WeightedKey& k : pool) {
    k.weight = std::max(kWeightStep, Quantize(k.weight, kWeightStep));
  }

  // Arrival times: each bucket span receives the rows the compressed daily
  // rate gives it (starting at the quietest hour) at seeded uniform times.
  // Bucket sizes are the same for every seed, so the work per pass, and
  // the memory the largest bucket needs, do not vary with it. A small
  // share of rows carries an earlier timestamp than its arrival: a few
  // minutes (late, still in the window) or 1-2 hours (dropped).
  const double span = kWindowSeconds / kWindowBuckets;
  const double horizon = kTraceEpochs * span;
  std::vector<double> ts, arrivals;
  ts.reserve(static_cast<std::size_t>(horizon * kMeanRate * 1.1));
  for (int b = 0; b < kTraceEpochs; ++b) {
    const double mid = (b + 0.5) * span;
    const double rate =
        kMeanRate * (1.0 - kDiurnalAmplitude *
                               std::cos(2.0 * std::numbers::pi * mid / horizon));
    arrivals.clear();
    for (long i = std::lround(rate * span); i > 0; --i) {
      arrivals.push_back(b * span + rng.NextDouble() * span);
    }
    std::sort(arrivals.begin(), arrivals.end());
    for (const double t : arrivals) {
      double row_ts = Quantize(t, kTick);
      const double u = rng.NextDouble();
      if (u < kDroppedShare) {
        row_ts -= kWindowSeconds +
                  Quantize(rng.NextDouble() * kWindowSeconds, kTick);
      } else if (u < kDroppedShare + kLateShare) {
        row_ts -= Quantize(rng.NextDouble() * kLateMax, kTick);
      }
      ts.push_back(std::max(0.0, row_ts));
    }
  }

  StreamInputs in;
  in.rows = ts.size();
  in.csv.reserve(in.rows * 52);
  in.csv += "timestamp,key,weight,x,y\n";
  for (std::size_t j = 0; j < in.rows; ++j) {
    const sas::WeightedKey& k = pool[j % pool.size()];
    AppendFixed(&in.csv, ts[j], 6);  // exact: ts is a multiple of 1/64
    in.csv += ',';
    AppendNumber(&in.csv, k.id);
    in.csv += ',';
    AppendFixed(&in.csv, k.weight, 3);  // exact: a multiple of 1/8
    in.csv += ',';
    AppendNumber(&in.csv, k.pt.x);
    in.csv += ',';
    AppendNumber(&in.csv, k.pt.y);
    in.csv += '\n';
  }

  // Reference model of the window (the semantics documented in
  // window/windowed.h): the clock advances to every newer timestamp; a
  // row joins the bucket of the current epoch, or is dropped when its own
  // epoch has left the window; crossing into epoch e publishes the merge
  // of buckets e-59 .. e-1.
  const auto epoch_of = [span](double t) {
    return static_cast<std::int64_t>(std::floor(t / span));
  };
  const std::size_t epochs = static_cast<std::size_t>(kTraceEpochs) + 1;
  std::vector<double> bucket_total(epochs, 0.0);
  std::vector<std::vector<std::uint32_t>> bucket_rows(epochs);
  std::vector<std::int64_t> publish_epoch;
  in.crosses.assign(in.rows, 0);
  double now = 0.0;
  std::int64_t cur = 0;
  for (std::size_t j = 0; j < in.rows; ++j) {
    if (ts[j] > now) {
      now = ts[j];
      const std::int64_t e = epoch_of(now);
      if (e != cur) {
        in.crosses[j] = 1;
        double total = 0.0;
        for (std::int64_t b = std::max<std::int64_t>(0, e - kWindowBuckets + 1);
             b < e; ++b) {
          total += bucket_total[static_cast<std::size_t>(b)];
        }
        in.window_total.push_back(total);
        publish_epoch.push_back(e);
        cur = e;
      }
    }
    if (ts[j] < now) {
      if (epoch_of(ts[j]) <= cur - kWindowBuckets) {
        ++in.dropped;
        continue;
      }
      ++in.late;
    }
    bucket_total[static_cast<std::size_t>(cur)] += pool[j % pool.size()].weight;
    bucket_rows[static_cast<std::size_t>(cur)].push_back(
        static_cast<std::uint32_t>(j));
  }

  // Accuracy checkpoints every kCheckpointEvery publishes: batteries over
  // the live window's own rows, answered exactly by data/query_gen.
  sas::Rng qrng(sas::ForkSeed(seed, kQueries));
  for (std::size_t p = kCheckpointEvery - 1; p < publish_epoch.size();
       p += kCheckpointEvery) {
    const std::int64_t e = publish_epoch[p];
    std::vector<sas::WeightedKey> live;
    for (std::int64_t b = std::max<std::int64_t>(0, e - kWindowBuckets + 1);
         b < e; ++b) {
      for (std::uint32_t j : bucket_rows[static_cast<std::size_t>(b)]) {
        live.push_back(pool[j % pool.size()]);
      }
    }
    const sas::WeightPartition part(live, data.domain);
    Checkpoint cp;
    cp.publish = p;
    cp.battery = sas::UniformWeightQueries(live, part, kCheckpointQueries,
                                           kRanges, kCellDepth, &qrng);
    in.reader_queries.insert(in.reader_queries.end(),
                             cp.battery.queries.begin(),
                             cp.battery.queries.end());
    in.checkpoints.push_back(std::move(cp));
  }
  return in;
}

}  // namespace perfbench

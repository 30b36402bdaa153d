// Shared plumbing of the end-to-end pipeline benchmark: run options, exact
// order statistics, operation accounting, and the one-line JSON result.
//
// Every timing in the benchmark reads sas::telemetry::NowNs(), the clock the
// library's own spans use, so benchmark spans and library spans line up in
// the Chrome trace of a traced run.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/telemetry.h"

namespace perfbench {

/// Sample size s of every workload.
inline constexpr double kSampleSize = 1000.0;
/// Distinct build seeds a batch run cycles through (range_err averages over
/// the samples they produce).
inline constexpr int kBuildSeeds = 16;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Where result.json (and, traced, trace.json) are written; empty = none.
  std::string out_dir;
};

inline std::uint64_t NowNs() { return sas::telemetry::NowNs(); }

inline double SecondsSince(std::uint64_t t0) {
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

/// q-quantile (q in [0, 1]) by linear interpolation between order
/// statistics (numpy's default rule); 0 for an empty input. Takes its
/// input by value: it sorts the copy.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}
double Mean(const std::vector<double>& v);

/// The gated figure of a run made of many short slices (a build, a pass
/// over the trace, a hundred queries): the slice quartile
/// least disturbed by the host. A shared host slows this guest in bursts
/// of several seconds (to ~60% of its speed, with little CPU steal to show
/// for it), which move a run's median whenever they cover half of it; the
/// fast quartile moves only when they cover three quarters.
inline double FastQuartileOfTimes(std::vector<double> v) {
  return Quantile(std::move(v), 0.25);
}
inline double FastQuartileOfRates(std::vector<double> v) {
  return Quantile(std::move(v), 0.75);
}

/// Latency recorder that keeps exact samples in chunks: each run of
/// kSlice samples gives its own exact p50 and rate, each chunk of kChunk
/// its own exact p99 (ten samples beyond it). The gated p50 and rate are
/// the fast quartiles over slices; the p99 tail is the median over chunks.
/// Memory stays bounded on long closed-loop runs.
class LatencyRecorder {
 public:
  static constexpr std::size_t kSlice = 100;
  static constexpr std::size_t kChunk = 1000;

  void Add(std::uint64_t ns);
  /// Drops the trailing partial chunk, or closes it when it is all there
  /// is (call once, after the last Add).
  void Finish();
  /// Appends another recorder's slice and chunk figures (both finished).
  void Absorb(const LatencyRecorder& other);

  std::uint64_t count() const { return count_; }
  double P50Ns() const { return FastQuartileOfTimes(p50_); }
  double P99Ns() const { return Median(p99_); }
  /// Calls per second of one caller making them back to back.
  double RatePerS() const { return FastQuartileOfRates(rate_); }

 private:
  void CloseSlice(std::size_t n);
  std::vector<double> chunk_;
  std::vector<double> p50_;
  std::vector<double> rate_;
  std::vector<double> p99_;
  std::uint64_t count_ = 0;
};

/// Operation accounting: every build, publish, read and output check is
/// one attempted operation; the failed ones keep their first messages.
class Ledger {
 public:
  /// Counts one operation; returns `ok` so call sites can branch on it.
  bool Op(bool ok, const std::string& what);
  /// Counts `n` operations of which `failed` failed (reader tallies).
  void Ops(std::uint64_t n, std::uint64_t failed, const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// True when |got - want| <= 1e-9 * |want| (the exact-total contract).
bool SameTotal(double got, double want);

/// True when the two doubles have the same bits.
bool BitEqual(double a, double b);

/// Metric values by name; the units live in the metric tables of main.cc.
using Metrics = std::map<std::string, double>;

/// A benchmark span around one call into a layer: a telemetry::Span named
/// `name` (recorded in the Chrome trace while telemetry is armed) that also
/// adds its duration to `*total_ns`, armed or not.
class Phase {
 public:
  Phase(const char* name, std::uint64_t* total_ns)
      : span_(name), start_ns_(NowNs()), total_ns_(total_ns) {}
  ~Phase() { *total_ns_ += NowNs() - start_ns_; }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  sas::telemetry::Span span_;
  std::uint64_t start_ns_;
  std::uint64_t* total_ns_;
};

/// Sum/count of a library histogram since construction (telemetry deltas
/// of one measured phase).
class HistogramDelta {
 public:
  explicit HistogramDelta(const char* name)
      : hist_(sas::telemetry::GetHistogram(name)),
        sum0_(hist_->sum()),
        count0_(hist_->count()) {}
  double sum() const { return static_cast<double>(hist_->sum() - sum0_); }
  double count() const {
    return static_cast<double>(hist_->count() - count0_);
  }
  double mean() const { return count() > 0 ? sum() / count() : 0.0; }

 private:
  sas::telemetry::Histogram* hist_;
  std::uint64_t sum0_;
  std::uint64_t count0_;
};

/// Peak heap of a measured stretch, from the program's own operator new and
/// delete (heap.cc), which count the bytes live on the C++ heap, library
/// allocations included. Start() takes the live bytes as the baseline and
/// restarts the high-water mark there; Stop() returns the high-water mark
/// since then minus the baseline, in MiB: the most the stretch held at once
/// over what set-up left live. Unlike the resident set size it does not
/// depend on where the allocator places blocks and when it hands pages
/// back, so it repeats from run to run.
class PeakHeap {
 public:
  void Start();
  double Stop() const;

 private:
  std::int64_t baseline_ = 0;
};

/// Set-up timing of a run: the first set-up is timed at the start, the
/// other kSetups - 1 at even steps of the measured time, so a burst of
/// host contention slows one or two of them rather than all; setup_s is
/// their median. Due() says when the next repeat is due; the caller times
/// it and hands the seconds to Add(), and keeps that time out of the
/// measured time with Paused().
class SetupTimer {
 public:
  static constexpr int kSetups = 5;

  explicit SetupTimer(double run_seconds) : run_seconds_(run_seconds) {}
  void Add(double seconds);
  /// True when the next repeat is due after `measured_s` of measuring.
  bool Due(double measured_s) const;
  bool Done() const { return setup_s_.size() >= kSetups; }
  /// Seconds spent in repeats since the first set-up.
  double Paused() const { return paused_s_; }
  double MedianSeconds() const { return Median(setup_s_); }

 private:
  double run_seconds_;
  double paused_s_ = 0.0;
  std::vector<double> setup_s_;
};

/// Host-wide CPU time counters from /proc/stat (zeros when unreadable).
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;  // time the hypervisor ran something else
};
CpuTimes ReadCpuTimes();

/// Share of CPU time stolen by the hypervisor between two readings, in %:
/// a run with high steal shared its host and its timings are suspect.
double StealPercent(const CpuTimes& before, const CpuTimes& after);

/// The run's hardware/build stamp: nproc, CPU model, build type, active
/// SIMD level. Printed with every result so numbers from different hosts
/// or builds are never compared.
std::string ContextJson(const Options& opt);

/// JSON string literal of `s` (quotes and backslashes escaped).
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_

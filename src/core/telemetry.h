// Process-wide telemetry: lock-free metric instruments, log-bucketed
// latency histograms, and RAII span tracing for the live serving stack.
// Where the offline eval harness answers "how accurate is a summary", this
// subsystem answers "what is the p99 seal latency, how deep are the shard
// queues, how often does the window query cache hit" on a running process.
//
// Design, in the spirit of core/fault.h:
//
//   * A global string-keyed registry hands out stable instrument pointers.
//     Registration is cold (mutex + map); engines resolve their instruments
//     once at construction and keep raw pointers. Instruments are never
//     destroyed, so a cached pointer is valid for the process lifetime.
//   * Instruments are lock-free and cache-line padded: Counter and Gauge
//     are one relaxed atomic each; Histogram is a row of relaxed atomic
//     log2 buckets plus count/sum/max, so concurrent observers never take
//     a lock and concurrent counts sum exactly.
//   * Every hot site is guarded: `if (telemetry::Enabled())` is one relaxed
//     atomic load and a predictable branch, the entire cost of a disarmed
//     build. Arming is global (SetEnabled / the SAS_TELEMETRY environment
//     variable).
//   * Span is an RAII timer: construction stamps a start time, destruction
//     feeds the elapsed nanoseconds into a Histogram and appends a trace
//     event to a fixed-size per-thread ring. ChromeTraceJson() exports the
//     rings in Chrome trace-event JSON (chrome://tracing, Perfetto).
//   * CaptureSnapshot() returns a structured, diff-able TelemetrySnapshot;
//     ToPrometheus()/ToJson() render it. Fault-injection hit counters
//     (core/fault.h) are re-exported into the snapshot as
//     `sas.fault.hits.<site>` so chaos runs are observable like any other
//     metric.
//
// Naming grammar: `sas.<layer>.<metric>` (docs/observability.md catalogs
// every instrument). The Prometheus exporter rewrites '.'/'-' to '_'.
//
// Timing discipline: ambient clocks live HERE and nowhere else — sas-lint
// rule `timing-confined` keeps std::chrono clock calls out of the rest of
// src/, so build determinism never depends on wall time (telemetry only
// observes; it never feeds RNG or build state).
//
// Thread-safety: all instrument mutation paths are safe from any number of
// threads. A snapshot is per-instrument atomic, not cross-instrument
// consistent (counters read mid-update may be ahead of a related gauge);
// diffing two snapshots bounds any skew to the capture instants.

#ifndef SAS_CORE_TELEMETRY_H_
#define SAS_CORE_TELEMETRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace sas {

class FaultInjector;

namespace telemetry {

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// True when telemetry is armed process-wide. One relaxed atomic load —
/// the full per-site cost of a disarmed build. Armed from the
/// SAS_TELEMETRY environment variable (any non-empty value but "0") or
/// SetEnabled().
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Arms or disarms telemetry process-wide. Instruments keep their values
/// across disable/enable.
void SetEnabled(bool on);

/// Monotonically increasing event count. Inc/Add are relaxed atomic adds:
/// wait-free, exact under any interleaving.
class alignas(64) Counter {
 public:
  void Inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, live buckets). Signed so transient
/// dec-before-inc interleavings cannot wrap.
class alignas(64) Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(std::int64_t n) { value_.fetch_sub(n, std::memory_order_relaxed); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Number of log2 buckets a Histogram carries: bucket 0 holds the value 0
/// and bucket b >= 1 holds [2^(b-1), 2^b), so 65 buckets cover the whole
/// uint64 range with <= 2x relative quantile error.
inline constexpr int kHistogramBuckets = 65;

struct HistogramSnap;

/// Log-bucketed distribution of non-negative integer values (latencies in
/// nanoseconds, batch sizes, fan-ins). Observe is a handful of relaxed
/// atomic adds plus a CAS loop for the max; no locks, no allocation.
class alignas(64) Histogram {
 public:
  void Observe(std::uint64_t value);

  /// Copies count/sum/max and the raw buckets into `out` (name untouched).
  /// Per-field atomic, not a consistent cut — see the header comment.
  void SnapshotTo(HistogramSnap* out) const;

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }

  /// Index of the bucket `value` lands in (bit-width of the value).
  static int BucketOf(std::uint64_t value);
  /// Smallest value bucket `b` holds (0, then 2^(b-1)).
  static std::uint64_t BucketFloor(int b);

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
};

/// Point-in-time value of one Counter (or one re-exported external counter
/// such as a fault-site hit count).
struct CounterSnap {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnap {
  std::string name;
  std::int64_t value = 0;
};

/// Point-in-time copy of one Histogram, carrying the raw buckets so that a
/// diff of two snapshots can re-derive interval percentiles.
struct HistogramSnap {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  /// Quantile q in [0, 1] estimated by linear interpolation inside the
  /// log2 bucket holding the target rank (exact bucket, <= 2x value
  /// error); q = 1 returns the exact observed max. 0 when empty.
  double Quantile(double q) const;
};

/// Structured export of every instrument: capture with CaptureSnapshot(),
/// render with ToPrometheus()/ToJson(), and difference two captures with
/// DiffSince() to scope rates and percentiles to an interval.
struct TelemetrySnapshot {
  std::vector<CounterSnap> counters;      // sorted by name
  std::vector<GaugeSnap> gauges;          // sorted by name
  std::vector<HistogramSnap> histograms;  // sorted by name

  /// This snapshot minus `earlier`: counters and histogram buckets
  /// subtract (names missing from `earlier` keep their full value), gauges
  /// keep the current level (a gauge has no meaningful delta). Histogram
  /// max is the later max — a per-interval max would need per-interval
  /// tracking the lock-free instrument deliberately does not carry.
  TelemetrySnapshot DiffSince(const TelemetrySnapshot& earlier) const;
};

/// The string-keyed instrument registry. Get* return a stable pointer,
/// creating the instrument on first use; looking a name up as the wrong
/// kind throws std::logic_error (names are typed once, process-wide).
class Registry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Copies every registered instrument into a snapshot (sorted by name).
  /// CaptureSnapshot() below layers the fault-site re-export on top.
  TelemetrySnapshot Capture();

  /// The process-wide registry. First use arms telemetry when the
  /// SAS_TELEMETRY environment variable is set non-empty (and not "0").
  static Registry& Global();

 private:
  struct Impl;
  Impl* impl();  // lazily built; never destroyed
  // sas-lint: allow(atomic-publication): write-once lazy-init pointer that
  // is never retired or swapped, so there is nothing to reclaim — the
  // epoch protocol the rule protects does not apply.
  std::atomic<Impl*> impl_{nullptr};
};

/// Shorthands on the global registry (cold path: resolve once, cache the
/// pointer).
Counter* GetCounter(const std::string& name);
Gauge* GetGauge(const std::string& name);
Histogram* GetHistogram(const std::string& name);

/// Monotonic nanosecond clock for span timing (steady_clock under the
/// hood; the one sanctioned ambient-clock call site in the library).
std::uint64_t NowNs();

/// RAII latency timer: stamps a start time at construction when telemetry
/// is armed, and on destruction feeds the elapsed nanoseconds into `hist`
/// (when non null) and appends a trace event to the calling thread's ring.
/// `name` must point at storage that outlives the export (string
/// literals). Disarmed cost: the Enabled() load and a branch.
class Span {
 public:
  explicit Span(const char* name, Histogram* hist = nullptr)
      : name_(name), hist_(hist) {
    if (Enabled()) {
      start_ns_ = NowNs();
      live_ = true;
    }
  }
  ~Span() { if (live_) Finish(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Elapsed nanoseconds so far (0 when the span is disarmed).
  std::uint64_t ElapsedNs() const { return live_ ? NowNs() - start_ns_ : 0; }

 private:
  void Finish();
  const char* name_;
  Histogram* hist_;
  std::uint64_t start_ns_ = 0;
  bool live_ = false;
};

/// Events one thread's ring can hold before wrapping (oldest overwritten).
inline constexpr std::size_t kSpanRingCapacity = 4096;
/// Thread rings retained process-wide; threads beyond the cap still feed
/// histograms but record no trace events (the sharded wrapper spawns a
/// fresh worker set per builder, so rings are capped, not per-thread
/// forever).
inline constexpr std::size_t kMaxSpanRings = 64;

/// Captures every registered instrument, then re-exports the fault
/// injector's per-site hit counters as `sas.fault.hits.<site>` counters —
/// from `faults` when non-null, else the global injector (mirroring the
/// FaultPoint resolution rule).
TelemetrySnapshot CaptureSnapshot(const FaultInjector* faults = nullptr);

/// Prometheus text exposition: counters/gauges under their sanitized names
/// ('.'/'-' become '_'), histograms as summaries with p50/p90/p99 quantile
/// lines plus _sum/_count/_max.
std::string ToPrometheus(const TelemetrySnapshot& snap);

/// JSON object {"counters": {...}, "gauges": {...}, "histograms": {name:
/// {count, sum, max, p50, p90, p99}}} — the format tools/sas_stats.py
/// renders and diffs.
std::string ToJson(const TelemetrySnapshot& snap);

/// Chrome trace-event JSON ({"traceEvents": [...]}) of every thread ring,
/// timestamps rebased to the earliest recorded span. Load in
/// chrome://tracing or Perfetto.
std::string ChromeTraceJson();

/// Drops every recorded trace event (rings stay registered).
void ClearTraceEvents();

}  // namespace telemetry
}  // namespace sas

#endif  // SAS_CORE_TELEMETRY_H_

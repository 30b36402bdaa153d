#include "core/telemetry.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "core/fault.h"

namespace sas {
namespace telemetry {

namespace internal {
std::atomic<bool> g_enabled{false};
}  // namespace internal

void SetEnabled(bool on) {
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t NowNs() {
  // The library's one sanctioned ambient-clock read (sas-lint rule
  // timing-confined): steady so span durations never go backwards across
  // NTP slews.
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Histogram

int Histogram::BucketOf(std::uint64_t value) {
  // bit_width(0) == 0, bit_width(2^k) == k+1: bucket b >= 1 spans
  // [2^(b-1), 2^b), bucket 0 holds exactly the value 0.
  return static_cast<int>(std::bit_width(value));
}

std::uint64_t Histogram::BucketFloor(int b) {
  if (b <= 0) return 0;
  return std::uint64_t{1} << (b - 1);
}

void Histogram::Observe(std::uint64_t value) {
  buckets_[static_cast<std::size_t>(BucketOf(value))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void Histogram::SnapshotTo(HistogramSnap* out) const {
  out->count = count();
  out->sum = sum();
  out->max = max();
  for (int b = 0; b < kHistogramBuckets; ++b) {
    out->buckets[static_cast<std::size_t>(b)] =
        buckets_[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
  }
}

double HistogramSnap::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q >= 1.0) return static_cast<double>(max);
  // Rank of the target observation (1-based ceil, the "nearest-rank"
  // definition), then a cumulative walk to the bucket holding it.
  const double target = q * static_cast<double>(count);
  std::uint64_t rank = static_cast<std::uint64_t>(std::ceil(target));
  if (rank == 0) rank = 1;
  std::uint64_t cum = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    const std::uint64_t in_bucket = buckets[static_cast<std::size_t>(b)];
    if (in_bucket == 0) continue;
    if (cum + in_bucket < rank) {
      cum += in_bucket;
      continue;
    }
    // Linear interpolation across the bucket's value span by the rank's
    // position inside the bucket; the top bucket is clamped by the
    // observed max so a lone huge outlier doesn't report 2x itself.
    const double lo = static_cast<double>(Histogram::BucketFloor(b));
    double hi = b == 0 ? 0.0
                       : static_cast<double>(Histogram::BucketFloor(b + 1));
    hi = std::min(hi, static_cast<double>(max));
    if (hi < lo) hi = lo;
    const double frac = static_cast<double>(rank - cum) /
                        static_cast<double>(in_bucket);
    return lo + (hi - lo) * frac;
  }
  return static_cast<double>(max);
}

// ---------------------------------------------------------------------------
// Span rings / trace events

namespace {

struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

// One thread's fixed-size trace buffer. Spans append under the ring mutex —
// uncontended in steady state (each ring has exactly one writer thread;
// the lock exists so exports are TSan-clean and tear-free) — wrapping over
// the oldest events once full.
struct SpanRing {
  std::mutex mu;
  std::uint64_t tid = 0;
  std::array<TraceEvent, kSpanRingCapacity> events;
  std::size_t size = 0;  // events recorded, capped at capacity
  std::size_t next = 0;  // wrap cursor

  void Record(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns) {
    std::lock_guard<std::mutex> lock(mu);
    events[next] = {name, start_ns, dur_ns};
    next = (next + 1) % kSpanRingCapacity;
    size = std::min(size + 1, kSpanRingCapacity);
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu);
    size = 0;
    next = 0;
  }
};

struct RingTable {
  std::mutex mu;
  std::vector<std::shared_ptr<SpanRing>> rings;
  std::uint64_t next_tid = 1;
};

RingTable& Rings() {
  static RingTable* table = new RingTable();
  return *table;
}

// The calling thread's ring, registered on first span. Null once the
// process-wide ring cap is reached — such threads still feed histograms,
// they just record no trace events.
SpanRing* ThreadRing() {
  thread_local std::shared_ptr<SpanRing> ring = [] {
    RingTable& table = Rings();
    std::lock_guard<std::mutex> lock(table.mu);
    if (table.rings.size() >= kMaxSpanRings) {
      return std::shared_ptr<SpanRing>();
    }
    auto r = std::make_shared<SpanRing>();
    r->tid = table.next_tid++;
    table.rings.push_back(r);
    return r;
  }();
  return ring.get();
}

void AppendJsonEscaped(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out->push_back(' ');
    } else {
      out->push_back(c);
    }
  }
}

// Prometheus metric names admit [a-zA-Z0-9_:]; the registry's dotted
// `sas.<layer>.<metric>` grammar (and any '-' inside a fault-site suffix)
// maps onto it by substitution.
std::string PromName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

void Span::Finish() {
  const std::uint64_t end_ns = NowNs();
  const std::uint64_t dur = end_ns - start_ns_;
  if (hist_ != nullptr) hist_->Observe(dur);
  if (SpanRing* ring = ThreadRing()) ring->Record(name_, start_ns_, dur);
}

std::string ChromeTraceJson() {
  // Snapshot every ring under its own lock, then rebase timestamps to the
  // earliest span so the trace opens at t=0 in chrome://tracing.
  struct Flat {
    TraceEvent ev;
    std::uint64_t tid;
  };
  std::vector<Flat> all;
  {
    RingTable& table = Rings();
    std::lock_guard<std::mutex> table_lock(table.mu);
    for (const auto& ring : table.rings) {
      std::lock_guard<std::mutex> lock(ring->mu);
      // Oldest-first: when wrapped, the cursor points at the oldest entry.
      const std::size_t n = ring->size;
      const std::size_t begin =
          n == kSpanRingCapacity ? ring->next : 0;
      for (std::size_t i = 0; i < n; ++i) {
        all.push_back(
            {ring->events[(begin + i) % kSpanRingCapacity], ring->tid});
      }
    }
  }
  std::uint64_t base = ~std::uint64_t{0};
  for (const Flat& f : all) base = std::min(base, f.ev.start_ns);
  if (all.empty()) base = 0;

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Flat& f : all) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(&out, f.ev.name);
    // Chrome trace timestamps and durations are microseconds.
    out += "\",\"ph\":\"X\",\"ts\":";
    out += FormatDouble(static_cast<double>(f.ev.start_ns - base) / 1000.0);
    out += ",\"dur\":";
    out += FormatDouble(static_cast<double>(f.ev.dur_ns) / 1000.0);
    out += ",\"pid\":1,\"tid\":";
    out += std::to_string(f.tid);
    out += "}";
  }
  out += "]}";
  return out;
}

void ClearTraceEvents() {
  RingTable& table = Rings();
  std::lock_guard<std::mutex> table_lock(table.mu);
  for (const auto& ring : table.rings) ring->Clear();
}

// ---------------------------------------------------------------------------
// Registry

struct Registry::Impl {
  std::mutex mu;
  // std::map: node-based, so instrument addresses are stable across
  // inserts; values are unique_ptrs anyway for alignment-safe ownership.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry::Impl* Registry::impl() {
  Impl* existing = impl_.load(std::memory_order_acquire);
  if (existing != nullptr) return existing;
  auto* fresh = new Impl();
  if (impl_.compare_exchange_strong(existing, fresh,
                                    std::memory_order_acq_rel)) {
    return fresh;
  }
  delete fresh;
  return existing;
}

namespace {

// Insert-or-find under the caller-held registry lock; a name already
// registered in one of the `other` maps is a programming error (each name
// is typed once, process-wide).
template <typename T, typename Map, typename MapA, typename MapB>
T* GetInstrument(Map& own, const MapA& other_a, const MapB& other_b,
                 const std::string& name, const char* kind) {
  auto it = own.find(name);
  if (it != own.end()) return it->second.get();
  if (other_a.count(name) > 0 || other_b.count(name) > 0) {
    throw std::logic_error("telemetry: instrument '" + name +
                           "' already registered as a different kind than " +
                           kind);
  }
  auto inserted = own.emplace(name, std::make_unique<T>());
  return inserted.first->second.get();
}

}  // namespace

Counter* Registry::GetCounter(const std::string& name) {
  Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mu);
  return GetInstrument<Counter>(im->counters, im->gauges, im->histograms,
                                name, "counter");
}

Gauge* Registry::GetGauge(const std::string& name) {
  Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mu);
  return GetInstrument<Gauge>(im->gauges, im->counters, im->histograms, name,
                              "gauge");
}

Histogram* Registry::GetHistogram(const std::string& name) {
  Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mu);
  return GetInstrument<Histogram>(im->histograms, im->counters, im->gauges,
                                  name, "histogram");
}

Registry& Registry::Global() {
  static Registry* registry = [] {
    const char* env = std::getenv("SAS_TELEMETRY");
    if (env != nullptr && env[0] != '\0' &&
        !(env[0] == '0' && env[1] == '\0')) {
      SetEnabled(true);
    }
    return new Registry();
  }();
  return *registry;
}

Counter* GetCounter(const std::string& name) {
  return Registry::Global().GetCounter(name);
}

Gauge* GetGauge(const std::string& name) {
  return Registry::Global().GetGauge(name);
}

Histogram* GetHistogram(const std::string& name) {
  return Registry::Global().GetHistogram(name);
}

// ---------------------------------------------------------------------------
// Snapshot + exporters

TelemetrySnapshot Registry::Capture() {
  TelemetrySnapshot snap;
  Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mu);
  snap.counters.reserve(im->counters.size());
  for (const auto& [name, c] : im->counters) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(im->gauges.size());
  for (const auto& [name, g] : im->gauges) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(im->histograms.size());
  for (const auto& [name, h] : im->histograms) {
    HistogramSnap hs;
    hs.name = name;
    h->SnapshotTo(&hs);
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

TelemetrySnapshot CaptureSnapshot(const FaultInjector* faults) {
  TelemetrySnapshot snap = Registry::Global().Capture();
  // Re-export fault-site hit counters (core/fault.h keeps them per rule;
  // HitCounts aggregates per site) under the same naming grammar, resolved
  // local-else-global like FaultPoint itself.
  const FaultInjector& fi =
      faults != nullptr ? *faults : FaultInjector::Global();
  for (const auto& [site, hits] : fi.HitCounts()) {
    snap.counters.push_back({"sas.fault.hits." + site, hits});
  }
  std::sort(snap.counters.begin(), snap.counters.end(),
            [](const CounterSnap& a, const CounterSnap& b) {
              return a.name < b.name;
            });
  return snap;
}

TelemetrySnapshot TelemetrySnapshot::DiffSince(
    const TelemetrySnapshot& earlier) const {
  TelemetrySnapshot out = *this;
  for (CounterSnap& c : out.counters) {
    for (const CounterSnap& e : earlier.counters) {
      if (e.name == c.name) {
        c.value -= std::min(e.value, c.value);
        break;
      }
    }
  }
  for (HistogramSnap& h : out.histograms) {
    for (const HistogramSnap& e : earlier.histograms) {
      if (e.name != h.name) continue;
      h.count -= std::min(e.count, h.count);
      h.sum -= std::min(e.sum, h.sum);
      for (int b = 0; b < kHistogramBuckets; ++b) {
        auto& mine = h.buckets[static_cast<std::size_t>(b)];
        mine -= std::min(e.buckets[static_cast<std::size_t>(b)], mine);
      }
      break;
    }
  }
  return out;
}

std::string ToPrometheus(const TelemetrySnapshot& snap) {
  std::string out;
  for (const CounterSnap& c : snap.counters) {
    const std::string name = PromName(c.name);
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(c.value) + "\n";
  }
  for (const GaugeSnap& g : snap.gauges) {
    const std::string name = PromName(g.name);
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + std::to_string(g.value) + "\n";
  }
  for (const HistogramSnap& h : snap.histograms) {
    const std::string name = PromName(h.name);
    out += "# TYPE " + name + " summary\n";
    out += name + "{quantile=\"0.5\"} " + FormatDouble(h.Quantile(0.5)) + "\n";
    out += name + "{quantile=\"0.9\"} " + FormatDouble(h.Quantile(0.9)) + "\n";
    out +=
        name + "{quantile=\"0.99\"} " + FormatDouble(h.Quantile(0.99)) + "\n";
    out += name + "_sum " + std::to_string(h.sum) + "\n";
    out += name + "_count " + std::to_string(h.count) + "\n";
    out += "# TYPE " + name + "_max gauge\n";
    out += name + "_max " + std::to_string(h.max) + "\n";
  }
  return out;
}

std::string ToJson(const TelemetrySnapshot& snap) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const CounterSnap& c : snap.counters) {
    if (!first) out.push_back(',');
    first = false;
    out += "\"";
    AppendJsonEscaped(&out, c.name.c_str());
    out += "\":" + std::to_string(c.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const GaugeSnap& g : snap.gauges) {
    if (!first) out.push_back(',');
    first = false;
    out += "\"";
    AppendJsonEscaped(&out, g.name.c_str());
    out += "\":" + std::to_string(g.value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const HistogramSnap& h : snap.histograms) {
    if (!first) out.push_back(',');
    first = false;
    out += "\"";
    AppendJsonEscaped(&out, h.name.c_str());
    out += "\":{\"count\":" + std::to_string(h.count);
    out += ",\"sum\":" + std::to_string(h.sum);
    out += ",\"max\":" + std::to_string(h.max);
    out += ",\"p50\":" + FormatDouble(h.Quantile(0.5));
    out += ",\"p90\":" + FormatDouble(h.Quantile(0.9));
    out += ",\"p99\":" + FormatDouble(h.Quantile(0.99));
    out += "}";
  }
  out += "}}";
  return out;
}

}  // namespace telemetry
}  // namespace sas

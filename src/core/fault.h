// Deterministic fault injection for the ingest stack: failure paths are
// driven by named fault sites compiled into the engines (the sharded
// worker pool, the windowed bucket ring, the trace reader) and armed by
// counter-based schedules, so a crash/recovery scenario replays exactly as
// a happy-path build does — same (schedule, input) in, same failure out.
//
// A FaultInjector holds a set of rules parsed from a schedule spec:
//
//   site[#lane]=fail@N[/K]            throw on the Nth hit (and every Kth
//                                     hit after it when /K is given)
//   site[#lane]=delay@N[/K]:USEC      sleep USEC microseconds instead of
//                                     throwing (widens race windows under
//                                     TSan without killing the worker)
//
// Rules are ';'-separated; `lane` narrows a rule to one lane of a
// multi-lane site (the shard index of the shard.* sites). Examples:
//
//   shard.worker.finalize=fail@1/1            every shard's finalize dies
//   shard.worker.batch#0=fail@2               shard 0 dies on its 2nd batch
//   trace.row=fail@5/9                        every 9th row from the 5th on
//   shard.worker.batch=delay@1/1:500          500us stall per batch drain
//
// Deployment: the process-global injector (FaultInjector::Global()) is
// configured once from the SAS_FAULTS environment variable; tests that need
// isolation hand their own injector to SummarizerConfig::faults (the
// composed wrappers propagate it to every inner builder) or
// TraceReader::Options::faults. Hit counting is per rule and atomic, so
// schedules fire deterministically wherever a site is driven from a single
// thread (producer-side sites, per-lane worker sites, the trace reader).
//
// Cost when disarmed: FaultPoint() is one branch on a relaxed atomic load —
// the probes stay compiled into release builds.
//
// Thread-safety: Configure/Clear must not race Hit/Poll (arm the injector
// before ingest starts, clear it after workers join); Hit/Poll/armed are
// safe from any number of threads.

#ifndef SAS_CORE_FAULT_H_
#define SAS_CORE_FAULT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace sas {

/// Canonical fault-site names (docs/robustness.md catalogs what each one
/// interrupts). Sites are plain strings so custom summarizers can add their
/// own without touching this header.
namespace fault_sites {
/// Producer-side hand-off of one batch to a shard queue (lane = shard).
inline constexpr const char kShardQueuePush[] = "shard.queue.push";
/// Worker-side drain of one batch into the inner builder (lane = shard).
inline constexpr const char kShardWorkerBatch[] = "shard.worker.batch";
/// Worker-side finalize of one shard's inner summary (lane = shard).
inline constexpr const char kShardWorkerFinalize[] = "shard.worker.finalize";
/// Sealing one windowed bucket into its inner sample (lane = epoch).
inline constexpr const char kWindowBucketSeal[] = "window.bucket.seal";
/// Any merge of the windowed wrapper: a back-stack push, a flip fold, or the
/// window merge of a query (lane = epoch).
inline constexpr const char kWindowQueryMerge[] = "window.query.merge";
/// One successfully parsed trace row (fires by *corrupting* the row: the
/// reader counts it malformed and drops it instead of throwing).
inline constexpr const char kTraceRow[] = "trace.row";
/// Publishing a freshly built serving snapshot (lane = publish ordinal,
/// 0-based). Fires *before* the pointer swap: a failed publish leaves the
/// previous snapshot serving (src/serve/query_service.h).
inline constexpr const char kServePublish[] = "serve.publish";
/// One deferred-reclamation pass over retired serving snapshots (lane =
/// retired-list depth). Degrading site: a fired rule skips the pass; the
/// garbage stays pending and the next publish retries.
inline constexpr const char kServeReclaim[] = "serve.reclaim";
}  // namespace fault_sites

/// The exception an armed `fail` rule throws from its fault site. Carries
/// the site name and the 1-based hit ordinal that fired so tests can assert
/// exactly which injection they caught.
class FaultInjectionError : public std::runtime_error {
 public:
  FaultInjectionError(const std::string& site, std::uint64_t hit);

  const std::string& site() const { return site_; }
  std::uint64_t hit() const { return hit_; }

 private:
  std::string site_;
  std::uint64_t hit_;
};

class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Replaces the rule set with the parsed `spec` (see the header comment
  /// for the grammar) and arms the injector when it is non-empty. An empty
  /// spec is equivalent to Clear(). Throws std::invalid_argument naming the
  /// offending clause on a malformed spec. Not safe against concurrent
  /// Hit/Poll — configure before ingest starts.
  void Configure(const std::string& spec);

  /// Drops every rule and disarms. Hit counters are discarded with the
  /// rules.
  void Clear();

  /// True when at least one rule is loaded. One relaxed atomic load.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Counts one hit of `site` against every matching rule and fires the
  /// schedules that come due: `delay` rules sleep here; a due `fail` rule
  /// throws FaultInjectionError. No-op (beyond the counters) otherwise.
  void Hit(const char* site, std::int64_t lane = -1);

  /// Non-throwing variant for sites that degrade instead of failing (the
  /// trace reader): counts the hit, sleeps due `delay` rules, and returns
  /// true when a `fail` rule came due — the caller decides what "failing"
  /// means locally.
  bool Poll(const char* site, std::int64_t lane = -1);

  /// Total hits counted against rules matching `site` (all lanes).
  std::uint64_t HitCount(const std::string& site) const;

  /// Per-site hit totals for every configured rule site (lanes aggregated),
  /// sorted by site name. Telemetry re-exports these as
  /// `sas.fault.hits.<site>` so chaos runs are observable through the same
  /// snapshot as every other metric. Empty when disarmed.
  std::vector<std::pair<std::string, std::uint64_t>> HitCounts() const;

  /// Total schedule firings (throws + delays) since Configure.
  std::uint64_t fired() const {
    return fired_.load(std::memory_order_relaxed);
  }

  /// The process-wide injector, configured once from the SAS_FAULTS
  /// environment variable on first use (unset/empty leaves it disarmed).
  /// Builders fall back to it when SummarizerConfig::faults is null.
  static FaultInjector& Global();

 private:
  struct Rule {
    std::string site;
    std::int64_t lane = -1;  // -1 matches every lane
    bool is_delay = false;
    std::uint64_t nth = 1;       // first firing hit (1-based)
    std::uint64_t every = 0;     // 0 = fire once, else period after nth
    std::uint64_t delay_us = 0;  // sleep length for delay rules
    std::atomic<std::uint64_t> hits{0};
  };

  bool PollImpl(const char* site, std::int64_t lane, std::uint64_t* hit_out);

  std::vector<std::unique_ptr<Rule>> rules_;
  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> fired_{0};
};

/// The per-site probe compiled into the engines: resolves to `local` when a
/// config carries its own injector, else the global one, and forwards to
/// Hit only when armed. Disarmed cost is the branch and one relaxed load.
inline void FaultPoint(FaultInjector* local, const char* site,
                       std::int64_t lane = -1) {
  FaultInjector& fi = local != nullptr ? *local : FaultInjector::Global();
  if (fi.armed()) fi.Hit(site, lane);
}

}  // namespace sas

#endif  // SAS_CORE_FAULT_H_

// Summarizer: the uniform builder behind the public API. Every summary in
// the library — the in-memory structure-aware samplers (src/aware/), the
// Section 5 two-pass constructions, and the baseline summaries — is built
// by feeding weighted keys into a Summarizer obtained from the registry
// (api/registry.h) and calling Finalize():
//
//   SummarizerConfig cfg;
//   cfg.s = 500;
//   auto builder = MakeSummarizer(keys::kProduct, cfg);
//   for (const WeightedKey& k : data) builder->Add(k);
//   std::unique_ptr<RangeSummary> summary = builder->Finalize();
//   Weight est = summary->EstimateBox(box);
//
// Because every method hides behind the same Add/Finalize surface, scale-out
// wrappers (sharded or async backends) can compose in front of any method
// without touching call sites.
//
// Ingest has one entry: AddBatch is the only virtual that takes items, and
// Add(item) is a one-item AddBatch. Builders admit a batch through the one
// admission routine, AdmitBatch (serve: hands its batches on to an inner
// builder that does), so a builder, a wrapper or a user-registered method
// implements one ingest path and a batch behaves exactly like a loop of
// Add over it.
//
// Thread-safety: a Summarizer is single-caller — drive each builder from
// one thread at a time (no internal synchronization on the ingest path).
// Distinct builders are fully independent and may run on distinct threads
// concurrently; the "sharded:" wrapper spawns its worker threads behind
// this same single-caller surface. SummarizerConfig and StructureSpec are
// plain value types, freely copyable across threads (the hierarchy pointer
// in StructureSpec is borrowed — the caller keeps it alive and immutable
// for the builder's lifetime).

#ifndef SAS_API_SUMMARIZER_H_
#define SAS_API_SUMMARIZER_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "api/summary.h"
#include "aware/two_pass.h"
#include "core/types.h"

namespace sas {

class FaultInjector;
class Hierarchy;
class ServableSummarizer;
class WindowedSummarizer;
class WrapperSummarizer;

namespace telemetry {
struct TelemetrySnapshot;
}  // namespace telemetry

/// What a builder does with an invalid record (non-finite or negative
/// weight, non-finite coordinate or timestamp at the parse boundary).
enum class IngestPolicy {
  /// Reject loudly: the first invalid record throws std::invalid_argument
  /// and nothing of it is kept. A batch admits every record before that
  /// one, exactly as a loop of Add stopped there would. The default —
  /// corrupt input is a caller bug.
  kStrict,
  /// Quarantine quietly: drop the record, count it in IngestStats, keep
  /// ingesting. For pipelines fed by untrusted traces that must not stall.
  kQuarantine,
};

/// Ingest-boundary counters surfaced by Summarizer::Describe(). Each record
/// is counted by one builder: the merging wrappers (sharded/windowed) admit
/// records at their own surface and report those counters, not their inner
/// builders'; serve: forwards the stream unchanged and reports its inner
/// builder's (api/composed.h).
struct IngestStats {
  /// Records admitted into the build.
  std::uint64_t accepted = 0;
  /// Records quarantined for a non-finite or negative weight.
  std::uint64_t rejected_weight = 0;
  /// Records quarantined for a non-finite coordinate/timestamp (only
  /// reachable through boundaries that ingest floating-point positions,
  /// e.g. the windowed wrapper's timestamps; API coords are integral).
  std::uint64_t rejected_coord = 0;
  /// Memory-budget degradation events (see SummarizerConfig::max_bytes):
  /// number of times an engine stepped its effective sample size down.
  std::uint64_t degradations = 0;
};

/// Describes the structure on the key domain that a structure-aware method
/// should preserve (Section 2 of the paper). Baseline methods ignore it.
/// The registry key selects the method, and so which fields it reads.
struct StructureSpec {
  /// For `hierarchy`: the key hierarchy (not owned; must outlive the
  /// summarizer). Keys must be added in key-id order, item k at hierarchy
  /// leaf leaf_of_key(k).
  const Hierarchy* hierarchy = nullptr;
  /// For `disjoint`: range_of[i] is the range (in [0, num_ranges)) of the
  /// i-th item *added*, so it must have exactly one entry per item.
  /// Add items in key-id order if you want id-keyed semantics.
  std::vector<int> range_of;
  int num_ranges = 0;
  /// For `nd`: number of axes (points fed via AddCoords, or via Add when
  /// dims <= 2).
  int dims = 2;

  /// 1-D total order over the key ids.
  static StructureSpec Order() { return {nullptr, {}, 0, 1}; }
  /// Key hierarchy; `h` is borrowed and must outlive the summarizer.
  static StructureSpec OverHierarchy(const Hierarchy* h) {
    return {h, {}, 0, 1};
  }
  /// Disjoint flat ranges: range_of[i] is the range of the i-th item added.
  static StructureSpec Disjoint(std::vector<int> range_of, int num_ranges) {
    return {nullptr, std::move(range_of), num_ranges, 1};
  }
  /// 2-D product domain (the default).
  static StructureSpec Product() { return {}; }
  /// d-dimensional product domain, dims in [1, 16] (validated by the
  /// registry at MakeSummarizer time).
  static StructureSpec Nd(int dims) { return {nullptr, {}, 0, dims}; }
};

/// Rough bytes one retained sample entry costs (the entry itself plus
/// reservoir/prob bookkeeping): the unit of the SummarizerConfig::max_bytes
/// estimates of the sharded and windowed wrappers. Deliberately coarse: the
/// budget is a soft brake on sample-driven growth, not an allocator audit.
inline constexpr std::size_t kBytesPerSampleEntry = 64;

/// One configuration struct for every method: target size, seed, structure
/// descriptor, and per-method options. Unused fields are ignored by methods
/// they do not apply to.
struct SummarizerConfig {
  /// Target summary size s: expected sample size for the samplers, retained
  /// coefficients for the wavelet, compression parameter for the q-digest,
  /// counter budget for the sketch.
  double s = 100.0;

  /// Seed for every random draw of the build; identical (config, input)
  /// pairs produce identical summaries.
  std::uint64_t seed = 0x5EEDF00DULL;

  StructureSpec structure;

  /// Two-pass constructions: oversampling factor s' = factor * s for the
  /// pass-1 guide sample (the paper uses 5).
  double sprime_factor = 5.0;

  /// Two-pass hierarchy construction: which partition to use.
  HierarchyPartition hierarchy_partition = HierarchyPartition::kLinearize;

  /// Domain bits per axis, required by the wavelet / q-digest / sketch
  /// baselines (domain size = 2^bits).
  int bits_x = 32;
  int bits_y = 32;

  /// What to do with invalid records at the ingest boundary (see
  /// IngestPolicy). Composed wrappers validate at their outer surface and
  /// hand inner builders pre-validated batches.
  IngestPolicy ingest_policy = IngestPolicy::kStrict;

  /// Soft memory budget in bytes; 0 = unbounded (the default). Engines
  /// that buffer per-epoch or per-shard state (windowed buckets, sharded
  /// inners) respond to pressure against this budget by stepwise halving
  /// their effective sample size s instead of growing without bound; each
  /// step is counted in IngestStats::degradations and logged to stderr.
  /// Estimates remain unbiased — a degraded build is a valid build at a
  /// smaller s.
  std::size_t max_bytes = 0;

  /// Fault injector driving this builder's fault sites; null (the default)
  /// falls back to FaultInjector::Global(), which arms itself from the
  /// SAS_FAULTS environment variable. Tests install their own injector
  /// here for isolation; composed wrappers propagate it to inner builders.
  std::shared_ptr<FaultInjector> faults;
};

/// Uniform builder: feed items with AddBatch/Add (or AddCoords for the
/// d-dimensional method), then call Finalize() exactly once. A finalized
/// summarizer is spent; build a new one for the next summary (or recycle
/// it through Reset() when the method supports that). Single-caller: one
/// thread drives a given builder at a time.
class Summarizer {
 public:
  /// Takes the validated config by value; the registry factories call this
  /// after eager validation, so cfg is well-formed for the method.
  explicit Summarizer(SummarizerConfig cfg) : cfg_(std::move(cfg)) {}
  virtual ~Summarizer() = default;

  /// Feeds a contiguous batch of weighted keys: the one ingest entry every
  /// method implements, admitting the batch through AdmitBatch. Must not be
  /// called after Finalize().
  virtual void AddBatch(std::span<const WeightedKey> items) = 0;

  /// Feeds one weighted key: a batch of one.
  void Add(const WeightedKey& item) { AddBatch({&item, 1}); }

  /// Adds one d-dimensional point (dims coordinates) under the caller's
  /// key id. Only the "nd" method supports general d; the default throws
  /// std::logic_error, before any state changes, so callers may probe and
  /// fall back to Add. The id is stored with the point, so ids stay stable
  /// under any ingest policy and when a wrapper partitions the stream. The
  /// "nd" builder rejects a dims mismatch with std::invalid_argument and
  /// mixing Add/AddCoords on one builder with std::logic_error.
  virtual void AddCoords(KeyId id, const Coord* coords, int dims, Weight w);

  /// Builds the summary from everything added. Call exactly once; the
  /// builder is spent afterwards (unless recycled via Reset). Input-
  /// dependent config mismatches (hierarchy/range_of counts) throw
  /// std::invalid_argument from here.
  virtual std::unique_ptr<RangeSummary> Finalize() = 0;

  /// Mergeable capability: true when (a) Finalize() produces a sample-backed
  /// summary whose Sample can be combined with others via MergeAllSamples
  /// (core/merge.h), and (b) the method's semantics survive feeding it an
  /// arbitrary subset of the input (so a hash-partitioned shard sees a valid
  /// input). Methods with positional config (hierarchy/disjoint, whose
  /// structure descriptors index "the i-th item added") and the
  /// non-sample baselines report false; the sharded wrapper
  /// (api/sharded.h) only composes over mergeable methods.
  virtual bool Mergeable() const { return false; }

  /// Recycling capability: returns the builder to its freshly-constructed
  /// state under `seed`, retaining allocated capacity, and reports true.
  /// A recycled builder must behave exactly like a fresh builder
  /// constructed with the same config and that seed. Wrappers that rebuild
  /// repeatedly (the windowed ring retiring time buckets) recycle spent
  /// builders through this instead of reconstructing them. The default
  /// reports false ("not recyclable"); callers must then build a fresh one.
  virtual bool Reset(std::uint64_t seed) {
    (void)seed;
    return false;
  }

  /// Windowed capability: downcast to the time-windowed wrapper
  /// (window/windowed.h), or nullptr for every non-windowed method. The
  /// windowed wrapper extends the builder surface with the timestamped
  /// ingest/query calls (AddTimed / Advance / QueryAt) that generic
  /// summarizers do not have; callers that never downcast can keep using
  /// the plain Add/Finalize surface (the ring degenerates to one bucket
  /// at time 0).
  virtual WindowedSummarizer* AsWindowed() { return nullptr; }

  /// Serving capability: downcast to the lock-free serving wrapper
  /// (serve/servable.h), or nullptr for every non-serve method. The serve
  /// wrapper exposes the QueryService that concurrent reader threads share
  /// while this builder keeps ingesting and republishing; callers that
  /// never downcast use the plain Add/Finalize surface unchanged.
  virtual ServableSummarizer* AsServable() { return nullptr; }

  /// The validated config this builder was constructed with (Reset updates
  /// its seed in place).
  const SummarizerConfig& config() const { return cfg_; }

  /// Ingest-boundary counters for this builder (see IngestStats). Read
  /// from the ingest thread, or after workers have joined — reading while
  /// another thread ingests is a race by the single-caller contract.
  virtual const IngestStats& Describe() const { return stats_; }

  /// Process-wide telemetry snapshot (core/telemetry.h) with this builder's
  /// fault injector's per-site hit counters re-exported — the metrics
  /// counterpart of Describe(). Unlike Describe(), the snapshot spans every
  /// instrumented builder in the process, not just this one.
  telemetry::TelemetrySnapshot DescribeTelemetry() const;

 protected:
  /// The admission routine of every AddBatch. Hands `sink` the records of
  /// `items` whose weight is finite and non-negative, in order, and counts
  /// the ones it takes in stats_.accepted: `sink(run)` consumes a prefix of
  /// `run` (all of it, unless the builder stops mid-batch) and returns its
  /// length. A clean batch, the common case, goes to the sink whole in one
  /// call. Otherwise each record is judged alone: a valid one goes to the
  /// sink as a run of one, an invalid one is handled per
  /// cfg_.ingest_policy (see RejectWeight). So a strict batch keeps every
  /// record before its first invalid one and then throws.
  template <typename Sink>
  void AdmitBatch(std::span<const WeightedKey> items, Sink&& sink) {
    if (AllFinite(items)) [[likely]] {
      CountAccepted(sink(items));
      return;
    }
    for (const WeightedKey& it : items) {
      if (ValidWeight(it.weight)) {
        CountAccepted(sink(std::span<const WeightedKey>(&it, 1)));
      } else {
        RejectWeight(it.weight);
      }
    }
  }

  /// Admits one weight outside a WeightedKey batch (the coordinate path):
  /// true and counted in stats_.accepted when it is finite and
  /// non-negative, else RejectWeight. Callers admit before any state
  /// changes, so strict rejection leaves the builder untouched.
  bool AdmitWeight(Weight w) {
    if (ValidWeight(w)) {
      CountAccepted();
      return true;
    }
    RejectWeight(w);
    return false;
  }

  /// IngestStats bumpers that mirror into the process telemetry counters
  /// (`sas.ingest.*`) when armed. Engines route every stats_ mutation
  /// through these so Describe() and the registry can never disagree. The
  /// inner builders of a merging wrapper do not mirror: the wrapper already
  /// counted each record at its own surface.
  void CountAccepted(std::uint64_t n = 1);
  void CountRejectedWeight(std::uint64_t n = 1);
  void CountRejectedCoord(std::uint64_t n = 1);
  void CountDegradation(std::uint64_t n = 1);

  SummarizerConfig cfg_;
  IngestStats stats_;

 private:
  static bool ValidWeight(Weight w) { return std::isfinite(w) && w >= 0.0; }
  /// True when every weight in `items` is finite and non-negative. Summing
  /// is branch-free per element: any NaN/Inf poisons the total, and a
  /// negative weight can only drag a non-negative running minimum below
  /// zero. One pass, no early exits to mispredict on clean input.
  static bool AllFinite(std::span<const WeightedKey> items) {
    Weight sum = 0.0;
    Weight min = 0.0;
    for (const WeightedKey& it : items) {
      sum += it.weight;
      min = it.weight < min ? it.weight : min;
    }
    return std::isfinite(sum) && min >= 0.0;
  }
  /// An invalid weight under cfg_.ingest_policy: kStrict throws
  /// std::invalid_argument naming the value; kQuarantine counts it in
  /// stats_.rejected_weight ("drop this record").
  void RejectWeight(Weight w);

  friend class WrapperSummarizer;  // the inner-builder factory clears it
  bool mirror_ingest_ = true;
};

}  // namespace sas

#endif  // SAS_API_SUMMARIZER_H_

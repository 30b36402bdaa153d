// Time-windowed streaming behind the registry: the composed key
// "windowed:<W>:<B>:<inner-key>" maintains a sliding window of the last W
// time units as a ring of B time buckets, each summarized by an
// <inner-key> summarizer built through the registry. Ingest is timestamped;
// a query returns one VarOpt sample of expected size cfg.s covering the
// window, assembled from the buckets' samples by VarOpt merges
// (core/merge.h):
//
//   auto builder = MakeSummarizer("windowed:3600:60:obliv", cfg);
//   auto* win = builder->AsWindowed();
//   for (const auto& [ts, item] : trace) win->AddTimed(ts, item);
//   const Sample& last_hour = win->QueryAt(now);     // the live window
//
// Bucketing: time is split into epochs of span W/B; epoch e covers
// [e*span, (e+1)*span). The ring holds the current epoch (an item buffer
// still accepting ingest) plus the most recent B-1 sealed epochs (each a
// finished VarOpt sample of expected size s). An epoch expires — its
// sample is dropped — as soon as its *start* is W old, i.e. expiry snaps
// to bucket boundaries from below: an item exactly W old is always outside
// the window, and items as young as W - W/B may already be out, so the
// effective coverage lies between W - W/B and W. More buckets track the
// trailing edge more tightly (less in-window data expired early) at the
// cost of more bucket builds and a longer flip (below).
//
// Two-stack aggregation: a merge cannot be undone, and every epoch
// crossing expires the oldest bucket, so the sealed buckets are kept as a
// two-stack sliding-window aggregate (Tangwongsan et al., "General
// incremental sliding-window aggregation", PVLDB 2015). VarOpt is
// composable — a size-s merge of size-s VarOpt samples carried at their
// adjusted weights is a size-s VarOpt sample of the union — so every
// aggregate below is itself a valid window-part sample:
//   * the back stack holds the raw samples of buckets sealed since the last
//     flip plus their running merge, updated by one two-way merge per seal;
//   * the front stack holds only suffix aggregates A_j = Merge(f_j,
//     A_{j+1}) of older buckets, oldest on top; expiry pops it;
//   * when an expiring bucket sits in the back (the front ran empty), the
//     back is flipped: its expired samples are dropped and the rest are
//     folded right to left into suffix aggregates, B-2 two-way merges at
//     most, once per ~B crossings.
// The window is Merge(oldest live A_j, back aggregate, current partial
// bucket): at most a 3-way merge of <= 3s entries, cached until the ring
// moves or items arrive. A steady-state crossing thus costs a bucket build
// plus two two-way merges; the flip crossing adds the fold.
//
// Bucket builds: the current bucket buffers raw items; it is built into a
// sample when it seals (time advances past its epoch) and, on demand, when
// a query arrives mid-epoch. Spent inner builders are recycled through the
// Summarizer::Reset capability (falling back to a fresh MakeSummarizer for
// methods that do not support it), and the merges share one MergeScratch.
//
// Determinism: the bucket for epoch e is seeded ForkSeed(seed', e); every
// stack merge is seeded from (seed', kind of merge, epoch) and the window
// merge from (seed', epoch, items in the current bucket). All stack
// updates happen on clock advance, never on a query, so a fixed (seed, W,
// B, timestamped input) reproduces every sample bit-identically — with or
// without interleaved queries, and across builder recycling.
//
// Untimed use: plain Add/AddBatch ingest at the current clock (initially
// time 0), so a windowed key behaves like its inner method wrapped in one
// bucket when no caller advances time. This is what makes the key safe to
// hand to generic call sites (the eval harness, the sharded wrapper —
// "sharded:<N>:windowed:..." and "windowed:<W>:<B>:sharded:<N>:..." both
// compose).
//
// The key grammar (W a positive decimal, B in [1, 4096]), the lifecycle and
// the inner-builder factory are the shared ones of api/composed.h; this
// file is only the ring engine. A failed seal or merge poisons the builder,
// since the stacks may be left mid-update: every call but Reset throws.

#ifndef SAS_WINDOW_WINDOWED_H_
#define SAS_WINDOW_WINDOWED_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/composed.h"
#include "api/summary.h"
#include "core/merge.h"
#include "core/random.h"
#include "core/sample.h"

namespace sas {

namespace telemetry {
class Counter;
class Histogram;
}  // namespace telemetry

/// The wrapper itself. Construct through MakeSummarizer; exposed for tests
/// and for the timestamped surface (reach it via Summarizer::AsWindowed).
class WindowedSummarizer final : public WrapperSummarizer {
 public:
  /// Probes the inner method eagerly (unknown, invalid or non-mergeable
  /// inner keys throw std::invalid_argument here, not at the first seal,
  /// as does an nd inner method at structure.dims > 2: the ring buffers
  /// 2-D WeightedKeys).
  WindowedSummarizer(const ComposedKey& key, const SummarizerConfig& cfg);

  // --- Generic builder surface (untimed: ingests at the current clock) ---

  void AddBatch(std::span<const WeightedKey> items) override;

  /// Merges the live window into its summary and spends the builder, like
  /// every Summarizer.
  std::unique_ptr<RangeSummary> Finalize() override;

  /// The merged output is a plain VarOpt sample, so windowed summarizers
  /// can sit under the sharded wrapper (and under another merge).
  bool Mergeable() const override { return true; }

  /// Full recovery, including from the poisoned and finalized states:
  /// empties the ring and the current bucket, rewinds the clock to 0,
  /// clears every counter, and re-derives the bucket/merge seed streams
  /// from `seed`. A reset builder is bit-identical to a freshly
  /// constructed one with cfg.seed = seed. Always recyclable (the ring
  /// state is plain buffers; inner builders are re-acquired per bucket).
  bool Reset(std::uint64_t seed) override;

  WindowedSummarizer* AsWindowed() override { return this; }

  // --- Timestamped surface ---

  /// Moves the clock forward to `now` (the clock is monotone: a `now` in
  /// the past is a no-op). Crossing an epoch boundary seals the current
  /// bucket onto the back stack and retires every bucket whose span has
  /// fully left the window, flipping the back stack when the front runs
  /// out. Throws std::invalid_argument for non-finite times.
  void Advance(double now);

  /// Advance(ts) + Add. Late items (ts earlier than the clock) are not
  /// reordered: if ts's bucket is still live they join the *current*
  /// bucket (they will expire up to W/B late; late_items() counts them),
  /// and items whose bucket has left the window — age above W - W/B at
  /// bucket granularity, which includes everything exactly W old — are
  /// dropped (dropped_items()).
  void AddTimed(double ts, const WeightedKey& item);

  /// The merged VarOpt sample over the live window at `now` (advances the
  /// clock first). Repeated queries reuse a cached merged sample: the
  /// window merge re-runs only after the ring advances past an epoch
  /// boundary or new items arrive (merges_performed() observes this).
  /// Queries never touch the stacks, so they cannot change a later sample.
  /// The reference is valid until the next non-const call.
  const Sample& QueryAt(double now);

  /// Installs a publish hook invoked with the merged window sample every
  /// time the ring advances past an epoch boundary (the serving tier —
  /// serve/servable.h — republishes through this; the window layer itself
  /// has no serve dependency). The hook runs on the ingest thread after the
  /// ring is consistent; its exceptions propagate to the Advance caller
  /// without poisoning the ring. Installing a hook makes every epoch
  /// crossing merge eagerly (merges_performed() counts those merges too).
  /// Pass nullptr to uninstall. Not called for the degenerate "no advance"
  /// untimed use.
  void SetPublishHook(std::function<void(const Sample&)> hook) {
    publish_hook_ = std::move(hook);
  }

  // --- Introspection (tests, benches, monitoring) ---

  double now() const { return now_; }
  double window() const { return window_; }
  int buckets() const { return buckets_; }
  double bucket_span() const { return span_; }
  /// Epoch index of time `ts` under this wrapper's bucketing.
  std::int64_t EpochOf(double ts) const;
  /// Live sealed buckets plus the current bucket when it holds items.
  int live_buckets() const;
  /// Window merges (cached-sample rebuilds); the stack merges of seals and
  /// flips are not counted.
  std::size_t merges_performed() const { return merges_; }
  std::size_t late_items() const { return late_items_; }
  std::size_t dropped_items() const { return dropped_items_; }
  /// Builders reused via the Reset capability instead of reconstruction.
  std::size_t recycled_builders() const { return recycled_builders_; }
  /// The sample size buckets are currently built at: cfg.s until the
  /// max_bytes budget forces stepwise halvings (IngestStats::degradations
  /// counts them).
  double effective_s() const { return effective_s_; }

 private:
  /// A sealed bucket's sample (back stack) or a suffix aggregate (front
  /// stack), tagged with the epoch of its oldest bucket.
  struct Part {
    std::int64_t epoch = 0;
    Sample sample;
  };

  /// A fresh inner builder for the bucket of `epoch` (recycled when the
  /// inner method supports Reset).
  std::unique_ptr<Summarizer> AcquireInner(std::int64_t epoch);
  void ReleaseInner(std::unique_ptr<Summarizer> spent);
  /// Builds the inner summary over `items` under the bucket seed of
  /// `epoch` and returns its sample.
  Sample BuildBucketSample(std::int64_t epoch,
                           std::span<const WeightedKey> items);
  /// Seals the current bucket's buffer onto the back stack (no-op when the
  /// buffer is empty or the bucket would already be expired at
  /// `next_epoch`).
  void SealCurrentBucket(std::int64_t next_epoch);
  /// Pops every expired bucket off the front stack, flipping the back
  /// stack when an expired bucket sits there.
  void RetireExpired(std::int64_t current_epoch);
  /// Folds the back stack's live samples (epoch >= `oldest_live`), newest
  /// first, into the empty front stack's suffix aggregates and empties the
  /// back stack.
  void Flip(std::int64_t oldest_live);
  /// The one merge path of the wrapper: merges `parts` to effective_s_
  /// under `seed`, hitting the window.query.merge fault site (lane =
  /// `epoch`) and the window.merge span. Poisons the builder on failure.
  Sample MergeParts(std::span<const Sample* const> parts, std::int64_t epoch,
                    std::uint64_t seed);
  /// Applies the max_bytes budget (FitToBudget) to effective_s_ before a
  /// bucket build, counting the samples the stacks hold after the build.
  void MaybeDegrade();
  void InvalidateCache() { cache_valid_ = false; }
  const Sample& MergedWindow();

  double window_ = 0.0;
  double span_ = 0.0;
  std::uint64_t bucket_seed_base_ = 0;
  std::uint64_t merge_seed_base_ = 0;

  int buckets_ = 0;
  double now_ = 0.0;
  std::int64_t cur_epoch_ = 0;
  std::vector<WeightedKey> cur_items_;   // current bucket's raw buffer
  // The live sealed buckets, oldest in front_: front_ holds the suffix
  // aggregates of the last flip, newest first (so the oldest pops off the
  // vector's end); back_ holds the raw samples sealed since, oldest first,
  // and back_merged_ their running merge (empty while back_ is).
  std::vector<Part> front_;
  std::vector<Part> back_;
  Sample back_merged_;

  // The spare inner builder (the last spent one, awaiting Reset) and merge
  // scratch, reused across bucket builds and merges. One builder is live
  // at a time, so one spare suffices. It is only kept while the inner
  // method supports the Reset capability (probed at construction) — spent
  // non-recyclable builders are destroyed immediately instead of cached.
  bool inner_recyclable_ = false;
  std::unique_ptr<Summarizer> spare_;
  /// The s the spare was constructed with: a budget degradation changes
  /// effective_s_, and builders cannot resize through Reset, so a mismatch
  /// drops the spare.
  double spare_s_ = 0.0;
  MergeScratch merge_scratch_;

  std::function<void(const Sample&)> publish_hook_;
  Sample cached_window_;
  bool cache_valid_ = false;
  double effective_s_ = 0.0;

  std::size_t merges_ = 0;
  std::size_t late_items_ = 0;
  std::size_t dropped_items_ = 0;
  std::size_t recycled_builders_ = 0;

  // Telemetry instruments (core/telemetry.h), resolved once at
  // construction; hot-path updates are guarded by telemetry::Enabled().
  telemetry::Histogram* seal_ns_ = nullptr;
  telemetry::Histogram* bucket_items_ = nullptr;
  telemetry::Histogram* merge_fanin_ = nullptr;
  telemetry::Histogram* merge_ns_ = nullptr;
  telemetry::Histogram* query_ns_ = nullptr;
  telemetry::Counter* expired_buckets_ = nullptr;
  telemetry::Counter* cache_hits_ = nullptr;
  telemetry::Counter* cache_misses_ = nullptr;
};

}  // namespace sas

#endif  // SAS_WINDOW_WINDOWED_H_

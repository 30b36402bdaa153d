#include "window/windowed.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "api/keys.h"
#include "core/fault.h"
#include "core/telemetry.h"

namespace sas {

namespace {

// Distinct salts keep the bucket-seed and merge-seed streams independent of
// each other and of the sharded wrapper's partition salt; the stack merges
// (back-stack pushes, flip folds) draw from their own sub-streams of the
// merge seed.
constexpr std::uint64_t kBucketSeedTag = 0x5EA1B0C4E7B0C4E7ULL;
constexpr std::uint64_t kMergeSeedTag = 0x3E6E5A1AD3A9F0B5ULL;
constexpr std::uint64_t kBackPushTag = 0x7C1D2B9E4F86A03DULL;
constexpr std::uint64_t kFlipFoldTag = 0xA5B4C3D2E1F00917ULL;

}  // namespace

WindowedSummarizer::WindowedSummarizer(const ComposedKey& key,
                                       const SummarizerConfig& cfg)
    : WrapperSummarizer(key, cfg) {
  window_ = key.fields[0];
  buckets_ = static_cast<int>(key.fields[1]);
  span_ = window_ / static_cast<double>(buckets_);
  if (!(span_ > 0.0)) {
    BadKey("window span / bucket count underflows to a zero-length bucket");
  }
  bucket_seed_base_ = Mix64(cfg.seed ^ kBucketSeedTag);
  merge_seed_base_ = Mix64(cfg.seed ^ kMergeSeedTag);
  effective_s_ = cfg.s;
  spare_s_ = cfg.s;
  // Cold registry lookups; the hot paths only touch the cached pointers.
  seal_ns_ = telemetry::GetHistogram("sas.window.seal_ns");
  bucket_items_ = telemetry::GetHistogram("sas.window.bucket_items");
  merge_fanin_ = telemetry::GetHistogram("sas.window.merge_fanin");
  merge_ns_ = telemetry::GetHistogram("sas.window.merge_ns");
  query_ns_ = telemetry::GetHistogram("sas.window.query_ns");
  expired_buckets_ = telemetry::GetCounter("sas.window.expired_buckets");
  cache_hits_ = telemetry::GetCounter("sas.window.cache_hits");
  cache_misses_ = telemetry::GetCounter("sas.window.cache_misses");

  // The ring buffers WeightedKeys, which carry two coordinates: an nd
  // method over more axes could never seal a bucket.
  if (key.innermost == keys::kNd && cfg.structure.dims > 2) {
    BadKey("the window buffers 2-D items, so an nd inner method needs "
           "structure.dims <= 2 (got " +
           std::to_string(cfg.structure.dims) + ")");
  }
  // Probe the inner method eagerly: unknown keys, invalid configs, and
  // non-mergeable methods must throw at MakeSummarizer time, not at the
  // first bucket seal.
  auto probe = AcquireInner(/*epoch=*/0);
  // Probe the Reset capability too (a no-op on the fresh builder): a
  // recyclable probe becomes the spare, a non-recyclable one — e.g. a
  // sharded inner with its worker pool — is destroyed right away rather
  // than cached until the first bucket seal.
  inner_recyclable_ =
      probe->Reset(ForkSeed(bucket_seed_base_, /*stream=*/0));
  ReleaseInner(std::move(probe));
}

std::int64_t WindowedSummarizer::EpochOf(double ts) const {
  const double q = std::floor(ts / span_);
  // Clamp epochs outside the int64 range (finite but astronomically large
  // timestamps relative to the span): the cast below would otherwise be
  // undefined behavior. Clamped times all share an extreme epoch, which
  // degrades ordering only beyond +-2^63 buckets.
  constexpr double kEpochLimit = 9.2e18;  // safely below INT64_MAX (~9.22e18)
  if (q >= kEpochLimit) return static_cast<std::int64_t>(kEpochLimit);
  if (q <= -kEpochLimit) return -static_cast<std::int64_t>(kEpochLimit);
  return static_cast<std::int64_t>(q);
}

int WindowedSummarizer::live_buckets() const {
  // Expiry runs on every clock advance, so the stacks hold live buckets
  // only — one part per bucket on either stack.
  return static_cast<int>(front_.size() + back_.size()) +
         (cur_items_.empty() ? 0 : 1);
}

std::unique_ptr<Summarizer> WindowedSummarizer::AcquireInner(
    std::int64_t epoch) {
  const std::uint64_t seed =
      ForkSeed(bucket_seed_base_, static_cast<std::uint64_t>(epoch));
  if (spare_s_ != effective_s_) {
    // A budget degradation changed the bucket sample size; the spare is
    // pinned to the old s (Reset reseeds but cannot resize), so it goes.
    spare_.reset();
    spare_s_ = effective_s_;
  }
  if (spare_ != nullptr) {
    auto builder = std::move(spare_);
    if (builder->Reset(seed)) {
      ++recycled_builders_;
      return builder;
    }
    // Unreachable while the capability probe below holds, but a custom
    // method whose Reset support is state-dependent just falls through to
    // a fresh construction.
    inner_recyclable_ = false;
  }
  // The wrapper already budgets the whole ring; the inner build must not
  // degrade again on its own.
  return MakeInner(seed, effective_s_, /*max_bytes=*/0);
}

void WindowedSummarizer::ReleaseInner(std::unique_ptr<Summarizer> spent) {
  if (inner_recyclable_) spare_ = std::move(spent);
}

void WindowedSummarizer::MaybeDegrade() {
  // After a seal the stacks hold the front aggregates, the raw back
  // samples, the back aggregate, and the new bucket — each of expected
  // size at most s. Only seals and the final build at Finalize budget, so
  // interleaved queries cannot change effective_s_ or any later sample.
  effective_s_ = FitToBudget(effective_s_, front_.size() + back_.size() + 2);
}

Sample WindowedSummarizer::BuildBucketSample(
    std::int64_t epoch, std::span<const WeightedKey> items) {
  auto builder = AcquireInner(epoch);
  builder->AddBatch(items);
  auto summary = builder->Finalize();
  Sample out = InnerSample(*summary).TakeSample();
  ReleaseInner(std::move(builder));
  return out;
}

Sample WindowedSummarizer::MergeParts(std::span<const Sample* const> parts,
                                      std::int64_t epoch,
                                      std::uint64_t seed) {
  try {
    FaultPoint(cfg_.faults.get(), fault_sites::kWindowQueryMerge, epoch);
    if (telemetry::Enabled()) merge_fanin_->Observe(parts.size());
    telemetry::Span merge_span("window.merge", merge_ns_);
    Rng merge_rng(seed);
    // The target is effective_s_, which tracks cfg.s until the max_bytes
    // budget steps it down; parts built at an older, larger s are
    // re-sampled down to it.
    return MergeSampleParts(parts.data(), parts.size(),
                            static_cast<std::size_t>(effective_s_),
                            &merge_rng, &merge_scratch_);
    // sas-lint: allow(catch-all): a failed merge can leave the stacks and
    // the shared merge scratch mid-update; mark the builder poisoned before
    // the error propagates so later calls fail fast.
  } catch (...) {
    Poison();
    throw;
  }
}

void WindowedSummarizer::SealCurrentBucket(std::int64_t next_epoch) {
  if (cur_items_.empty()) return;
  if (cur_epoch_ <= next_epoch - buckets()) {
    // The bucket would be born expired (the clock jumped past the whole
    // window); skip the build and just recycle the buffer.
    cur_items_.clear();
    return;
  }
  Sample sealed;
  try {
    FaultPoint(cfg_.faults.get(), fault_sites::kWindowBucketSeal,
               cur_epoch_);
    MaybeDegrade();
    if (telemetry::Enabled()) bucket_items_->Observe(cur_items_.size());
    telemetry::Span seal_span("window.seal", seal_ns_);
    sealed = BuildBucketSample(cur_epoch_, cur_items_);
    // sas-lint: allow(catch-all): a failed seal leaves the bucket
    // half-built; mark the builder poisoned before the error propagates so
    // later calls fail fast instead of merging an inconsistent window.
  } catch (...) {
    Poison();
    throw;
  }
  // One two-way merge folds the new bucket into the back stack's running
  // merge.
  if (back_.empty()) {
    back_merged_ = sealed;
  } else {
    const Sample* pair[] = {&back_merged_, &sealed};
    back_merged_ = MergeParts(
        pair, cur_epoch_,
        ForkSeed(merge_seed_base_ ^ kBackPushTag,
                 static_cast<std::uint64_t>(cur_epoch_)));
  }
  back_.push_back({cur_epoch_, std::move(sealed)});
  cur_items_.clear();  // keeps capacity: the next bucket reuses it
}

void WindowedSummarizer::RetireExpired(std::int64_t current_epoch) {
  const std::int64_t oldest_live = current_epoch - buckets() + 1;
  std::uint64_t expired = 0;
  while (!front_.empty() && front_.back().epoch < oldest_live) {
    front_.pop_back();  // frees the retired aggregate's entries
    ++expired;
  }
  if (front_.empty() && !back_.empty() &&
      back_.front().epoch < oldest_live) {
    // The front ran out while expired buckets remain in the back: at every
    // ~B-th crossing, or after a clock jump.
    const std::size_t held = back_.size();
    Flip(oldest_live);
    expired += held - front_.size();
  }
  if (expired > 0 && telemetry::Enabled()) expired_buckets_->Inc(expired);
}

void WindowedSummarizer::Flip(std::int64_t oldest_live) {
  // Fold right to left, A_j = Merge(f_j, A_{j+1}), the newest bucket being
  // its own aggregate; pushing in that order leaves the oldest on top.
  // Expired buckets are older than every live one, so skipping them
  // changes no live aggregate.
  for (std::size_t j = back_.size(); j-- > 0;) {
    Part& f = back_[j];
    if (f.epoch < oldest_live) break;
    if (front_.empty()) {
      front_.push_back(std::move(f));
      continue;
    }
    const Sample* pair[] = {&f.sample, &front_.back().sample};
    Sample folded =
        MergeParts(pair, f.epoch,
                   ForkSeed(merge_seed_base_ ^ kFlipFoldTag,
                            static_cast<std::uint64_t>(f.epoch)));
    f.sample = Sample();  // folded in: free the raw entries right away
    front_.push_back({f.epoch, std::move(folded)});
  }
  back_.clear();
  back_merged_ = Sample();
}

void WindowedSummarizer::Advance(double now) {
  RequireLive("Advance");
  if (!std::isfinite(now)) {
    throw std::invalid_argument("windowed summarizer: Advance to a "
                                "non-finite time");
  }
  if (now <= now_) return;  // the clock is monotone
  now_ = now;
  const std::int64_t epoch = EpochOf(now);
  if (epoch == cur_epoch_) return;
  SealCurrentBucket(epoch);
  RetireExpired(epoch);
  cur_epoch_ = epoch;
  InvalidateCache();
  // Publish-on-ring-advance (the serving tier installs this hook): the ring
  // is consistent at this point, so a hook failure — including a merge
  // fault below — propagates without poisoning only when the merge itself
  // stayed healthy (MergedWindow poisons on its own faults, as for any
  // query). No hook, no window merge: untimed and unserved windows keep
  // their lazy merge-on-query behavior (and merges_performed() counts);
  // only the stack merges of the seal and the flip ran above.
  if (publish_hook_) publish_hook_(MergedWindow());
}

void WindowedSummarizer::AddBatch(std::span<const WeightedKey> items) {
  RequireLive("AddBatch");
  if (items.empty()) return;
  AdmitBatch(items, [this](std::span<const WeightedKey> run) {
    cur_items_.insert(cur_items_.end(), run.begin(), run.end());
    InvalidateCache();
    return run.size();
  });
}

void WindowedSummarizer::AddTimed(double ts, const WeightedKey& item) {
  RequireLive("AddTimed");
  if (!std::isfinite(ts)) {
    if (cfg_.ingest_policy == IngestPolicy::kQuarantine) {
      // A record without a real position on the time axis cannot be
      // bucketed; quarantine it like a non-finite coordinate.
      CountRejectedCoord();
      return;
    }
    throw std::invalid_argument("windowed summarizer: AddTimed with a "
                                "non-finite timestamp");
  }
  if (ts > now_) Advance(ts);
  if (ts < now_) {
    // Late arrival: the stream is not reordered. Items whose epoch has
    // already left the window are dropped; the rest join the current
    // bucket (expiring up to one bucket span later than their timestamp
    // alone would suggest).
    if (EpochOf(ts) <= cur_epoch_ - buckets()) {
      ++dropped_items_;
      return;
    }
    ++late_items_;
  }
  Add(item);
}

const Sample& WindowedSummarizer::MergedWindow() {
  const bool telemetry_on = telemetry::Enabled();
  if (cache_valid_) {
    if (telemetry_on) cache_hits_->Inc();
    return cached_window_;
  }
  if (telemetry_on) cache_misses_->Inc();
  // Oldest to newest: the oldest live suffix aggregate, the back stack's
  // running merge, the current bucket's partial sample.
  const Sample* parts[3];
  std::size_t n = 0;
  if (!front_.empty()) parts[n++] = &front_.back().sample;
  if (!back_.empty()) parts[n++] = &back_merged_;
  Sample partial;
  if (!cur_items_.empty()) {
    try {
      partial = BuildBucketSample(cur_epoch_, cur_items_);
      // sas-lint: allow(catch-all): a failed build can leave the spare
      // builder mid-update; poison before the error propagates, as for a
      // failed merge.
    } catch (...) {
      Poison();
      throw;
    }
    parts[n++] = &partial;
  }
  // The merge seed is a deterministic function of (config seed, epoch,
  // items in the current bucket), so replaying a timestamped input
  // reproduces every queried sample bit-identically.
  cached_window_ = MergeParts(
      {parts, n}, cur_epoch_,
      ForkSeed(merge_seed_base_,
               Mix64(static_cast<std::uint64_t>(cur_epoch_)) ^
                   cur_items_.size()));
  ++merges_;
  cache_valid_ = true;
  return cached_window_;
}

const Sample& WindowedSummarizer::QueryAt(double now) {
  RequireLive("QueryAt");
  telemetry::Span query_span("window.query", query_ns_);
  Advance(now);
  return MergedWindow();
}

std::unique_ptr<RangeSummary> WindowedSummarizer::Finalize() {
  RequireLive("Finalize");
  // The current bucket's final build is budgeted like a seal (a query's
  // partial build is not, so queries never move effective_s_).
  if (!cur_items_.empty()) {
    const double s_before = effective_s_;
    MaybeDegrade();
    if (effective_s_ != s_before) InvalidateCache();
  }
  MergedWindow();
  MarkFinalized();
  return std::make_unique<SampleSummary>(key_, std::move(cached_window_));
}

bool WindowedSummarizer::Reset(std::uint64_t seed) {
  Restart(seed);
  front_.clear();
  back_.clear();
  back_merged_ = Sample();
  cur_items_.clear();
  now_ = 0.0;
  cur_epoch_ = 0;
  cached_window_ = Sample();
  cache_valid_ = false;
  merges_ = 0;
  late_items_ = 0;
  dropped_items_ = 0;
  recycled_builders_ = 0;
  effective_s_ = cfg_.s;
  bucket_seed_base_ = Mix64(seed ^ kBucketSeedTag);
  merge_seed_base_ = Mix64(seed ^ kMergeSeedTag);
  // The spare builder survives the reset: AcquireInner reseeds it per
  // bucket anyway, and a stale effective_s_ is caught by the spare_s_
  // check there.
  return true;
}

}  // namespace sas

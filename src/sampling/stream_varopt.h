// One-pass streaming VarOpt_s sampling (Cohen, Duffield, Kaplan, Lund,
// Thorup, SODA 2009 — the algorithm behind Apache DataSketches' VarOpt
// sketch). This is the "Obliv" method of the paper's evaluation and the
// first-pass guide sample of the I/O-efficient constructions (Section 5).
//
// State: a min-heap H of "heavy" items kept with their exact weights
// (w > tau) and a pool L of "light" items that all share the adjusted
// weight tau. The invariant is tau = (total weight of every stream item
// that is not currently heavy) / |L|. After warm-up, an item that falls
// straight into the light pool costs O(1) (it never touches the heap); an
// item that enters the heap, or pushes heap minima into the pool, costs
// O(log s) per heap operation.

#ifndef SAS_SAMPLING_STREAM_VAROPT_H_
#define SAS_SAMPLING_STREAM_VAROPT_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/random.h"
#include "core/sample.h"
#include "core/types.h"

namespace sas {

class StreamVarOpt {
 public:
  /// Reservoir capacity s >= 1.
  StreamVarOpt(std::size_t s, Rng rng);

  /// Processes one stream item. Items whose weight is not > 0 (zero,
  /// negative or NaN) are ignored: they change neither the sample, nor
  /// tau, nor items_seen().
  void Push(const WeightedKey& item);

  /// Processes a contiguous batch (the non-virtual hot-loop entry point of
  /// the registry's batched ingest fast path). Equivalent to calling Push
  /// on each item in order.
  void PushBatch(std::span<const WeightedKey> items);

  /// Merge entry point: feeds every entry of a finished VarOpt sample at
  /// its *adjusted* weight, so a combiner sketch absorbing shard samples
  /// stays unbiased for the union of the shards' data (law of total
  /// expectation). This is the streaming counterpart of MergeSamples
  /// (core/merge.h).
  void Absorb(const Sample& sample);

  /// Current threshold (0 while fewer than s items have been seen).
  double tau() const { return tau_; }

  /// Number of items currently retained (== min(s, items seen)).
  std::size_t size() const { return heavy_.size() + light_.size(); }

  std::size_t items_seen() const { return seen_; }

  /// Extracts the sample (threshold + retained items). The sketch remains
  /// usable afterwards.
  Sample ToSample() const;

  /// Extracts the sample by moving the retained items out; the sketch is
  /// reset to its freshly-constructed state (same capacity, same RNG
  /// position). Use this at Finalize time to avoid copying the reservoir.
  Sample TakeSample();

  /// Returns the sketch to its freshly-constructed state under a new RNG,
  /// retaining the allocated reservoir capacity. The windowed backend
  /// (window/windowed.h) recycles retired bucket sketches through this
  /// instead of reallocating them: a Reset sketch behaves bit-identically
  /// to StreamVarOpt(s, rng) fed the same stream.
  void Reset(Rng rng);

 private:
  /// Restores the heap property after appending to heavy_.
  void HeavyPush(const WeightedKey& item);
  WeightedKey HeavyPopMin();

  std::size_t s_;
  Rng rng_;
  double tau_ = 0.0;
  // Total original weight of all stream items not currently heavy
  // (including items already evicted from the reservoir).
  double light_mass_ = 0.0;
  std::size_t seen_ = 0;
  std::vector<WeightedKey> heavy_;  // min-heap by weight
  std::vector<WeightedKey> light_;  // uniform pool, adjusted weight tau_
  std::vector<WeightedKey> popped_scratch_;
};

}  // namespace sas

#endif  // SAS_SAMPLING_STREAM_VAROPT_H_

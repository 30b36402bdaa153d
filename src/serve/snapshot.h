// ServingSnapshot: an immutable, query-accelerated view of one finalized
// Sample, built once at publish time and shared read-only by any number of
// concurrent readers (src/serve/query_service.h owns publication and
// reclamation; this type is just the data).
//
// Acceleration structures, all built in the constructor:
//
//   * A position index sorted by key id and one sorted by x coordinate,
//     each with a prefix array of Horvitz-Thompson adjusted weights — so
//     subset estimates over an id range and box estimates localize their
//     candidates with binary search instead of scanning all s entries.
//   * A Vose alias table over the adjusted weights — one O(1) lookup per
//     sample-proportional entry draw (cf. the alias-table samplers in
//     SNIPPETS.md), for serving-side drawdowns such as "give me k
//     representative flows".
//
// Bit-identity contract: the default estimate paths (EstimateIdRange /
// EstimateBox / EstimateQuery) return bit-identical doubles to the linear
// Sample scans (Sample::EstimateSubset / EstimateBox / EstimateQuery).
// Floating-point addition is not associative, so this is only possible by
// preserving the linear scan's addition order. EstimateIdRange and the
// single-box EstimateBox binary-search a sorted index to find the matching
// positions (O(log s + k) for k matches), then sort those positions back
// into original entry order in caller-provided scratch and sum
// sequentially from zero — O(log s + k log k), output-sensitive instead of
// O(s), and exactly the same additions in exactly the same order.
// Multi-box EstimateQuery is the linear scan itself: Sample::EstimateQuery
// tests each block of 64 entries against every box in one vector pass
// (simd::InBoxesMask), which beats the x-index on unions of kd cells, whose
// wide x ranges make the index visit about s candidates anyway. The *Fast
// variants skip the re-ordering and difference prefix sums instead — true
// O(log s), but re-associated: equal to the linear scan only up to
// ulp-level error (the same contract as the SIMD reductions,
// docs/architecture.md "SIMD dispatch").
//
// Thread-safety: every method is const and the object is deeply immutable
// after construction; any number of threads may query one snapshot
// concurrently, each with its own QueryScratch (scratch is the only
// mutable state, and it is caller-owned).

#ifndef SAS_SERVE_SNAPSHOT_H_
#define SAS_SERVE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/random.h"
#include "core/sample.h"
#include "core/types.h"

namespace sas {

/// Per-reader reusable scratch for the bit-identical estimate paths (the
/// position re-ordering buffer). One per reader thread; queries allocate
/// nothing once the buffer has warmed up to the working-set size.
struct QueryScratch {
  std::vector<std::uint32_t> positions;
};

class ServingSnapshot {
 public:
  /// Deep-copies `sample` and builds every acceleration structure.
  /// O(s log s) once per publish.
  explicit ServingSnapshot(const Sample& sample);

  ServingSnapshot(const ServingSnapshot&) = delete;
  ServingSnapshot& operator=(const ServingSnapshot&) = delete;

  const Sample& sample() const { return sample_; }
  std::size_t size() const { return sample_.size(); }
  double tau() const { return sample_.tau(); }

  /// Total adjusted weight, precomputed at build with the sequential scan —
  /// bit-identical to sample().EstimateTotal().
  Weight TotalWeight() const { return total_weight_; }

  // --- Bit-identical accelerated estimates -------------------------------

  /// HT estimate of the keys with id in [lo, hi). Bit-identical to
  /// sample().EstimateSubset(id in [lo, hi)); O(log s + k log k).
  Weight EstimateIdRange(KeyId lo, KeyId hi, QueryScratch* scratch) const;

  /// HT estimate inside an axis-parallel box. Bit-identical to
  /// sample().EstimateBox(box); candidates are localized by the x-sorted
  /// index, so the cost is O(log s + kx log kx) for kx entries matching the
  /// x interval.
  Weight EstimateBox(const Box& box, QueryScratch* scratch) const;

  /// HT estimate of a multi-rectangle query: sample().EstimateQuery(q)
  /// itself, a vector linear scan (see the file comment for why it does
  /// not use the x-index). `scratch` is not used.
  Weight EstimateQuery(const MultiRangeQuery& q, QueryScratch* scratch) const;

  /// Sampled keys inside the box (exact count, accelerated like
  /// EstimateBox; no scratch needed — counting is order-free).
  std::size_t CountInBox(const Box& box) const;

  // --- O(log s) prefix-difference estimates (re-associated) --------------

  /// Prefix-sum difference over the id-sorted index: O(log s) flat, but the
  /// additions are re-associated — agrees with EstimateIdRange only to
  /// ulp-level accuracy.
  Weight EstimateIdRangeFast(KeyId lo, KeyId hi) const;

  /// x-localized box estimate summed in x-sorted order (no position
  /// re-sort): O(log s + kx), re-associated like EstimateIdRangeFast.
  Weight EstimateBoxFast(const Box& box) const;

  // --- Alias-table drawdowns ---------------------------------------------

  /// One sample-proportional draw: entry index distributed proportionally
  /// to the adjusted weights, O(1) per draw (Vose alias method). Throws
  /// std::logic_error on an empty snapshot.
  std::size_t DrawIndex(Rng* rng) const;

  /// Convenience: the drawn entry itself.
  const WeightedKey& Draw(Rng* rng) const {
    return sample_.entries()[DrawIndex(rng)];
  }

 private:
  /// Adjusted weight of the entry at position `p` (original sample order).
  Weight AdjustedAt(std::uint32_t p) const {
    return sample_.AdjustedWeight(sample_.entries()[p]);
  }

  /// Collects the positions matching the x interval of `box` and passing
  /// the y filter into *out (x-sorted order, unsorted by position).
  void CollectBox(const Box& box, std::vector<std::uint32_t>* out) const;

  /// Sums adjusted weights over *positions after sorting it ascending —
  /// the shared tail of every bit-identical path.
  Weight SumInEntryOrder(std::vector<std::uint32_t>* positions) const;

  Sample sample_;
  Weight total_weight_ = 0.0;

  // Position indexes: by_id_[r] / by_x_[r] is the entry position of rank r
  // under (id, position) / (x, position) order; id_keys_ / x_keys_ mirror
  // the sort keys for cache-friendly binary search; prefix_id_[r] is the
  // adjusted-weight prefix sum over by_id_[0..r) (the *Fast paths).
  std::vector<std::uint32_t> by_id_;
  std::vector<KeyId> id_keys_;
  std::vector<double> prefix_id_;
  std::vector<std::uint32_t> by_x_;
  std::vector<Coord> x_keys_;

  // Vose alias table over the adjusted weights: a draw picks column c
  // uniformly, then returns c with probability accept_[c], alias_[c]
  // otherwise.
  std::vector<double> accept_;
  std::vector<std::uint32_t> alias_;
};

}  // namespace sas

#endif  // SAS_SERVE_SNAPSHOT_H_

// I/O-efficient structure-aware sampling (Section 5).
//
// Two read-only streaming passes over the (unsorted) data with memory
// O~(s):
//   Pass 1: compute the IPPS threshold tau_s (Algorithm 4) and draw a
//           structure-oblivious guide sample S' of size s' = factor * s
//           (stream VarOpt).
//   Between passes: build a partition L of the key domain from S' such that
//           with high probability p(L) <= 1 for every cell.
//   Pass 2: IO-AGGREGATE (Algorithm 3) — maintain one active key per cell;
//           pair-aggregate each arriving key with its cell's active key.
//   Final:  aggregate the remaining active keys following the structure.
//
// One engine in two_pass.cc runs the passes, the IO-AGGREGATE step and the
// final aggregation (the shared settle loop of core/settle.h) for every
// sampler below; each structure contributes only its partition: kd leaves
// over S' (product), the intervals between sorted S' keys (order), range
// cells (disjoint ranges), and lowest selected ancestors (hierarchies; the
// linearized variant runs the order sampler over DFS ranks, Delta < 2).
// Partitions read the structure by stream position: key k is the k-th item
// of the stream, whatever its id.

#ifndef SAS_AWARE_TWO_PASS_H_
#define SAS_AWARE_TWO_PASS_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "core/random.h"
#include "core/sample.h"
#include "core/types.h"
#include "structure/hierarchy.h"

namespace sas {

struct TwoPassConfig {
  /// Oversampling factor: s' = factor * s (the paper uses 5).
  double sprime_factor = 5.0;
};

/// Streaming two-pass summarizer for 2-D product structures. Call Pass1
/// over every item, then BeginPass2, then Pass2 over every item (any
/// order), then Finalize. The convenience function below wraps this for
/// in-memory vectors, iterating them like a stream.
class TwoPassProductSampler {
 public:
  TwoPassProductSampler(double s, TwoPassConfig cfg, Rng rng);
  ~TwoPassProductSampler();  // out-of-line: State is incomplete here

  void Pass1(const WeightedKey& item);

  /// Builds the partition from the pass-1 state. Memory O(s').
  void BeginPass2();

  void Pass2(const WeightedKey& item);

  /// Aggregates the remaining active keys along the kd-tree and returns the
  /// final sample of size (essentially) s.
  Sample Finalize();

  /// The pass-1 threshold (0 before BeginPass2).
  double tau() const;

  /// Number of partition cells (kd leaves over the guide sample; 0 before
  /// BeginPass2).
  std::size_t num_cells() const;

 private:
  // The two-pass engine and the kd partition (defined in two_pass.cc).
  struct State;
  std::unique_ptr<State> state_;
};

/// Convenience wrapper: runs both passes over `items` and returns the
/// sample together with the IPPS probabilities (for discrepancy checks).
Sample TwoPassProductSample(const std::vector<WeightedKey>& items, double s,
                            const TwoPassConfig& cfg, Rng* rng);

/// Two-pass summarizer for order structures (1-D, ordered by pt.x): the
/// partition consists of the intervals between consecutive guide-sample
/// keys; final aggregation scans cells left to right (Delta < 2 w.h.p.).
Sample TwoPassOrderSample(const std::vector<WeightedKey>& items, double s,
                          const TwoPassConfig& cfg, Rng* rng);

/// Two-pass summarizer for disjoint ranges (Section 5): one cell per range
/// represented in the guide sample, plus one cell per maximal run of
/// unrepresented range ids between represented ones. Delta < 1 per range
/// w.h.p. range_of[k] is the range, in [0, num_ranges), of items[k].
Sample TwoPassDisjointSample(const std::vector<WeightedKey>& items,
                             const std::vector<int>& range_of,
                             int num_ranges, double s,
                             const TwoPassConfig& cfg, Rng* rng);

/// Which Section 5 partition the hierarchy two-pass uses.
enum class HierarchyTwoPassVariant {
  kLinearize,  // totally order keys by DFS rank; Delta < 2 w.h.p.
  kAncestors,  // cells = lowest guide-selected ancestors; Delta < 1 w.h.p.
};

/// Two-pass summarizer for hierarchies (Section 5). items[k] must be the
/// key at hierarchy leaf leaf_of_key(k).
Sample TwoPassHierarchySample(const std::vector<WeightedKey>& items,
                              const Hierarchy& h, double s,
                              const TwoPassConfig& cfg,
                              HierarchyTwoPassVariant variant, Rng* rng);

}  // namespace sas

#endif  // SAS_AWARE_TWO_PASS_H_

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
// Every sampler below reads the caller's in-memory stream twice through one
// driver in two_pass.cc (RunTwoPass), which runs the passes, the
// IO-AGGREGATE step and the final aggregation (the shared settle loop of
// core/settle.h); beside the caller's vector the passes hold O(s') state.
// Each structure contributes only its partition: kd leaves over S'
// (product), the intervals between sorted S' keys (order), range cells
// (disjoint ranges), and lowest selected ancestors (hierarchies; the
// linearized variant runs the order sampler over DFS ranks, Delta < 2).
// Partitions read the structure by stream position: key k is the k-th item
// of the stream, whatever its id.

#ifndef SAS_AWARE_TWO_PASS_H_
#define SAS_AWARE_TWO_PASS_H_

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

/// Two-pass summarizer for 2-D product structures: the partition is the
/// leaves of a kd-tree over the guide sample, settled bottom-up along it.
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

/// Which Section 5 partition the hierarchy two-pass uses (also the
/// registry's SummarizerConfig::hierarchy_partition).
enum class HierarchyPartition {
  kLinearize,  // totally order keys by DFS rank; Delta < 2 w.h.p.
  kAncestors,  // cells = lowest guide-selected ancestors; Delta < 1 w.h.p.
};

/// Two-pass summarizer for hierarchies (Section 5). items[k] must be the
/// key at hierarchy leaf leaf_of_key(k).
Sample TwoPassHierarchySample(const std::vector<WeightedKey>& items,
                              const Hierarchy& h, double s,
                              const TwoPassConfig& cfg,
                              HierarchyPartition partition, Rng* rng);

}  // namespace sas

#endif  // SAS_AWARE_TWO_PASS_H_

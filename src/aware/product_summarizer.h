// Main-memory structure-aware VarOpt sampling for product structures
// (Section 4, general case):
//   1. compute IPPS probabilities and set aside every key with p = 1;
//   2. build KD-HIERARCHY over the remaining keys (mass = probability),
//      but stop splitting a cell once its mass is <= 1: it becomes one
//      leaf, chained in the order of its next split axis. Aggregation
//      leaves such a cell at most one open key, and that key is key i with
//      probability p_i / m whatever the chain order, so the cut changes
//      the draws but neither the sampling distribution nor any node's
//      floor/ceil count of sampled keys;
//   3. aggregate bottom-up along the kd-tree (lowest-LCA rule).
//
// The discrepancy on an axis-parallel box R behaves like a VarOpt sample on
// a subset of expected size mu <= min{p(R), 2d s^((d-1)/d)} (Appendix E).
//
// One summarize body serves both entry points: ProductSummarizeInto over
// the 2-D points of WeightedKey items (the evaluation datasets) and
// ProductSummarizeNdInto over flat d-dimensional coordinates. On the same
// points the two are the same draw for draw.

#ifndef SAS_AWARE_PRODUCT_SUMMARIZER_H_
#define SAS_AWARE_PRODUCT_SUMMARIZER_H_

#include <cstddef>
#include <vector>

#include "aware/kd_hierarchy.h"
#include "aware/summarize_scratch.h"
#include "core/random.h"
#include "core/types.h"

namespace sas {

/// Low-level: aggregates the open entries of *probs (indexed like the build
/// items of `tree`) bottom-up along the kd-tree: a settle (core/settle.h)
/// in which each leaf owns its item_order() run. On return all entries are
/// set. The per-node carries come from `scratch` (allocation-free when
/// warm).
void KdAggregate(std::vector<double>* probs, const KdHierarchy& tree,
                 Rng* rng, SummarizeScratch* scratch);

/// Draws a structure-aware VarOpt sample of (expected) size s over the 2-D
/// points of `items`, with all working memory from `scratch` (see
/// aware/summarize_scratch.h for the reuse contract). out->chosen lists the
/// certain inclusions (p == 1) in ascending index order first, then the
/// aggregation picks in open-subset order.
void ProductSummarizeInto(const std::vector<WeightedKey>& items, double s,
                          Rng* rng, SummarizeScratch* scratch,
                          SummarizeOutput* out);

/// Result of the d-dimensional summarizer.
struct ResultNd {
  double tau = 0.0;
  std::vector<double> probs;        // snapped initial IPPS probabilities
  std::vector<std::size_t> chosen;  // indices of sampled keys
};

/// Structure-aware VarOpt sample of (expected) size s over d-dimensional
/// points (flat coords, point i at coords[i*dims .. i*dims+dims), one
/// weight per point), with the same sample order and reuse contract as
/// ProductSummarizeInto.
void ProductSummarizeNdInto(const std::vector<Coord>& coords, int dims,
                            const std::vector<Weight>& weights, double s,
                            Rng* rng, SummarizeScratch* scratch,
                            ResultNd* out);

}  // namespace sas

#endif  // SAS_AWARE_PRODUCT_SUMMARIZER_H_

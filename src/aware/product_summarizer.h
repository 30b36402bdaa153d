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
// One entry point serves every d: ProductSummarizeInto reads item i's
// point from its Point2D at d <= 2 (d = 1 uses x only) and from flat
// coordinates beside the items at d > 2, so `product` (d = 2) and `nd`
// draw the same sample on the same points and seed.

#ifndef SAS_AWARE_PRODUCT_SUMMARIZER_H_
#define SAS_AWARE_PRODUCT_SUMMARIZER_H_

#include <span>
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

/// Draws a structure-aware VarOpt sample of (expected) size s over the
/// points of `items` in `dims` axes: item i's point is
/// coords[i*dims .. i*dims+dims) when dims > 2 (coords holds one point per
/// item) and its `pt` otherwise (coords is then not read). All working
/// memory comes from `scratch` (see aware/summarize_scratch.h for the reuse
/// contract). out->chosen lists the certain inclusions (p == 1) in
/// ascending index order first, then the aggregation picks in open-subset
/// order.
void ProductSummarizeInto(const std::vector<WeightedKey>& items, int dims,
                          std::span<const Coord> coords, double s, Rng* rng,
                          SummarizeScratch* scratch, SummarizeOutput* out);

}  // namespace sas

#endif  // SAS_AWARE_PRODUCT_SUMMARIZER_H_

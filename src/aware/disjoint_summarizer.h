// Structure-aware VarOpt sampling for disjoint ranges (Section 3).
//
// Disjoint ranges are the flat 2-level special case of a hierarchy: pair
// selection first exhausts pairs inside the same range, then aggregates the
// per-range leftovers across ranges. The number of samples in every range
// is the floor or ceiling of its expectation (Delta < 1).

#ifndef SAS_AWARE_DISJOINT_SUMMARIZER_H_
#define SAS_AWARE_DISJOINT_SUMMARIZER_H_

#include <vector>

#include "aware/summarize_scratch.h"
#include "core/random.h"
#include "core/types.h"

namespace sas {

/// Low-level: aggregates open entries of *probs where range_of[i] gives the
/// range of entry i (values in [0, num_ranges)). On return every entry is
/// set. The open entries are bucketed per range by counting sort into
/// `scratch` (allocation-free when warm) and settled range by range in
/// ascending range order, then the ranges' leftovers are chained.
void DisjointAggregate(std::vector<double>* probs,
                       const std::vector<int>& range_of, int num_ranges,
                       Rng* rng, SummarizeScratch* scratch);

/// Draws a structure-aware VarOpt sample of (expected) size s for keys
/// partitioned into disjoint ranges, with all working memory from
/// `scratch` (see aware/summarize_scratch.h for the reuse contract).
void DisjointSummarizeInto(const std::vector<WeightedKey>& items,
                           const std::vector<int>& range_of, int num_ranges,
                           double s, Rng* rng, SummarizeScratch* scratch,
                           SummarizeOutput* out);

}  // namespace sas

#endif  // SAS_AWARE_DISJOINT_SUMMARIZER_H_

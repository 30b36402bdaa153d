// VarOpt sample merge (mergeability of IPPS/VarOpt summaries).
//
// A VarOpt sample answers subset-sum queries unbiasedly via the adjusted
// weights max(w_i, tau). Merging re-samples the union of the inputs'
// entries, *carrying each entry at its adjusted weight*: by the law of
// total expectation, an unbiased sample of unbiased estimates is itself
// unbiased for the original data. The merged threshold is re-solved with
// the exact IPPS machinery (core/ipps) and entries are settled by random
// pair aggregation (core/pair_aggregate), i.e. the paper's own
// structure-oblivious VarOpt step applied to the combined entry set.
//
// This is the primitive behind the sharded backend (api/sharded.h) and
// distributed aggregation trees: shards sample independently, merges
// combine pairwise or N-way in any order, and every intermediate result is
// a valid Sample over the same query interface.

#ifndef SAS_CORE_MERGE_H_
#define SAS_CORE_MERGE_H_

#include <cstddef>
#include <vector>

#include "core/ipps.h"
#include "core/random.h"
#include "core/sample.h"

namespace sas {

/// Reusable workspace for the merge's intermediate buffers (combined
/// entries, weights, inclusion probabilities, shuffle order, and the IPPS
/// scratch). A caller that merges repeatedly — the windowed wrapper merges
/// at every seal, flip, and window rebuild — keeps one scratch alive and
/// pays no steady-state allocations for them. A scratch
/// may be reused freely across calls but not shared by concurrent calls.
struct MergeScratch {
  std::vector<WeightedKey> entries;
  std::vector<Weight> weights;
  std::vector<double> probs;
  std::vector<std::size_t> order;
  IppsScratch ipps;
};

/// N-way merge into one sample of (expected) size s: one joint threshold
/// resolution over all parts' entries, statistically preferable to a
/// cascade of pairwise merges (one re-sampling round instead of N-1).
/// Entries are combined at their adjusted weights, so the result is
/// unbiased for the union of the data the inputs summarized. When the
/// inputs together hold at most s entries, everything is kept (threshold 0)
/// and no randomness is consumed. Requires s >= 1.
Sample MergeAllSamples(const std::vector<Sample>& parts, std::size_t s,
                       Rng* rng);

/// Pointer-flavored N-way merge, the same draws as MergeAllSamples, for
/// callers that assemble their parts from non-contiguous storage (the
/// windowed wrapper merges samples held on its two stacks) and want buffer
/// reuse across merges. `scratch` may be nullptr (per-call buffers are then
/// used). Null part pointers are not allowed; zero-entry parts are. The
/// threshold solve and the settle are timed by the spans merge.solve_tau
/// and merge.settle.
Sample MergeSampleParts(const Sample* const* parts, std::size_t num_parts,
                        std::size_t s, Rng* rng, MergeScratch* scratch);

}  // namespace sas

#endif  // SAS_CORE_MERGE_H_

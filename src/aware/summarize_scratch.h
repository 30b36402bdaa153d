// Reusable per-build workspace for the structure-aware summarizers.
//
// Every *SummarizeInto entry point (order / hierarchy / disjoint / product
// / nd) routes ALL of its working memory — extracted weights, aggregation
// probabilities, sort orders, chain buckets, kd open subsets, and the kd
// tree storage itself — through one of these, so a caller that keeps a
// scratch and an output alive rebuilds summaries with zero steady-state
// heap allocations (pinned by BM_SummarizerRebuild's allocs_per_iter
// counter in bench/micro_core.cc). The vectors grow to the largest build
// seen and keep their capacity; the kd arena does the same.
//
// Ownership mirrors KdBuildScratch / IppsScratch: a scratch may be reused
// across any number of builds but serves one build at a time, and nothing
// inside it outlives the build that filled it. The scratch-less
// convenience wrappers (OrderSummarize etc.) keep one thread-local
// instance, which the sharded backend's one-thread-per-shard workers
// exercise safely.

#ifndef SAS_AWARE_SUMMARIZE_SCRATCH_H_
#define SAS_AWARE_SUMMARIZE_SCRATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "aware/kd_hierarchy.h"
#include "aware/kd_scratch.h"
#include "core/ipps.h"
#include "core/types.h"

namespace sas {

struct SummarizeScratch {
  IppsScratch ipps;      // SolveTau partition buffer
  KdBuildScratch kd;     // kd build arena (product / nd)
  KdHierarchy tree;      // recycled kd tree storage (product / nd)

  std::vector<Weight> weights;        // extracted item weights
  std::vector<double> work;           // aggregated probabilities
  std::vector<double> mass;           // open-subset masses (product / nd)
  std::vector<Coord> xs;              // order: sort coordinates
  std::vector<Coord> coords;          // open-subset flat coordinates
  std::vector<std::size_t> order;     // order: sorted positions
  std::vector<std::size_t> open;      // open item indices (product / nd)
  std::vector<std::size_t> leftover;  // per-node chain carries
  std::vector<std::size_t> entries;   // per-node open entries / leftovers
  std::vector<std::size_t> bucket_start;  // disjoint: bucket offsets
  std::vector<std::size_t> bucket_items;  // disjoint: bucketed open indices
};

/// Caller-owned result of an Into-style summarization; reusable across
/// builds the same way the scratch is (ProductSummarizeNdInto reuses its
/// ResultNd likewise). Indices refer to the build input.
struct SummarizeOutput {
  double tau = 0.0;
  std::vector<double> probs;          // snapped initial IPPS probabilities
  std::vector<std::uint32_t> chosen;  // indices of sampled keys, ascending
};

}  // namespace sas

#endif  // SAS_AWARE_SUMMARIZE_SCRATCH_H_

// Reusable per-build workspace for the structure-aware summarizers.
//
// Every *SummarizeInto entry point (order / hierarchy / disjoint / product
// / nd) routes ALL of its working memory — extracted weights, aggregation
// probabilities, sort orders, chain buckets, kd open subsets, and the kd
// tree storage itself — through one of these, so a caller that keeps a
// scratch and an output alive rebuilds summaries with zero steady-state
// heap allocations (pinned by the allocs_per_iter counters of
// BM_OrderRebuild and BM_ProductRebuild in bench/micro_core.cc). The
// vectors grow to the largest build seen and keep their capacity; the kd
// arena does the same.
//
// Ownership mirrors KdBuildScratch / IppsScratch: a scratch may be reused
// across any number of builds but serves one build at a time, and nothing
// inside it outlives the build that filled it.

#ifndef SAS_AWARE_SUMMARIZE_SCRATCH_H_
#define SAS_AWARE_SUMMARIZE_SCRATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "aware/kd_hierarchy.h"
#include "aware/kd_scratch.h"
#include "core/ipps.h"
#include "core/pair_aggregate.h"
#include "core/settle.h"
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
  std::vector<std::size_t> bucket_start;  // disjoint: bucket offsets
  std::vector<std::size_t> bucket_items;  // disjoint: bucketed open indices
  SettleScratch settle;               // per-node chain carries
};

/// Caller-owned result of an Into-style summarization; reusable across
/// builds the same way the scratch is. Indices refer to the build input.
struct SummarizeOutput {
  double tau = 0.0;
  std::vector<double> probs;          // snapped initial IPPS probabilities
  std::vector<std::uint32_t> chosen;  // indices of sampled keys
};

/// The prologue of every *SummarizeInto: the items' weights, the exact
/// threshold tau_s and the snapped IPPS probabilities into *out.
inline void SnappedIppsInto(const std::vector<WeightedKey>& items, double s,
                            SummarizeScratch* scratch, SummarizeOutput* out) {
  auto& weights = scratch->weights;
  weights.clear();
  weights.reserve(items.size());
  for (const auto& it : items) weights.push_back(it.weight);
  out->tau = SolveTau(weights, s, &scratch->ipps);
  IppsProbabilities(weights, out->tau, &out->probs);
  for (auto& q : out->probs) q = SnapProbability(q);
}

/// The body of the order / hierarchy / disjoint *SummarizeInto: the
/// prologue, a copy of the probabilities settled by
/// `settle(&scratch->work)`, and out->chosen = the positions the settle set
/// to 1, ascending.
template <class SettleFn>
void SummarizeWith(const std::vector<WeightedKey>& items, double s,
                   SummarizeScratch* scratch, SummarizeOutput* out,
                   SettleFn settle) {
  SnappedIppsInto(items, s, scratch, out);
  auto& work = scratch->work;
  work.assign(out->probs.begin(), out->probs.end());
  settle(&work);
  out->chosen.clear();
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (work[i] == 1.0) out->chosen.push_back(static_cast<std::uint32_t>(i));
  }
}

}  // namespace sas

#endif  // SAS_AWARE_SUMMARIZE_SCRATCH_H_

// Scratch-less summarize and aggregate calls for tests: each keeps one
// thread-local SummarizeScratch and returns its result by value. The
// library's builders call the *SummarizeInto entry points and the scratch
// overloads of the *Aggregate functions with their own scratch; these
// wrappers give tests the one-line form with the same draws.

#ifndef SAS_TESTS_ORACLES_SUMMARIZE_H_
#define SAS_TESTS_ORACLES_SUMMARIZE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "aware/disjoint_summarizer.h"
#include "aware/hierarchy_summarizer.h"
#include "aware/kd_hierarchy.h"
#include "aware/order_summarizer.h"
#include "aware/product_summarizer.h"
#include "aware/summarize_scratch.h"
#include "core/random.h"
#include "core/sample.h"
#include "core/types.h"
#include "structure/hierarchy.h"

namespace sas {

/// Result of a structure-aware summarization: the sample plus the initial
/// IPPS probabilities (needed by discrepancy evaluation; indexed like the
/// input items).
struct SummarizeResult {
  Sample sample;
  std::vector<double> probs;
  double tau = 0.0;
};

/// Packs an index-based SummarizeOutput over `items` into a result.
inline SummarizeResult ToResult(const std::vector<WeightedKey>& items,
                                SummarizeOutput out) {
  SummarizeResult r;
  r.tau = out.tau;
  r.probs = std::move(out.probs);
  std::vector<WeightedKey> chosen;
  chosen.reserve(out.chosen.size());
  for (std::uint32_t i : out.chosen) chosen.push_back(items[i]);
  r.sample = Sample(out.tau, std::move(chosen));
  return r;
}

/// OrderSummarizeInto's draws and sample.
inline SummarizeResult OrderSummarize(const std::vector<WeightedKey>& items,
                                      double s, Rng* rng) {
  thread_local SummarizeScratch scratch;
  SummarizeOutput out;
  OrderSummarizeInto(items, s, rng, &scratch, &out);
  return ToResult(items, std::move(out));
}

/// HierarchySummarizeInto's draws and sample.
inline SummarizeResult HierarchySummarize(
    const std::vector<WeightedKey>& items, const Hierarchy& h, double s,
    Rng* rng) {
  thread_local SummarizeScratch scratch;
  SummarizeOutput out;
  HierarchySummarizeInto(items, h, s, rng, &scratch, &out);
  return ToResult(items, std::move(out));
}

/// DisjointSummarizeInto's draws and sample.
inline SummarizeResult DisjointSummarize(
    const std::vector<WeightedKey>& items, const std::vector<int>& range_of,
    int num_ranges, double s, Rng* rng) {
  thread_local SummarizeScratch scratch;
  SummarizeOutput out;
  DisjointSummarizeInto(items, range_of, num_ranges, s, rng, &scratch, &out);
  return ToResult(items, std::move(out));
}

/// ProductSummarizeInto's draws and sample order.
inline SummarizeResult ProductSummarize(const std::vector<WeightedKey>& items,
                                        double s, Rng* rng) {
  thread_local SummarizeScratch scratch;
  SummarizeOutput out;
  ProductSummarizeInto(items, s, rng, &scratch, &out);
  return ToResult(items, std::move(out));
}

/// ProductSummarizeNdInto's draws and sample order.
inline ResultNd ProductSummarizeNd(const std::vector<Coord>& coords, int dims,
                                   const std::vector<Weight>& weights,
                                   double s, Rng* rng) {
  thread_local SummarizeScratch scratch;
  ResultNd out;
  ProductSummarizeNdInto(coords, dims, weights, s, rng, &scratch, &out);
  return out;
}

/// The aggregate functions with a thread-local scratch.
inline void HierarchyAggregate(std::vector<double>* probs, const Hierarchy& h,
                               Rng* rng) {
  thread_local SummarizeScratch scratch;
  HierarchyAggregate(probs, h, rng, &scratch);
}

inline void DisjointAggregate(std::vector<double>* probs,
                              const std::vector<int>& range_of,
                              int num_ranges, Rng* rng) {
  thread_local SummarizeScratch scratch;
  DisjointAggregate(probs, range_of, num_ranges, rng, &scratch);
}

inline void KdAggregate(std::vector<double>* probs, const KdHierarchy& tree,
                        Rng* rng) {
  thread_local SummarizeScratch scratch;
  KdAggregate(probs, tree, rng, &scratch);
}

}  // namespace sas

#endif  // SAS_TESTS_ORACLES_SUMMARIZE_H_

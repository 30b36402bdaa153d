// Sample: the summary object produced by every sampling scheme.
//
// A Sample stores the selected keys (with their original weights and domain
// coordinates) and the IPPS threshold tau. Query answering uses the
// Horvitz-Thompson estimator (Appendix A, Eq. 1): the adjusted weight of a
// sampled key is max(w_i, tau); the estimate of any subset is the sum of
// adjusted weights of sampled keys in the subset.

#ifndef SAS_CORE_SAMPLE_H_
#define SAS_CORE_SAMPLE_H_

#include <cstddef>
#include <vector>

#include "core/types.h"

namespace sas {

class Sample {
 public:
  Sample() = default;
  Sample(double tau, std::vector<WeightedKey> entries)
      : tau_(tau), entries_(std::move(entries)) {}

  double tau() const { return tau_; }
  const std::vector<WeightedKey>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }

  /// Horvitz-Thompson adjusted weight for a sampled key: w_i / p_i, which
  /// under IPPS equals w_i when w_i >= tau and tau otherwise.
  Weight AdjustedWeight(const WeightedKey& k) const {
    return k.weight >= tau_ ? k.weight : tau_;
  }

  /// Unbiased estimate of the total weight inside an axis-parallel box.
  Weight EstimateBox(const Box& box) const;

  /// Unbiased estimate for a multi-rectangle query (the query generators
  /// produce disjoint rectangles; an entry in several overlapping ones is
  /// counted once).
  Weight EstimateQuery(const MultiRangeQuery& q) const;

  /// Unbiased estimate of the total data weight.
  Weight EstimateTotal() const;

  /// Number of sampled keys inside the box (used by discrepancy checks).
  std::size_t CountInBox(const Box& box) const;

  /// Unbiased estimate over an arbitrary subset given by a predicate on the
  /// sampled keys — the "flexible summaries" property of samples.
  template <typename Pred>
  Weight EstimateSubset(Pred&& pred) const {
    Weight total = 0.0;
    for (const auto& k : entries_) {
      if (pred(k)) total += AdjustedWeight(k);
    }
    return total;
  }

 private:
  /// Sum of adjusted weights of the entries in any of boxes[0, nb), in
  /// entry order (the body of EstimateBox and EstimateQuery).
  Weight SumInBoxes(const Box* boxes, std::size_t nb) const;

  double tau_ = 0.0;
  std::vector<WeightedKey> entries_;
};

}  // namespace sas

#endif  // SAS_CORE_SAMPLE_H_

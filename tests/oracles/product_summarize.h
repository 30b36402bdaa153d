// Scratch-less product / nd summarize calls for tests: each keeps one
// thread-local SummarizeScratch and returns its result by value. The
// library's builders call the *Into entry points of
// aware/product_summarizer.h with their own scratch; these wrappers give
// tests the one-line form with the same draws.

#ifndef SAS_TESTS_ORACLES_PRODUCT_SUMMARIZE_H_
#define SAS_TESTS_ORACLES_PRODUCT_SUMMARIZE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "aware/order_summarizer.h"
#include "aware/product_summarizer.h"
#include "aware/summarize_scratch.h"
#include "core/random.h"
#include "core/sample.h"
#include "core/types.h"

namespace sas {

/// Draws a structure-aware VarOpt sample of (expected) size s over the 2-D
/// points of `items` (ProductSummarizeInto's draws and sample order).
inline SummarizeResult ProductSummarize(const std::vector<WeightedKey>& items,
                                        double s, Rng* rng) {
  thread_local SummarizeScratch scratch;
  SummarizeOutput out;
  ProductSummarizeInto(items, s, rng, &scratch, &out);

  SummarizeResult r;
  r.tau = out.tau;
  r.probs = std::move(out.probs);
  std::vector<WeightedKey> chosen;
  chosen.reserve(out.chosen.size());
  for (std::uint32_t i : out.chosen) chosen.push_back(items[i]);
  r.sample = Sample(out.tau, std::move(chosen));
  return r;
}

/// Structure-aware VarOpt sample of (expected) size s over d-dimensional
/// flat coordinates (ProductSummarizeNdInto's draws and sample order).
inline ResultNd ProductSummarizeNd(const std::vector<Coord>& coords, int dims,
                                   const std::vector<Weight>& weights,
                                   double s, Rng* rng) {
  thread_local SummarizeScratch scratch;
  ResultNd out;
  ProductSummarizeNdInto(coords, dims, weights, s, rng, &scratch, &out);
  return out;
}

}  // namespace sas

#endif  // SAS_TESTS_ORACLES_PRODUCT_SUMMARIZE_H_

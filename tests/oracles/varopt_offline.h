// Offline structure-oblivious VarOpt sampling via probabilistic
// aggregation: the paper's own framing of VarOpt (Section 2). Compute IPPS
// probabilities for the exact threshold tau_s, then settle them in a
// uniformly random order (core/settle.h's OrderAggregate over a shuffled
// order), which ignores structure and gives the classic VarOpt
// distribution with sample size exactly s. A reference sampler for tests
// and benches; the library's structure-oblivious samplers are the streaming
// `obliv` key and the merge (core/merge.h), which settles the same way.

#ifndef SAS_TESTS_ORACLES_VAROPT_OFFLINE_H_
#define SAS_TESTS_ORACLES_VAROPT_OFFLINE_H_

#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

#include "core/ipps.h"
#include "core/pair_aggregate.h"
#include "core/random.h"
#include "core/sample.h"
#include "core/settle.h"
#include "core/types.h"

namespace sas {

/// Draws a VarOpt sample of size exactly floor/ceil of s (exactly s when the
/// IPPS probabilities sum to the integer s, which holds for the exact
/// offline threshold).
inline Sample VarOptOffline(const std::vector<WeightedKey>& items, double s,
                            Rng* rng) {
  std::vector<Weight> weights;
  weights.reserve(items.size());
  for (const auto& it : items) weights.push_back(it.weight);
  const double tau = SolveTau(weights, s);

  std::vector<double> probs;
  IppsProbabilities(weights, tau, &probs);
  for (auto& q : probs) q = SnapProbability(q);

  // Random aggregation order = structure-oblivious pair selection.
  std::vector<std::size_t> order(items.size());
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng->NextBounded(i)]);
  }
  OrderAggregate(&probs, order, rng);

  std::vector<WeightedKey> chosen;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (probs[i] == 1.0) chosen.push_back(items[i]);
  }
  return Sample(tau, std::move(chosen));
}

}  // namespace sas

#endif  // SAS_TESTS_ORACLES_VAROPT_OFFLINE_H_

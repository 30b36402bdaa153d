// The association SolveTau sums weights in (simd::ThresholdPass): weight i
// into lane i mod 4 over the full groups of four, the tail into lane 0,
// then (l0 + l1) + (l2 + l3). Written out one weight at a time, so the
// kernel's levels can be checked against it. An all-equal input's tau is
// exactly LaneSum(w) / s.

#ifndef SAS_TESTS_ORACLES_LANE_SUM_H_
#define SAS_TESTS_ORACLES_LANE_SUM_H_

#include <cstddef>
#include <vector>

#include "core/types.h"

namespace sas {

/// Sum of w[i] over the i with keep(i), in SolveTau's association; the
/// skipped weights still hold their lanes.
template <class Keep>
double LaneSum(const std::vector<Weight>& w, Keep keep) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t full = w.size() / 4 * 4;
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (keep(i)) lane[i < full ? i % 4 : 0] += w[i];
  }
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

inline double LaneSum(const std::vector<Weight>& w) {
  return LaneSum(w, [](std::size_t) { return true; });
}

}  // namespace sas

#endif  // SAS_TESTS_ORACLES_LANE_SUM_H_

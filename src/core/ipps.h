// IPPS (Inclusion Probability Proportional to Size) threshold computation.
//
// A sampling scheme is IPPS for threshold tau when key i is included with
// probability p_i = min{1, w_i / tau}. For a target expected sample size s,
// tau_s solves sum_i min{1, w_i / tau_s} = s (Appendix A of the paper).
//
// Two implementations are provided:
//  * SolveTau        — exact offline solver over a weight vector: Newton
//                      passes from above, each one branch-free
//                      simd::ThresholdPass, with a selection-search guard
//                      for inputs where Newton stalls. It runs in every
//                      sample merge and every summary build, so its
//                      constant factor matters.
//  * StreamTau       — Algorithm 4: one-pass streaming tracker using a heap
//                      of at most s weights and O(s) memory.

#ifndef SAS_CORE_IPPS_H_
#define SAS_CORE_IPPS_H_

#include <cstddef>
#include <queue>
#include <vector>

#include "core/types.h"

namespace sas {

/// Inclusion probability of weight w under threshold tau. A threshold of 0
/// means "include everything" (arises when s >= number of keys).
inline double IppsProbability(Weight w, double tau) {
  if (tau <= 0.0) return w > 0.0 ? 1.0 : 0.0;
  const double p = w / tau;
  return p >= 1.0 ? 1.0 : p;
}

/// Reusable workspace for SolveTau's guard, which compacts the weights it
/// searches into `buf`. The buffer grows to the largest input seen and is
/// then reused, so a caller that keeps one scratch alive pays no
/// allocations in steady state. A scratch may be reused freely across calls
/// but must not be shared by concurrent calls.
struct IppsScratch {
  std::vector<Weight> buf;
};

/// Exact offline IPPS threshold: returns tau such that
/// sum_i min{1, w_i/tau} == s. If s >= (number of positive weights), returns
/// 0 (every key has probability 1). Requires s > 0 and no negative weight.
///
/// Newton passes from x0 = total/s, each O(n) and branch-free: a pass at x
/// splits the weights into heavy (w >= x, count c) and light (sum L), and
/// the step is x <- L / (s - c). It stops at the cut where largest light
/// < L / (s - c) <= smallest heavy, usually after 3-4 passes, the first of
/// which sums the total. After 8
/// passes, or a step that does not lower x, the guard compacts the weights
/// below x and runs a quickselect-style search on them (expected O(n),
/// counted in `sas.ipps.tau_fallbacks`). Either way tau is L / (s - c)
/// from one pass at the final cut, summed in an association that is the
/// same on every SIMD level, so tau does not depend on the level. Zero and
/// NaN weights count as neither heavy nor light.
double SolveTau(const Weight* weights, std::size_t n, double s,
                IppsScratch* scratch);

/// Convenience overloads. The vector-only form uses an internal thread-local
/// scratch, so it is also allocation-free in steady state.
double SolveTau(const std::vector<Weight>& weights, double s,
                IppsScratch* scratch);
double SolveTau(const std::vector<Weight>& weights, double s);

/// Fills `probs` with min{1, w_i/tau}.
void IppsProbabilities(const std::vector<Weight>& weights, double tau,
                       std::vector<double>* probs);

/// Algorithm 4 (STREAM-tau): maintains the IPPS threshold for expected
/// sample size s over a stream of weights, with O(s) memory.
///
/// Invariant: H holds weights currently >= tau (at most s of them), L is the
/// total weight of everything else, and tau = L / (s - |H|).
class StreamTau {
 public:
  explicit StreamTau(double s);

  /// Processes one stream weight.
  void Push(Weight w);

  /// Current threshold estimate (exact for the prefix seen so far).
  double tau() const { return tau_; }

  /// Number of weights currently held in the heap (the "heavy" candidates).
  std::size_t heap_size() const { return heap_.size(); }

  /// Total number of weights pushed.
  std::size_t count() const { return count_; }

 private:
  double s_;
  double tau_ = 0.0;
  double light_total_ = 0.0;  // L in Algorithm 4
  std::size_t count_ = 0;
  // Min-heap of heavy weights (H in Algorithm 4).
  std::priority_queue<Weight, std::vector<Weight>, std::greater<>> heap_;
};

}  // namespace sas

#endif  // SAS_CORE_IPPS_H_

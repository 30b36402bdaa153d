#include "core/ipps.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/simd.h"

namespace sas {

namespace {

/// Numerical fallback: bisection on the monotone function
/// f(tau) = sum_i min(1, w_i/tau) - s over the positive weights in
/// buf[0..n). Only reached when floating-point near-ties defeat the exact
/// candidate search.
double BisectTau(const Weight* buf, std::size_t n, double total, double s) {
  double lo = 0.0, hi = total / s + 1.0;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    double f = 0.0;
    for (std::size_t i = 0; i < n; ++i) f += std::min(1.0, buf[i] / mid);
    if (f > s) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

// With the weights sorted descending and rest[t] = sum of sorted[t..n-1],
// the threshold for t certainly-included keys is tau(t) = rest[t] / (s - t);
// it is consistent iff sorted[t-1] >= tau(t) and sorted[t] < tau(t). The
// smallest t whose *lower* condition holds automatically satisfies the upper
// one (if t-1 fails its lower check, sorted[t-1] * (s-t+1) >= rest[t-1]
// rearranges to sorted[t-1] >= tau(t)), and the lower condition is monotone
// in t — so the consistent t can be found by partition-based binary search
// over an unsorted buffer instead of a full sort: expected O(n) and
// allocation-free against a warm scratch. The consistent t never exceeds
// floor(s), so the first selection goes straight to rank floor(s): one O(n)
// pass leaves at most floor(s) + 1 candidates for the halving rounds.
double SolveTau(const Weight* weights, std::size_t n_in, double s,
                IppsScratch* scratch) {
  assert(s > 0.0);
  auto& buf = scratch->buf;
  buf.resize(n_in);
  std::size_t n = 0;
  double total = 0.0;
  Weight wmin = 0.0, wmax = 0.0;
  for (std::size_t i = 0; i < n_in; ++i) {
    const Weight w = weights[i];
    assert(w >= 0.0);
    if (w > 0.0) {
      if (n == 0) {
        wmin = wmax = w;
      } else {
        wmin = w < wmin ? w : wmin;
        wmax = w > wmax ? w : wmax;
      }
      total += w;
      buf[n++] = w;
    }
  }
  if (static_cast<double>(n) <= s) return 0.0;  // everyone has probability 1
  if (wmin == wmax) return total / s;  // all-equal: tau = n*w/s, exactly

  // Partition search: t* lies in [lo, hi]; elements left of lo are known
  // heavy (among the t* largest), elements right of hi are known light with
  // sum right_sum and maximum right_max.
  std::size_t lo = 0, hi = n;
  double right_sum = 0.0;
  Weight right_max = 0.0;
  constexpr std::size_t kSmallWindow = 32;
  // floor(s) < n here, since n > s.
  std::size_t mid = static_cast<std::size_t>(s);
  while (hi - lo > kSmallWindow) {
    std::nth_element(buf.begin() + lo, buf.begin() + mid, buf.begin() + hi,
                     std::greater<>());
    const double rest = simd::SuffixSum(buf.data(), mid, hi, right_sum);
    const double denom = s - static_cast<double>(mid);
    // t* <= floor(s) always, so a non-positive denominator means "go left".
    if (denom <= 0.0 || buf[mid] < rest / denom) {
      hi = mid;
      right_sum = rest;
      right_max = buf[mid];  // nth_element: the maximum of buf[mid..hi)
    } else {
      lo = mid + 1;
    }
    mid = lo + (hi - lo) / 2;
  }

  // Resolve the remaining window by the classic scan over sorted candidates.
  std::sort(buf.begin() + lo, buf.begin() + hi, std::greater<>());
  double suffix[kSmallWindow + 1];
  suffix[hi - lo] = right_sum;
  for (std::size_t i = hi; i-- > lo;) {
    suffix[i - lo] = suffix[i - lo + 1] + buf[i];
  }
  for (std::size_t t = lo; t <= hi && t < n; ++t) {
    const double denom = s - static_cast<double>(t);
    if (denom <= 0.0) break;
    const double tau = suffix[t - lo] / denom;
    const Weight w_t = t < hi ? buf[t] : right_max;
    if (w_t < tau) return tau;
  }
  return BisectTau(buf.data(), n, total, s);
}

double SolveTau(const std::vector<Weight>& weights, double s,
                IppsScratch* scratch) {
  return SolveTau(weights.data(), weights.size(), s, scratch);
}

double SolveTau(const std::vector<Weight>& weights, double s) {
  thread_local IppsScratch scratch;
  return SolveTau(weights.data(), weights.size(), s, &scratch);
}

double IppsProbabilities(const std::vector<Weight>& weights, double tau,
                         std::vector<double>* probs) {
  probs->resize(weights.size());
  if (tau <= 0.0) {
    // Degenerate threshold ("include everything"): keep the branchy
    // per-element edge handling of IppsProbability.
    double sum = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      (*probs)[i] = IppsProbability(weights[i], tau);
      sum += (*probs)[i];
    }
    return sum;
  }
  return simd::FillIppsProbabilities(weights.data(), weights.size(), tau,
                                     probs->data());
}

StreamTau::StreamTau(double s) : s_(s) { assert(s > 0.0); }

void StreamTau::Push(Weight w) {
  assert(w >= 0.0);
  ++count_;
  if (w <= 0.0) return;
  if (w < tau_) {
    light_total_ += w;
  } else {
    heap_.push(w);
  }
  // Restore the invariant tau = L / (s - |H|) with every heap element >= tau:
  // pop heap minima into the light side while the heap is over-full or its
  // minimum falls below the recomputed threshold.
  for (;;) {
    if (!heap_.empty() && static_cast<double>(heap_.size()) >= s_) {
      light_total_ += heap_.top();
      heap_.pop();
      continue;
    }
    const double denom = s_ - static_cast<double>(heap_.size());
    const double candidate = light_total_ / denom;
    if (!heap_.empty() && heap_.top() < candidate) {
      light_total_ += heap_.top();
      heap_.pop();
      continue;
    }
    tau_ = candidate;
    break;
  }
}

}  // namespace sas

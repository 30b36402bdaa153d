#include "core/ipps.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "core/simd.h"
#include "core/telemetry.h"

namespace sas {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Passes, the first one at x = +inf included, before the guard takes over.
// Every solve of a perfbench stream_serve or batch_product run ends within
// 6 passes, 95% of them within 4, so the guard never starts there; a
// stalled solve pays at most these 8 passes on top of the selection search
// it falls back to.
constexpr int kMaxPasses = 8;

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

// The selection search over the positive weights buf[0, n), n > s: returns
// a cut x whose heavy set {w >= x} is the consistent one, with `above` for
// "none of buf is heavy" (or the bisected tau when no candidate is). With
// the weights sorted descending and rest[t] the sum of sorted[t..n-1], the
// threshold for t certainly-included keys is tau(t) = rest[t] / (s - t); it
// is consistent iff sorted[t-1] >= tau(t) and sorted[t] < tau(t). The
// smallest t whose *lower* condition holds automatically satisfies the
// upper one, and the lower condition is monotone in t — so the consistent
// t can be found by partition-based binary search over the unsorted
// buffer: expected O(n). It never exceeds floor(s), so the first selection
// goes straight to rank floor(s).
double SelectCut(Weight* buf, std::size_t n, double s, double above) {
  // t* lies in [lo, hi]; elements left of lo are known heavy, elements
  // right of hi are known light with sum right_sum and maximum right_max.
  std::size_t lo = 0, hi = n;
  double right_sum = 0.0;
  Weight right_max = 0.0;
  constexpr std::size_t kSmallWindow = 32;
  std::size_t mid = static_cast<std::size_t>(s);
  while (hi - lo > kSmallWindow) {
    std::nth_element(buf + lo, buf + mid, buf + hi, std::greater<>());
    const double rest =
        simd::ThresholdPass(buf + mid, hi - mid, kInf).light_sum + right_sum;
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
  std::sort(buf + lo, buf + hi, std::greater<>());
  double suffix[kSmallWindow + 1];
  suffix[hi - lo] = right_sum;
  for (std::size_t i = hi; i-- > lo;) {
    suffix[i - lo] = suffix[i - lo + 1] + buf[i];
  }
  for (std::size_t t = lo; t <= hi && t < n; ++t) {
    const double denom = s - static_cast<double>(t);
    if (denom <= 0.0) break;
    const Weight w_t = t < hi ? buf[t] : right_max;
    // buf[t - 1] is the t-th largest: inside the sorted window, or the
    // rank a selection fixed when it moved lo past it.
    if (w_t < suffix[t - lo] / denom) return t == 0 ? above : buf[t - 1];
  }
  return BisectTau(buf, n, simd::ThresholdPass(buf, n, kInf).light_sum, s);
}

/// The guard: every weight >= `above` is heavy (above >= tau*), so the
/// selection search runs on the weights below it with target s - #heavy.
double GuardedCut(const Weight* weights, std::size_t n, double s,
                  double above, IppsScratch* scratch) {
  static telemetry::Counter* const fallbacks =
      telemetry::GetCounter("sas.ipps.tau_fallbacks");
  if (telemetry::Enabled()) fallbacks->Inc();
  auto& buf = scratch->buf;
  buf.resize(n);
  std::size_t m = 0, heavy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Weight w = weights[i];
    buf[m] = w;
    m += (w > 0.0) & (w < above);
    heavy += w >= above;
  }
  return SelectCut(buf.data(), m, s - static_cast<double>(heavy), above);
}

}  // namespace

// Newton's method on g(x) = sum_i min(x, w_i) - s x, which is concave and
// piecewise linear with its root at tau*. With c(x) = #{w >= x} and
// L(x) = sum of the w < x, the step is x <- L(x) / (s - c(x)): started at
// or above tau*, it stays there, falls monotonically, and lands on tau*
// once x shares tau*'s linear piece. Each step is one ThresholdPass, and
// t = L / (s - c) is the answer when the cut at x is consistent:
// largest light < t <= smallest heavy. The first pass, at x = +inf, gives
// the total; its t is x0 = total / s >= tau*. A step with t < x also
// certifies x >= tau* (g(x) < 0), which is where the guard may start.
//
// Whichever way the cut is found, tau is L / (s - c) from one pass at it,
// and that pass adds in a fixed association on every SIMD level, so tau is
// a function of the weight sequence alone.
double SolveTau(const Weight* weights, std::size_t n, double s,
                IppsScratch* scratch) {
  assert(s > 0.0);
  simd::ThresholdSplit p = simd::ThresholdPass(weights, n, kInf);
  if (static_cast<double>(p.light_count) <= s) return 0.0;  // all certain
  double x = kInf, above = kInf;
  for (int pass = 1;; ++pass) {
    const double slack = s - static_cast<double>(p.heavy_count);
    if (!(slack > 0.0)) break;  // x is below tau*
    const double t = p.light_sum / slack;
    if (p.max_light < t && t <= p.min_heavy) return t;
    if (!(t < x)) break;  // a stalled or reversed step
    above = x;
    if (pass == kMaxPasses) break;
    x = t;
    p = simd::ThresholdPass(weights, n, x);
  }
  const double cut = GuardedCut(weights, n, s, above, scratch);
  p = simd::ThresholdPass(weights, n, cut);
  const double slack = s - static_cast<double>(p.heavy_count);
  return slack > 0.0 ? p.light_sum / slack : cut;
}

double SolveTau(const std::vector<Weight>& weights, double s,
                IppsScratch* scratch) {
  return SolveTau(weights.data(), weights.size(), s, scratch);
}

double SolveTau(const std::vector<Weight>& weights, double s) {
  thread_local IppsScratch scratch;
  return SolveTau(weights.data(), weights.size(), s, &scratch);
}

void IppsProbabilities(const std::vector<Weight>& weights, double tau,
                       std::vector<double>* probs) {
  probs->resize(weights.size());
  if (tau <= 0.0) {
    // Degenerate threshold ("include everything"): keep the branchy
    // per-element edge handling of IppsProbability.
    for (std::size_t i = 0; i < weights.size(); ++i) {
      (*probs)[i] = IppsProbability(weights[i], tau);
    }
    return;
  }
  simd::FillIppsProbabilities(weights.data(), weights.size(), tau,
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

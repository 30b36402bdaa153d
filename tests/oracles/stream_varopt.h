// Reference streaming VarOpt_s: the heap-only step that
// sampling/stream_varopt.cc's Push refines. Every post-warm-up item is
// pushed onto the heavy min-heap and the threshold loop pops minima back
// off, so an item that is light on arrival takes a push_heap + pop_heap
// round trip. A test oracle: the library's Push skips that round trip for
// items strictly lighter than every heavy one, and the differential tests
// check that the two agree bit for bit (tau, and every entry's id, weight
// and point, in order) on streams whose heavy weights are distinct.

#ifndef SAS_TESTS_ORACLES_STREAM_VAROPT_H_
#define SAS_TESTS_ORACLES_STREAM_VAROPT_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/random.h"
#include "core/sample.h"
#include "core/types.h"

namespace sas::ref {

class StreamVarOpt {
 public:
  StreamVarOpt(std::size_t s, Rng rng) : s_(s), rng_(rng) {
    assert(s >= 1);
  }

  void Push(const WeightedKey& item) {
    if (!(item.weight > 0.0)) return;
    if (heavy_.size() + light_.size() < s_) {
      HeavyPush(item);
      return;
    }
    const double tau_old = tau_;
    HeavyPush(item);

    std::vector<WeightedKey> popped;
    double w_light = light_mass_;
    double tau_new = 0.0;
    for (;;) {
      const double denom =
          static_cast<double>(light_.size() + popped.size()) - 1.0;
      if (denom <= 0.0) {
        popped.push_back(HeavyPopMin());
        w_light += popped.back().weight;
        continue;
      }
      tau_new = w_light / denom;
      if (!heavy_.empty() && heavy_.front().weight <= tau_new) {
        popped.push_back(HeavyPopMin());
        w_light += popped.back().weight;
        continue;
      }
      break;
    }

    const double u = rng_.NextDouble();
    double acc = static_cast<double>(light_.size()) *
                 (1.0 - (tau_new > 0.0 ? tau_old / tau_new : 0.0));
    bool evicted = false;
    if (u < acc) {
      const std::size_t victim = rng_.NextBounded(light_.size());
      light_[victim] = light_.back();
      light_.pop_back();
      evicted = true;
    } else {
      for (std::size_t i = 0; i < popped.size(); ++i) {
        acc += 1.0 - popped[i].weight / tau_new;
        if (u < acc) {
          popped[i] = popped.back();
          popped.pop_back();
          evicted = true;
          break;
        }
      }
    }
    if (!evicted) {
      if (!popped.empty()) {
        popped.pop_back();
      } else {
        const std::size_t victim = rng_.NextBounded(light_.size());
        light_[victim] = light_.back();
        light_.pop_back();
      }
    }
    for (const auto& p : popped) light_.push_back(p);
    light_mass_ = w_light;
    tau_ = tau_new;
  }

  void Absorb(const Sample& sample) {
    for (const WeightedKey& e : sample.entries()) {
      Push({e.id, sample.AdjustedWeight(e), e.pt});
    }
  }

  Sample ToSample() const {
    std::vector<WeightedKey> entries = heavy_;
    entries.insert(entries.end(), light_.begin(), light_.end());
    return Sample(tau_, std::move(entries));
  }

 private:
  static bool Greater(const WeightedKey& a, const WeightedKey& b) {
    return a.weight > b.weight;  // min-heap
  }
  void HeavyPush(const WeightedKey& item) {
    heavy_.push_back(item);
    std::push_heap(heavy_.begin(), heavy_.end(), Greater);
  }
  WeightedKey HeavyPopMin() {
    std::pop_heap(heavy_.begin(), heavy_.end(), Greater);
    WeightedKey out = heavy_.back();
    heavy_.pop_back();
    return out;
  }

  std::size_t s_;
  Rng rng_;
  double tau_ = 0.0;
  double light_mass_ = 0.0;
  std::vector<WeightedKey> heavy_;
  std::vector<WeightedKey> light_;
};

}  // namespace sas::ref

#endif  // SAS_TESTS_ORACLES_STREAM_VAROPT_H_

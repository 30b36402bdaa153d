// Cross-cutting property tests: every sampler in the library must satisfy
// the sample-summary contract (IPPS marginals, fixed size for VarOpt
// schemes, unbiased Horvitz-Thompson estimates). Parameterized over the
// sampler implementations.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "api/registry.h"
#include "core/ipps.h"
#include "core/random.h"
#include "sampling/stream_varopt.h"
#include "sampling/systematic.h"
#include "oracles/varopt_offline.h"
#include "summaries/exact_summary.h"

namespace sas {
namespace {

using SamplerFn = std::function<Sample(const std::vector<WeightedKey>&,
                                       double, Rng*)>;

/// Builds one sample through the registry, drawing the config seed from the
/// caller's rng so repeated calls see fresh randomness.
Sample RegistrySample(const char* key, const StructureSpec& spec,
                      const std::vector<WeightedKey>& items, double s,
                      Rng* rng) {
  SummarizerConfig cfg;
  cfg.s = s;
  cfg.seed = rng->Next();
  cfg.structure = spec;
  return BuildSummary(key, cfg, items)->AsSample()->sample();
}

struct SamplerCase {
  std::string name;
  SamplerFn fn;
  bool fixed_size;  // VarOpt schemes give exactly s samples
};

std::vector<SamplerCase> AllSamplers() {
  return {
      {"varopt_offline",
       [](const auto& items, double s, Rng* rng) {
         return VarOptOffline(items, s, rng);
       },
       true},
      {"stream_varopt",
       [](const auto& items, double s, Rng* rng) {
         StreamVarOpt sv(static_cast<std::size_t>(s), rng->Split());
         for (const auto& it : items) sv.Push(it);
         return sv.ToSample();
       },
       true},
      // The structure-aware schemes go through the public registry API so
      // the sampler contract is pinned on the surface users call.
      {"order_aware",
       [](const auto& items, double s, Rng* rng) {
         return RegistrySample(keys::kOrder, StructureSpec::Order(), items,
                               s, rng);
       },
       true},
      {"product_aware",
       [](const auto& items, double s, Rng* rng) {
         return RegistrySample(keys::kProduct, StructureSpec::Product(),
                               items, s, rng);
       },
       true},
      {"two_pass_product",
       [](const auto& items, double s, Rng* rng) {
         return RegistrySample(keys::kAware, StructureSpec::Product(), items,
                               s, rng);
       },
       true},
      {"two_pass_order",
       [](const auto& items, double s, Rng* rng) {
         return RegistrySample(keys::kOrderTwoPass, StructureSpec::Order(),
                               items, s, rng);
       },
       true},
      {"systematic",
       [](const auto& items, double s, Rng* rng) {
         return SystematicSample(items, s, rng);
       },
       false},
  };
}

std::vector<WeightedKey> RandomItems(std::size_t n, Coord domain, Rng* rng) {
  std::set<std::pair<Coord, Coord>> seen;
  while (seen.size() < n) {
    seen.insert({rng->NextBounded(domain), rng->NextBounded(domain)});
  }
  std::vector<WeightedKey> items;
  KeyId id = 0;
  for (const auto& [x, y] : seen) {
    items.push_back({id++, rng->NextPareto(1.3), {x, y}});
  }
  return items;
}

class SamplerContract : public ::testing::TestWithParam<SamplerCase> {};

TEST_P(SamplerContract, FixedSampleSize) {
  const auto& param = GetParam();
  if (!param.fixed_size) GTEST_SKIP() << "not a fixed-size scheme";
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 50 + rng.NextBounded(200);
    const auto items = RandomItems(n, 1 << 14, &rng);
    const std::size_t s = 5 + rng.NextBounded(30);
    const Sample sample = param.fn(items, static_cast<double>(s), &rng);
    EXPECT_EQ(sample.size(), s) << param.name;
  }
}

TEST_P(SamplerContract, ThresholdIsIpps) {
  const auto& param = GetParam();
  Rng rng(2);
  const auto items = RandomItems(150, 1 << 12, &rng);
  std::vector<Weight> w;
  for (const auto& it : items) w.push_back(it.weight);
  const Sample sample = param.fn(items, 20.0, &rng);
  EXPECT_NEAR(sample.tau(), SolveTau(w, 20.0), 1e-6 * (1.0 + sample.tau()))
      << param.name;
}

TEST_P(SamplerContract, HeavyKeysAlwaysSampled) {
  const auto& param = GetParam();
  Rng rng(3);
  auto items = RandomItems(80, 1 << 12, &rng);
  items[11].weight = 1e7;
  items[37].weight = 1e7;
  for (int trial = 0; trial < 20; ++trial) {
    const Sample sample = param.fn(items, 10.0, &rng);
    bool has11 = false, has37 = false;
    for (const auto& e : sample.entries()) {
      has11 |= e.id == 11;
      has37 |= e.id == 37;
    }
    EXPECT_TRUE(has11 && has37) << param.name;
  }
}

TEST_P(SamplerContract, UnbiasedTotal) {
  const auto& param = GetParam();
  Rng rng(4);
  const auto items = RandomItems(100, 1 << 12, &rng);
  const Weight truth = TotalWeight(items);
  double total = 0.0;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    total += param.fn(items, 15.0, &rng).EstimateTotal();
  }
  EXPECT_NEAR(total / trials / truth, 1.0, 0.05) << param.name;
}

TEST_P(SamplerContract, UnbiasedBoxEstimate) {
  const auto& param = GetParam();
  Rng rng(5);
  const auto items = RandomItems(100, 1 << 12, &rng);
  const Box box{{0, 1 << 11}, {0, 1 << 12}};
  const Weight truth = ExactBoxSum(items, box);
  ASSERT_GT(truth, 0.0);
  double total = 0.0;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    total += param.fn(items, 15.0, &rng).EstimateBox(box);
  }
  EXPECT_NEAR(total / trials / truth, 1.0, 0.08) << param.name;
}

TEST_P(SamplerContract, MarginalsMatchIpps) {
  const auto& param = GetParam();
  Rng rng(6);
  const auto items = RandomItems(25, 1 << 10, &rng);
  std::vector<Weight> w;
  for (const auto& it : items) w.push_back(it.weight);
  const double s = 8.0;
  const double tau = SolveTau(w, s);
  std::vector<int> hits(items.size(), 0);
  const int trials = 12000;
  for (int t = 0; t < trials; ++t) {
    const Sample sample = param.fn(items, s, &rng);
    for (const auto& e : sample.entries()) hits[e.id]++;
  }
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(hits[i]) / trials,
                IppsProbability(w[i], tau), 0.025)
        << param.name << " key " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSamplers, SamplerContract, ::testing::ValuesIn(AllSamplers()),
    [](const ::testing::TestParamInfo<SamplerCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace sas

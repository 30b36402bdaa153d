// Ablation: box-range discrepancy of 2-D samples (Section 4). Compares the
// kd-based structure-aware product sampler against oblivious VarOpt at
// equal sample size, as RMS and max count-discrepancy over random boxes;
// also sweeps sample size to show the aware advantage grows with s
// (aware: O(s^(1/4)) vs obliv: O(sqrt(s)) on heavy boxes).

#include <cmath>
#include <set>

#include "api/registry.h"
#include "core/ipps.h"
#include "eval/table.h"
#include "tests/oracles/varopt_offline.h"

int main(int argc, char** argv) {
  using namespace sas;
  (void)argc;
  (void)argv;
  std::printf("=== Ablation: 2-D box discrepancy, aware vs oblivious ===\n");
  Rng rng(777);
  const std::size_t n = 4000;
  const Coord domain = 1 << 16;
  std::set<std::pair<Coord, Coord>> seen;
  while (seen.size() < n) {
    seen.insert({rng.NextBounded(domain), rng.NextBounded(domain)});
  }
  std::vector<WeightedKey> items;
  KeyId id = 0;
  for (const auto& [x, y] : seen) {
    items.push_back({id++, rng.NextPareto(1.3), {x, y}});
  }

  std::vector<Box> boxes;
  for (int i = 0; i < 40; ++i) {
    const Coord x0 = rng.NextBounded(domain / 2);
    const Coord y0 = rng.NextBounded(domain / 2);
    const Coord wx = 1 + rng.NextBounded(domain / 2);
    const Coord wy = 1 + rng.NextBounded(domain / 2);
    boxes.push_back({{x0, x0 + wx}, {y0, y0 + wy}});
  }

  Table table({"s", "scheme", "rms_disc", "max_disc"});
  for (double s : {50.0, 200.0, 800.0}) {
    std::vector<Weight> w;
    for (const auto& it : items) w.push_back(it.weight);
    const double tau = SolveTau(w, s);
    std::vector<double> probs;
    IppsProbabilities(w, tau, &probs);
    std::vector<double> expected(boxes.size(), 0.0);
    for (std::size_t b = 0; b < boxes.size(); ++b) {
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (boxes[b].Contains(items[i].pt)) expected[b] += probs[i];
      }
    }
    auto measure = [&](auto&& sampler, const char* name) {
      double sq = 0.0, worst = 0.0;
      const int trials = 60;
      for (int t = 0; t < trials; ++t) {
        const Sample sample = sampler();
        for (std::size_t b = 0; b < boxes.size(); ++b) {
          const double d =
              static_cast<double>(sample.CountInBox(boxes[b])) - expected[b];
          sq += d * d;
          worst = std::max(worst, std::fabs(d));
        }
      }
      table.AddRow({Table::Num(s), name,
                    Table::Num(std::sqrt(sq / (trials * boxes.size()))),
                    Table::Num(worst)});
    };
    measure(
        [&] {
          SummarizerConfig cfg;
          cfg.s = s;
          cfg.seed = rng.Next();
          cfg.structure = StructureSpec::Product();
          return BuildSummary(keys::kProduct, cfg, items)
              ->AsSample()
              ->sample();
        },
        "aware_kd");
    measure([&] { return VarOptOffline(items, s, &rng); }, "obliv");
  }
  table.Print();
  return 0;
}

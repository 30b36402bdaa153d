// Ablation: range discrepancy of the one-dimensional schemes (Section 3,
// Theorem 1, Appendix D). Measures, over random heavy-tailed inputs:
//   * max prefix and interval discrepancy of the order summarizer
//     (guarantees: <1 and <2),
//   * max node discrepancy of the hierarchy summarizer (guarantee: <1),
//   * the same quantities for oblivious VarOpt and systematic sampling.
// This isolates the value of the pair-selection freedom: same IPPS
// probabilities, same sample size, different aggregation order.

#include <cmath>

#include "api/registry.h"
#include "core/discrepancy.h"
#include "structure/hierarchy.h"
#include "core/ipps.h"
#include "eval/table.h"
#include "sampling/systematic.h"
#include "tests/oracles/varopt_offline.h"

int main(int argc, char** argv) {
  using namespace sas;
  (void)argc;
  (void)argv;
  std::printf("=== Ablation: 1-D discrepancy by scheme (n=500, s=50, "
              "200 trials) ===\n");
  const std::size_t n = 500;
  const double s = 50.0;
  const int trials = 200;
  Rng rng(31337);

  double ord_prefix = 0, ord_interval = 0;
  double obl_prefix = 0, obl_interval = 0;
  double sys_interval = 0;
  double hier_node = 0, obl_node = 0;

  Rng tree_rng(99);
  const Hierarchy h = Hierarchy::Random(n, 4, &tree_rng);

  for (int t = 0; t < trials; ++t) {
    std::vector<WeightedKey> items(n);
    std::vector<Weight> w(n);
    for (std::size_t i = 0; i < n; ++i) {
      w[i] = rng.NextPareto(1.2);
      items[i] = {static_cast<KeyId>(i), w[i], {static_cast<Coord>(i), 0}};
    }
    const double tau = SolveTau(w, s);
    std::vector<double> probs;
    IppsProbabilities(w, tau, &probs);

    auto flags_of = [&](const Sample& sample) {
      std::vector<KeyId> ids;
      for (const auto& e : sample.entries()) ids.push_back(e.id);
      return SampleFlags(n, ids);
    };
    auto node_disc = [&](const std::vector<char>& flags) {
      double worst = 0.0;
      for (int v = 0; v < h.num_nodes(); ++v) {
        double e = 0.0, a = 0.0;
        for (std::size_t r = h.leaf_begin(v); r < h.leaf_end(v); ++r) {
          e += probs[h.key_at_rank(r)];
          a += flags[h.key_at_rank(r)];
        }
        worst = std::max(worst, std::fabs(a - e));
      }
      return worst;
    };

    auto registry_sample = [&](const char* key, const StructureSpec& spec) {
      SummarizerConfig cfg;
      cfg.s = s;
      cfg.seed = rng.Next();
      cfg.structure = spec;
      return BuildSummary(key, cfg, items)->AsSample()->sample();
    };

    const auto ord =
        flags_of(registry_sample(keys::kOrder, StructureSpec::Order()));
    ord_prefix = std::max(ord_prefix, MaxPrefixDiscrepancy(probs, ord));
    ord_interval = std::max(ord_interval, MaxIntervalDiscrepancy(probs, ord));

    const auto obl = flags_of(VarOptOffline(items, s, &rng));
    obl_prefix = std::max(obl_prefix, MaxPrefixDiscrepancy(probs, obl));
    obl_interval = std::max(obl_interval, MaxIntervalDiscrepancy(probs, obl));
    obl_node = std::max(obl_node, node_disc(obl));

    const auto sys = flags_of(SystematicSample(items, s, &rng));
    sys_interval = std::max(sys_interval, MaxIntervalDiscrepancy(probs, sys));

    const auto hier = flags_of(
        registry_sample(keys::kHierarchy, StructureSpec::OverHierarchy(&h)));
    hier_node = std::max(hier_node, node_disc(hier));
  }

  Table table({"scheme", "range_family", "max_discrepancy", "guarantee"});
  table.AddRow({"order_aware", "prefixes", Table::Num(ord_prefix), "<1"});
  table.AddRow({"order_aware", "intervals", Table::Num(ord_interval), "<2"});
  table.AddRow({"systematic", "intervals", Table::Num(sys_interval), "<1"});
  table.AddRow({"obliv_varopt", "prefixes", Table::Num(obl_prefix),
                "O(sqrt(s log s))"});
  table.AddRow({"obliv_varopt", "intervals", Table::Num(obl_interval),
                "O(sqrt(s log s))"});
  table.AddRow({"hierarchy_aware", "tree nodes", Table::Num(hier_node),
                "<1"});
  table.AddRow({"obliv_varopt", "tree nodes", Table::Num(obl_node),
                "O(sqrt(s log s))"});
  table.Print();
  return 0;
}

// Ablation: multi-range query error scaling (Appendix C, Lemma 4, and the
// Section 1 claim). For queries that are unions of L disjoint ranges, the
// error of a sample grows like sqrt(L) (the leftovers behave like a VarOpt
// sample of size <= L), while deterministic range summaries accumulate
// error linearly in L. Measured on a 1-D order structure with the order
// summarizer, an oblivious VarOpt sample, and the 1-D wavelet / q-digest.

#include <cmath>

#include "api/registry.h"
#include "core/random.h"
#include "eval/table.h"
#include "tests/oracles/varopt_offline.h"
#include "summaries/qdigest.h"
#include "summaries/wavelet1d.h"

int main(int argc, char** argv) {
  using namespace sas;
  (void)argc;
  (void)argv;
  std::printf("=== Ablation: error vs #ranges per query (1-D, fixed "
              "per-range weight) ===\n");
  Rng rng(2024);
  const std::size_t n = 20000;
  const int bits = 20;
  const double s = 400.0;

  std::vector<WeightedKey> items(n);
  std::vector<std::pair<Coord, Weight>> flat(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Coord x = static_cast<Coord>(i) * ((Coord{1} << bits) / n) +
                    rng.NextBounded((Coord{1} << bits) / n);
    const Weight w = rng.NextPareto(1.2);
    items[i] = {static_cast<KeyId>(i), w, {x, 0}};
    flat[i] = {x, w};
    total += w;
  }

  const Wavelet1D wavelet(flat, static_cast<std::size_t>(s), bits);
  const QDigest qdigest(flat, s, bits);

  Table table({"ranges", "aware", "obliv", "wavelet", "qdigest",
               "aware_x_sqrtL"});
  for (int L : {1, 4, 16, 64, 256}) {
    // Queries: L disjoint ranges, each of ~n/1024 keys, so the total query
    // weight grows with L while per-range weight stays fixed.
    const int reps = 30;
    double err_aware = 0.0, err_obliv = 0.0, err_wv = 0.0, err_qd = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      // Draw L disjoint ranges by picking L starting slots out of 1024.
      std::vector<int> slots;
      while (static_cast<int>(slots.size()) < L) {
        const int c = static_cast<int>(rng.NextBounded(1024));
        bool dup = false;
        for (int sgot : slots) dup |= sgot == c;
        if (!dup) slots.push_back(c);
      }
      const Coord slot_span = (Coord{1} << bits) / 1024;
      std::vector<Interval> ranges;
      Weight exact = 0.0;
      for (int c : slots) {
        const Interval iv{static_cast<Coord>(c) * slot_span,
                          static_cast<Coord>(c + 1) * slot_span};
        ranges.push_back(iv);
        for (const auto& [x, w] : flat) {
          if (iv.Contains(x)) exact += w;
        }
      }
      auto query_sample = [&](const Sample& sample) {
        Weight est = 0.0;
        for (const auto& e : sample.entries()) {
          for (const auto& iv : ranges) {
            if (iv.Contains(e.pt.x)) {
              est += sample.AdjustedWeight(e);
              break;
            }
          }
        }
        return est;
      };
      SummarizerConfig cfg;
      cfg.s = s;
      cfg.seed = rng.Next();
      cfg.structure = StructureSpec::Order();
      const Sample aware =
          BuildSummary(keys::kOrder, cfg, items)->AsSample()->sample();
      const Sample obliv = VarOptOffline(items, s, &rng);
      err_aware += std::fabs(query_sample(aware) - exact);
      err_obliv += std::fabs(query_sample(obliv) - exact);
      double est_wv = 0.0, est_qd = 0.0;
      for (const auto& iv : ranges) {
        est_wv += wavelet.RangeSum(iv.lo, iv.hi);
        est_qd += qdigest.RangeSum(iv.lo, iv.hi);
      }
      err_wv += std::fabs(est_wv - exact);
      err_qd += std::fabs(est_qd - exact);
    }
    const double norm = reps * total;
    table.AddRow({Table::Int(L), Table::Num(err_aware / norm),
                  Table::Num(err_obliv / norm), Table::Num(err_wv / norm),
                  Table::Num(err_qd / norm),
                  Table::Num(err_aware / norm / std::sqrt(L))});
  }
  table.Print();
  std::printf("(sample error should scale ~sqrt(ranges); deterministic "
              "summaries ~linearly)\n");
  return 0;
}

#include "aware/product_summarizer.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "aware/flat_coords.h"
#include "core/ipps.h"
#include "core/pair_aggregate.h"
#include "core/telemetry.h"

namespace sas {

void KdAggregate(std::vector<double>* probs, const KdHierarchy& tree,
                 Rng* rng, SummarizeScratch* scratch) {
  const int n = tree.num_nodes();
  if (n == 0) return;
  // Children are created after their parent, so a reverse scan is
  // bottom-up.
  auto& leftover = scratch->leftover;
  leftover.assign(static_cast<std::size_t>(n), kNoEntry);
  auto& entries = scratch->entries;
  RngStream draws(rng);
  for (int v = n - 1; v >= 0; --v) {
    const auto& node = tree.nodes()[static_cast<std::size_t>(v)];
    entries.clear();
    if (node.IsLeaf()) {
      for (std::size_t i = node.begin; i < node.end; ++i) {
        const std::size_t item = tree.item_order()[i];
        if (!IsSet((*probs)[item])) entries.push_back(item);
      }
    } else {
      if (leftover[static_cast<std::size_t>(node.left)] != kNoEntry) {
        entries.push_back(leftover[static_cast<std::size_t>(node.left)]);
      }
      if (leftover[static_cast<std::size_t>(node.right)] != kNoEntry) {
        entries.push_back(leftover[static_cast<std::size_t>(node.right)]);
      }
    }
    leftover[static_cast<std::size_t>(v)] = ChainAggregateRange(
        probs->data(), entries.data(), entries.size(), kNoEntry, &draws);
  }
  ResolveResidual(probs->data(),
                  leftover[static_cast<std::size_t>(tree.root())], &draws);
}

void KdAggregate(std::vector<double>* probs, const KdHierarchy& tree,
                 Rng* rng) {
  thread_local SummarizeScratch scratch;
  KdAggregate(probs, tree, rng, &scratch);
}

namespace {

/// The one summarize body behind ProductSummarizeInto and
/// ProductSummarizeNdInto. `coords_of(i)` points at item i's `dims`
/// coordinates, so the open-subset gather reads the caller's storage
/// directly. Out is SummarizeOutput or ResultNd.
template <class CoordsOf, class Out>
void SummarizeProduct(const std::vector<Weight>& weights, int dims,
                      CoordsOf coords_of, double s, Rng* rng,
                      SummarizeScratch* scratch, Out* out) {
  using Index = typename decltype(out->chosen)::value_type;
  // Phase spans, one each per build, so a Finalize's time splits into the
  // tau solve, the kd build and the aggregation; they only observe. The
  // histograms are resolved once: the registry is cold, the spans are not.
  static telemetry::Histogram* const solve_tau_ns =
      telemetry::GetHistogram("sas.aware.solve_tau_ns");
  static telemetry::Histogram* const kd_build_ns =
      telemetry::GetHistogram("sas.aware.kd_build_ns");
  static telemetry::Histogram* const kd_aggregate_ns =
      telemetry::GetHistogram("sas.aware.kd_aggregate_ns");
  static telemetry::Histogram* const kd_nodes =
      telemetry::GetHistogram("sas.aware.kd_nodes");
  std::optional<telemetry::Span> phase;
  phase.emplace("aware.solve_tau", solve_tau_ns);
  out->tau = SolveTau(weights, s, &scratch->ipps);
  IppsProbabilities(weights, out->tau, &out->probs);
  for (auto& q : out->probs) q = SnapProbability(q);

  // Keys with p == 1 are always in the sample (they lead it, in index
  // order); the kd-tree is built over the open keys only, with their
  // probabilities as mass.
  out->chosen.clear();
  auto& open = scratch->open;
  open.clear();
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (out->probs[i] == 1.0) {
      out->chosen.push_back(static_cast<Index>(i));
    } else if (!IsSet(out->probs[i])) {
      open.push_back(i);
    }
  }
  phase.emplace("aware.kd_build", kd_build_ns);
  const std::size_t ud = static_cast<std::size_t>(dims);
  auto& coords = scratch->coords;
  auto& mass = scratch->mass;
  coords.clear();
  mass.clear();
  coords.reserve(open.size() * ud);
  mass.reserve(open.size());
  for (std::size_t i : open) {
    const Coord* c = coords_of(i);
    coords.insert(coords.end(), c, c + ud);
    mass.push_back(out->probs[i]);
  }
  // Cells of mass <= 1 stay unsplit (see the header, step 2).
  KdHierarchy::BuildInto(coords, dims, mass, &scratch->kd, &scratch->tree,
                         /*leaf_mass=*/1.0);
  if (telemetry::Enabled()) {
    kd_nodes->Observe(static_cast<std::uint64_t>(scratch->tree.num_nodes()));
  }

  // Aggregate over local (open-subset) indices, then map back.
  phase.emplace("aware.kd_aggregate", kd_aggregate_ns);
  auto& work = scratch->work;
  work.assign(mass.begin(), mass.end());
  KdAggregate(&work, scratch->tree, rng, scratch);
  for (std::size_t j = 0; j < open.size(); ++j) {
    if (work[j] == 1.0) out->chosen.push_back(static_cast<Index>(open[j]));
  }
}

}  // namespace

void ProductSummarizeInto(const std::vector<WeightedKey>& items, double s,
                          Rng* rng, SummarizeScratch* scratch,
                          SummarizeOutput* out) {
  auto& weights = scratch->weights;
  weights.clear();
  weights.reserve(items.size());
  for (const auto& it : items) weights.push_back(it.weight);
  SummarizeProduct(
      weights, /*dims=*/2,
      [&](std::size_t i) { return AsFlatCoords(&items[i].pt); }, s, rng,
      scratch, out);
}

void ProductSummarizeNdInto(const std::vector<Coord>& coords, int dims,
                            const std::vector<Weight>& weights, double s,
                            Rng* rng, SummarizeScratch* scratch,
                            ResultNd* out) {
  assert(dims >= 1);
  assert(coords.size() == weights.size() * static_cast<std::size_t>(dims));
  const std::size_t ud = static_cast<std::size_t>(dims);
  SummarizeProduct(
      weights, dims, [&](std::size_t i) { return coords.data() + i * ud; },
      s, rng, scratch, out);
}

}  // namespace sas

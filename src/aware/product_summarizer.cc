#include "aware/product_summarizer.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "aware/flat_coords.h"
#include "core/ipps.h"
#include "core/pair_aggregate.h"
#include "core/settle.h"
#include "core/telemetry.h"

namespace sas {
namespace {

/// Settle view of a kd-tree: a leaf owns its item_order() run, an internal
/// node chains its left then right child's carry. Children are created
/// after their parent, as Settle requires.
struct KdView {
  const KdHierarchy& tree;

  std::size_t num_nodes() const {
    return static_cast<std::size_t>(tree.num_nodes());
  }
  std::span<const std::size_t> Own(std::size_t v) const {
    const auto& node = tree.nodes()[v];
    if (!node.IsLeaf()) return {};
    return {tree.item_order().data() + node.begin, node.end - node.begin};
  }
  template <class F>
  void ForEachChild(std::size_t v, F f) const {
    const auto& node = tree.nodes()[v];
    if (node.IsLeaf()) return;
    f(static_cast<std::size_t>(node.left));
    f(static_cast<std::size_t>(node.right));
  }
};

}  // namespace

void KdAggregate(std::vector<double>* probs, const KdHierarchy& tree,
                 Rng* rng, SummarizeScratch* scratch) {
  Settle(probs->data(), KdView{tree}, rng, &scratch->settle);
}

void ProductSummarizeInto(const std::vector<WeightedKey>& items, int dims,
                          std::span<const Coord> coords, double s, Rng* rng,
                          SummarizeScratch* scratch, SummarizeOutput* out) {
  const std::size_t ud = static_cast<std::size_t>(dims);
  assert(dims >= 1);
  assert(dims <= 2 || coords.size() == items.size() * ud);
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
  SnappedIppsInto(items, s, scratch, out);

  // Keys with p == 1 are always in the sample (they lead it, in index
  // order); the kd-tree is built over the open keys only, with their
  // probabilities as mass.
  out->chosen.clear();
  auto& open = scratch->open;
  open.clear();
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (out->probs[i] == 1.0) {
      out->chosen.push_back(static_cast<std::uint32_t>(i));
    } else if (!IsSet(out->probs[i])) {
      open.push_back(i);
    }
  }
  phase.emplace("aware.kd_build", kd_build_ns);
  auto& open_coords = scratch->coords;
  auto& mass = scratch->mass;
  open_coords.clear();
  mass.clear();
  open_coords.reserve(open.size() * ud);
  mass.reserve(open.size());
  for (std::size_t i : open) {
    const Coord* c =
        dims > 2 ? coords.data() + i * ud : AsFlatCoords(&items[i].pt);
    open_coords.insert(open_coords.end(), c, c + ud);
    mass.push_back(out->probs[i]);
  }
  // Cells of mass <= 1 stay unsplit (see the header, step 2).
  KdHierarchy::BuildInto(open_coords, dims, mass, &scratch->kd,
                         &scratch->tree, /*leaf_mass=*/1.0);
  if (telemetry::Enabled()) {
    kd_nodes->Observe(static_cast<std::uint64_t>(scratch->tree.num_nodes()));
  }

  // Aggregate over local (open-subset) indices, then map back.
  phase.emplace("aware.kd_aggregate", kd_aggregate_ns);
  auto& work = scratch->work;
  work.assign(mass.begin(), mass.end());
  KdAggregate(&work, scratch->tree, rng, scratch);
  for (std::size_t j = 0; j < open.size(); ++j) {
    if (work[j] == 1.0) {
      out->chosen.push_back(static_cast<std::uint32_t>(open[j]));
    }
  }
}

}  // namespace sas

#include "core/merge.h"

#include <cassert>
#include <cstddef>
#include <numeric>
#include <optional>

#include "core/ipps.h"
#include "core/pair_aggregate.h"
#include "core/settle.h"
#include "core/telemetry.h"

namespace sas {
namespace {

/// Shared implementation over an arbitrary set of input samples. All
/// intermediate buffers come from `scratch`, so repeated merges (the
/// windowed ring) allocate only the output entry vector in steady state.
Sample MergeParts(const Sample* const* parts, std::size_t num_parts,
                  std::size_t s, Rng* rng, MergeScratch* scratch) {
  assert(s >= 1);
  // Resolved once: the registry is cold, the spans are not.
  static telemetry::Histogram* const solve_tau_ns =
      telemetry::GetHistogram("sas.merge.solve_tau_ns");
  static telemetry::Histogram* const settle_ns =
      telemetry::GetHistogram("sas.merge.settle_ns");
  std::size_t total = 0;
  for (std::size_t p = 0; p < num_parts; ++p) total += parts[p]->size();

  // Combined entry set, each entry carried at its adjusted weight under its
  // source sample. Entries keep that weight in the output, so a light entry
  // (inclusion probability tau_src/tau_new) is adjusted to tau_new by
  // Sample::AdjustedWeight while a pre-settled heavy entry keeps its value.
  std::vector<WeightedKey>& entries = scratch->entries;
  std::vector<Weight>& weights = scratch->weights;
  entries.resize(total);
  weights.resize(total);
  std::size_t n = 0;
  for (std::size_t p = 0; p < num_parts; ++p) {
    const Sample& part = *parts[p];
    for (const WeightedKey& e : part.entries()) {
      const Weight w = part.AdjustedWeight(e);
      entries[n] = {e.id, w, e.pt};
      weights[n++] = w;
    }
  }

  if (total <= s) {
    // Everything fits: keep all entries at their adjusted weights. The
    // threshold must not disturb them, so it is 0 ("include everything").
    return Sample(0.0, entries);
  }

  std::optional<telemetry::Span> phase;
  phase.emplace("merge.solve_tau", solve_tau_ns);
  const double tau =
      SolveTau(weights.data(), total, static_cast<double>(s), &scratch->ipps);
  std::vector<double>& probs = scratch->probs;
  IppsProbabilities(weights, tau, &probs);
  for (double& q : probs) q = SnapProbability(q);

  // Structure-oblivious settling: the order settle over a uniformly random
  // order of the entries. The shuffle draws raw bounded integers before
  // the settle's batched draw stream starts; it runs on a local copy of the
  // generator, whose state the swaps' stores then cannot alias.
  phase.emplace("merge.settle", settle_ns);
  std::vector<std::size_t>& order = scratch->order;
  order.resize(total);
  std::iota(order.begin(), order.end(), 0);
  Rng shuffle = *rng;
  for (std::size_t i = total; i > 1; --i) {
    std::swap(order[i - 1], order[shuffle.NextBounded(i)]);
  }
  *rng = shuffle;
  OrderAggregate(&probs, order, rng);
  phase.reset();

  // Compact the sampled entries to the front of the scratch, in entry
  // order, then copy them out at exact size.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < total; ++i) {
    entries[kept] = entries[i];
    kept += probs[i] == 1.0 ? 1 : 0;
  }
  return Sample(tau, {entries.begin(),
                      entries.begin() + static_cast<std::ptrdiff_t>(kept)});
}

}  // namespace

Sample MergeAllSamples(const std::vector<Sample>& parts, std::size_t s,
                       Rng* rng) {
  std::vector<const Sample*> ptrs;
  ptrs.reserve(parts.size());
  for (const Sample& p : parts) ptrs.push_back(&p);
  MergeScratch scratch;
  return MergeParts(ptrs.data(), ptrs.size(), s, rng, &scratch);
}

Sample MergeSampleParts(const Sample* const* parts, std::size_t num_parts,
                        std::size_t s, Rng* rng, MergeScratch* scratch) {
  if (scratch != nullptr) return MergeParts(parts, num_parts, s, rng, scratch);
  MergeScratch local;
  return MergeParts(parts, num_parts, s, rng, &local);
}

}  // namespace sas

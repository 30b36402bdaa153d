#include "core/merge.h"

#include <cassert>
#include <numeric>

#include "core/ipps.h"
#include "core/pair_aggregate.h"
#include "core/settle.h"

namespace sas {
namespace {

/// Shared implementation over an arbitrary set of input samples. All
/// intermediate buffers come from `scratch`, so repeated merges (the
/// windowed ring) allocate only the output entry vector in steady state.
Sample MergeParts(const Sample* const* parts, std::size_t num_parts,
                  std::size_t s, Rng* rng, MergeScratch* scratch) {
  assert(s >= 1);
  std::size_t total = 0;
  for (std::size_t p = 0; p < num_parts; ++p) total += parts[p]->size();

  // Combined entry set, each entry carried at its adjusted weight under its
  // source sample. Entries keep that weight in the output, so a light entry
  // (inclusion probability tau_src/tau_new) is adjusted to tau_new by
  // Sample::AdjustedWeight while a pre-settled heavy entry keeps its value.
  std::vector<WeightedKey>& entries = scratch->entries;
  entries.clear();
  entries.reserve(total);
  for (std::size_t p = 0; p < num_parts; ++p) {
    for (const WeightedKey& e : parts[p]->entries()) {
      entries.push_back({e.id, parts[p]->AdjustedWeight(e), e.pt});
    }
  }

  if (total <= s) {
    // Everything fits: keep all entries at their adjusted weights. The
    // threshold must not disturb them, so it is 0 ("include everything").
    return Sample(0.0, {entries.begin(), entries.end()});
  }

  std::vector<Weight>& weights = scratch->weights;
  weights.clear();
  weights.reserve(total);
  for (const WeightedKey& e : entries) weights.push_back(e.weight);
  const double tau = SolveTau(weights.data(), weights.size(),
                              static_cast<double>(s), &scratch->ipps);

  std::vector<double>& probs = scratch->probs;
  IppsProbabilities(weights, tau, &probs);
  for (double& q : probs) q = SnapProbability(q);

  // Structure-oblivious settling: the order settle over a uniformly random
  // order of the entries. The shuffle draws raw bounded integers before
  // the settle's batched draw stream starts.
  std::vector<std::size_t>& order = scratch->order;
  order.resize(total);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = total; i > 1; --i) {
    std::swap(order[i - 1], order[rng->NextBounded(i)]);
  }
  OrderAggregate(&probs, order, rng);

  Sample out;
  out.set_tau(tau);
  out.Reserve(s + 1);
  for (std::size_t i = 0; i < total; ++i) {
    if (probs[i] == 1.0) out.Append(entries[i]);
  }
  return out;
}

}  // namespace

Sample MergeSamples(const Sample& a, const Sample& b, std::size_t s,
                    Rng* rng) {
  const Sample* parts[2] = {&a, &b};
  MergeScratch scratch;
  return MergeParts(parts, 2, s, rng, &scratch);
}

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

#include "aware/disjoint_summarizer.h"

#include <cassert>
#include <span>

#include "core/settle.h"

namespace sas {
namespace {

/// Settle view of disjoint ranges: a root whose children are the ranges.
/// Range r is node R - r (R ranges), so the walk settles the ranges in
/// ascending order and the root chains their leftovers in that order.
/// Range r owns items[start[r], start[r + 1]).
struct DisjointView {
  std::size_t num_ranges;
  const std::size_t* start;
  const std::size_t* items;

  std::size_t num_nodes() const { return num_ranges + 1; }
  std::span<const std::size_t> Own(std::size_t v) const {
    if (v == 0) return {};
    const std::size_t r = num_ranges - v;
    return {items + start[r], start[r + 1] - start[r]};
  }
  template <class F>
  void ForEachChild(std::size_t v, F f) const {
    if (v != 0) return;
    for (std::size_t c = num_ranges; c > 0; --c) f(c);
  }
};

}  // namespace

void DisjointAggregate(std::vector<double>* probs,
                       const std::vector<int>& range_of, int num_ranges,
                       Rng* rng, SummarizeScratch* scratch) {
  assert(probs->size() == range_of.size());
  // Bucket the open entries per range by counting sort: the fill below is
  // stable over ascending i, so bucket r lists its entries in index order.
  const std::size_t ranges = static_cast<std::size_t>(num_ranges);
  auto& start = scratch->bucket_start;
  start.assign(ranges + 2, 0);
  for (std::size_t i = 0; i < probs->size(); ++i) {
    if (!IsSet((*probs)[i])) {
      assert(range_of[i] >= 0 && range_of[i] < num_ranges);
      ++start[static_cast<std::size_t>(range_of[i]) + 2];
    }
  }
  for (std::size_t r = 2; r < ranges + 2; ++r) start[r] += start[r - 1];
  auto& bucket_items = scratch->bucket_items;
  bucket_items.resize(start[ranges + 1]);
  for (std::size_t i = 0; i < probs->size(); ++i) {
    if (!IsSet((*probs)[i])) {
      bucket_items[start[static_cast<std::size_t>(range_of[i]) + 1]++] = i;
    }
  }
  Settle(probs->data(), DisjointView{ranges, start.data(), bucket_items.data()},
         rng, &scratch->settle);
}

void DisjointSummarizeInto(const std::vector<WeightedKey>& items,
                           const std::vector<int>& range_of, int num_ranges,
                           double s, Rng* rng, SummarizeScratch* scratch,
                           SummarizeOutput* out) {
  SummarizeWith(items, s, scratch, out, [&](std::vector<double>* work) {
    DisjointAggregate(work, range_of, num_ranges, rng, scratch);
  });
}

}  // namespace sas

// SETTLE: the one final pair-aggregation loop.
//
// Every structure-aware sampler ends by pair-aggregating the open IPPS
// probabilities (Algorithm 1) and resolving the last open one. Only the
// pair order depends on the structure (key order, the lowest-LCA rule,
// disjoint ranges, KD-HIERARCHY, the Section 5 partitions), so a view
// supplies it as a tree: for v from the last node down to the root (node
// 0; children are numbered after their parents), chain v's own entries,
// then its children's carries; v's carry is the entry still open. The
// root's carry is resolved by a Bernoulli draw. All chains share one
// RngStream: a settle draws exactly what one PairAggregate per merge in
// the same order would. A view provides
//   std::size_t num_nodes() const;
//   std::span<const std::size_t> Own(std::size_t v) const;  // chain order
//   template <class F> void ForEachChild(std::size_t v, F f) const;
// where Own entries index the probabilities (settled ones cost no draw)
// and ForEachChild calls f(c) for each child c, in chain order.

#ifndef SAS_CORE_SETTLE_H_
#define SAS_CORE_SETTLE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/pair_aggregate.h"
#include "core/random.h"

namespace sas {

/// Working memory of Settle, kept across calls so a warm settle allocates
/// nothing. A single-node settle touches neither buffer.
struct SettleScratch {
  std::vector<std::size_t> leftover;  // carry per node
  std::vector<std::size_t> gather;    // one node's child carries
};

/// Settles every entry of `probs` that `view` reaches: on return each is
/// exactly 0 or 1.
template <class View>
void Settle(double* probs, const View& view, Rng* rng,
            SettleScratch* scratch) {
  const std::size_t n = view.num_nodes();
  auto& leftover = scratch->leftover;
  if (n > 1) leftover.assign(n, kNoEntry);
  auto& gather = scratch->gather;
  RngStream draws(rng);
  std::size_t carry = kNoEntry;
  for (std::size_t v = n; v-- > 0;) {
    const std::span<const std::size_t> own = view.Own(v);
    carry = ChainAggregateRange(probs, own.data(), own.size(), kNoEntry,
                                &draws);
    gather.clear();
    view.ForEachChild(v, [&](std::size_t c) {
      if (leftover[c] != kNoEntry) gather.push_back(leftover[c]);
    });
    carry = ChainAggregateRange(probs, gather.data(), gather.size(), carry,
                                &draws);
    if (v > 0) leftover[v] = carry;
  }
  ResolveResidual(probs, carry, &draws);
}

/// The view of a key order: one childless node owning `order`.
struct OrderView {
  std::span<const std::size_t> order;

  std::size_t num_nodes() const { return 1; }
  std::span<const std::size_t> Own(std::size_t) const { return order; }
  template <class F>
  void ForEachChild(std::size_t, F) const {}
};

/// Algorithm 5's settle: aggregates the open entries of *probs in the
/// given order, then resolves the residual.
inline void OrderAggregate(std::vector<double>* probs,
                           const std::vector<std::size_t>& order, Rng* rng) {
  SettleScratch none;
  Settle(probs->data(), OrderView{order}, rng, &none);
}

}  // namespace sas

#endif  // SAS_CORE_SETTLE_H_

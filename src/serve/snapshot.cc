#include "serve/snapshot.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace sas {

namespace {

/// Ranks [0, n) sorted by (key_of(position), position). The secondary
/// position key makes the order total and deterministic under duplicate
/// sort keys (merged windows can legitimately carry one id twice).
template <typename KeyFn>
std::vector<std::uint32_t> SortedPositions(std::size_t n, KeyFn key_of) {
  std::vector<std::uint32_t> pos(n);
  std::iota(pos.begin(), pos.end(), 0u);
  std::sort(pos.begin(), pos.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const auto ka = key_of(a);
              const auto kb = key_of(b);
              if (ka != kb) return ka < kb;
              return a < b;
            });
  return pos;
}

}  // namespace

ServingSnapshot::ServingSnapshot(const Sample& sample) : sample_(sample) {
  const auto& entries = sample_.entries();
  const std::size_t n = entries.size();

  total_weight_ = sample_.EstimateTotal();

  by_id_ = SortedPositions(n, [&](std::uint32_t p) { return entries[p].id; });
  id_keys_.resize(n);
  prefix_id_.resize(n + 1);
  prefix_id_[0] = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    id_keys_[r] = entries[by_id_[r]].id;
    prefix_id_[r + 1] = prefix_id_[r] + AdjustedAt(by_id_[r]);
  }

  by_x_ = SortedPositions(n, [&](std::uint32_t p) { return entries[p].pt.x; });
  x_keys_.resize(n);
  for (std::size_t r = 0; r < n; ++r) x_keys_[r] = entries[by_x_[r]].pt.x;

  // Vose alias table over the adjusted weights. Scaled so column c carries
  // adjusted(c) * n / total; columns below 1 are topped up by columns above
  // 1. A zero-total sample (possible only when tau and every weight are 0)
  // degenerates to a uniform table.
  if (n > 0) {
    accept_.assign(n, 1.0);
    alias_.resize(n);
    std::iota(alias_.begin(), alias_.end(), 0u);
    if (total_weight_ > 0.0) {
      std::vector<double> scaled(n);
      for (std::size_t p = 0; p < n; ++p) {
        scaled[p] = AdjustedAt(static_cast<std::uint32_t>(p)) *
                    static_cast<double>(n) / total_weight_;
      }
      std::vector<std::uint32_t> small;
      std::vector<std::uint32_t> large;
      for (std::size_t p = 0; p < n; ++p) {
        (scaled[p] < 1.0 ? small : large).push_back(
            static_cast<std::uint32_t>(p));
      }
      while (!small.empty() && !large.empty()) {
        const std::uint32_t s = small.back();
        const std::uint32_t l = large.back();
        small.pop_back();
        accept_[s] = scaled[s];
        alias_[s] = l;
        scaled[l] -= 1.0 - scaled[s];
        if (scaled[l] < 1.0) {
          large.pop_back();
          small.push_back(l);
        }
      }
      // Residual columns sit at (numerically) exactly 1: they keep
      // accept = 1 / alias = self from the initialization above.
    }
  }
}

Weight ServingSnapshot::SumInEntryOrder(
    std::vector<std::uint32_t>* positions) const {
  std::sort(positions->begin(), positions->end());
  Weight total = 0.0;
  for (const std::uint32_t p : *positions) total += AdjustedAt(p);
  return total;
}

Weight ServingSnapshot::EstimateIdRange(KeyId lo, KeyId hi,
                                        QueryScratch* scratch) const {
  if (hi <= lo) return 0.0;
  const auto b = std::lower_bound(id_keys_.begin(), id_keys_.end(), lo);
  const auto e = std::lower_bound(b, id_keys_.end(), hi);
  auto& pos = scratch->positions;
  pos.clear();
  pos.insert(pos.end(), by_id_.begin() + (b - id_keys_.begin()),
             by_id_.begin() + (e - id_keys_.begin()));
  return SumInEntryOrder(&pos);
}

void ServingSnapshot::CollectBox(const Box& box,
                                 std::vector<std::uint32_t>* out) const {
  if (box.Empty()) return;
  const auto b = std::lower_bound(x_keys_.begin(), x_keys_.end(), box.x.lo);
  const auto e = std::lower_bound(b, x_keys_.end(), box.x.hi);
  const auto& entries = sample_.entries();
  for (auto it = b; it != e; ++it) {
    const std::uint32_t p = by_x_[static_cast<std::size_t>(it - x_keys_.begin())];
    if (box.y.Contains(entries[p].pt.y)) out->push_back(p);
  }
}

Weight ServingSnapshot::EstimateBox(const Box& box,
                                    QueryScratch* scratch) const {
  auto& pos = scratch->positions;
  pos.clear();
  CollectBox(box, &pos);
  return SumInEntryOrder(&pos);
}

Weight ServingSnapshot::EstimateQuery(const MultiRangeQuery& q,
                                      QueryScratch* /*scratch*/) const {
  // Multi-box queries are one vector scan of the sample: kd-cell boxes
  // each span a wide x range, so the x-index would visit about s
  // candidates per query and then re-sort them.
  return sample_.EstimateQuery(q);
}

std::size_t ServingSnapshot::CountInBox(const Box& box) const {
  if (box.Empty()) return 0;
  const auto b = std::lower_bound(x_keys_.begin(), x_keys_.end(), box.x.lo);
  const auto e = std::lower_bound(b, x_keys_.end(), box.x.hi);
  const auto& entries = sample_.entries();
  std::size_t count = 0;
  for (auto it = b; it != e; ++it) {
    const std::uint32_t p = by_x_[static_cast<std::size_t>(it - x_keys_.begin())];
    if (box.y.Contains(entries[p].pt.y)) ++count;
  }
  return count;
}

Weight ServingSnapshot::EstimateIdRangeFast(KeyId lo, KeyId hi) const {
  if (hi <= lo) return 0.0;
  const auto b = std::lower_bound(id_keys_.begin(), id_keys_.end(), lo);
  const auto e = std::lower_bound(b, id_keys_.end(), hi);
  return prefix_id_[static_cast<std::size_t>(e - id_keys_.begin())] -
         prefix_id_[static_cast<std::size_t>(b - id_keys_.begin())];
}

Weight ServingSnapshot::EstimateBoxFast(const Box& box) const {
  if (box.Empty()) return 0.0;
  const auto b = std::lower_bound(x_keys_.begin(), x_keys_.end(), box.x.lo);
  const auto e = std::lower_bound(b, x_keys_.end(), box.x.hi);
  const auto& entries = sample_.entries();
  Weight total = 0.0;
  for (auto it = b; it != e; ++it) {
    const std::uint32_t p = by_x_[static_cast<std::size_t>(it - x_keys_.begin())];
    if (box.y.Contains(entries[p].pt.y)) total += AdjustedAt(p);
  }
  return total;
}

std::size_t ServingSnapshot::DrawIndex(Rng* rng) const {
  if (accept_.empty()) {
    throw std::logic_error("ServingSnapshot::DrawIndex on an empty snapshot");
  }
  const std::size_t c = rng->NextBounded(accept_.size());
  const double u = rng->NextDouble();
  return u < accept_[c] ? c : alias_[c];
}

}  // namespace sas

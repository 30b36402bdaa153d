#include "core/sample.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "core/simd.h"

namespace sas {

Weight Sample::SumInBoxes(const Box* boxes, std::size_t nb) const {
  // Entries are tested a block at a time by the vector membership kernel,
  // then the members' adjusted weights are added lowest bit first: the
  // same additions in the same (entry) order as the classic scan, so the
  // sum is bit-identical to it.
  const WeightedKey* e = entries_.data();
  const std::size_t n = entries_.size();
  Weight total = 0.0;
  for (std::size_t base = 0; base < n; base += simd::kInBoxesBlock) {
    const std::size_t len = std::min(simd::kInBoxesBlock, n - base);
    const std::uint64_t mask = simd::InBoxesMask(e + base, len, boxes, nb);
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
      const auto j = static_cast<std::size_t>(std::countr_zero(m));
      total += AdjustedWeight(e[base + j]);
    }
  }
  return total;
}

Weight Sample::EstimateBox(const Box& box) const {
  return SumInBoxes(&box, 1);
}

Weight Sample::EstimateQuery(const MultiRangeQuery& q) const {
  return SumInBoxes(q.boxes.data(), q.boxes.size());
}

Weight Sample::EstimateTotal() const {
  Weight total = 0.0;
  for (const auto& k : entries_) total += AdjustedWeight(k);
  return total;
}

std::size_t Sample::CountInBox(const Box& box) const {
  const WeightedKey* e = entries_.data();
  const std::size_t n = entries_.size();
  std::size_t c = 0;
  for (std::size_t base = 0; base < n; base += simd::kInBoxesBlock) {
    const std::size_t len = std::min(simd::kInBoxesBlock, n - base);
    c += static_cast<std::size_t>(
        std::popcount(simd::InBoxesMask(e + base, len, &box, 1)));
  }
  return c;
}

}  // namespace sas

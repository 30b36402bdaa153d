#include "structure/order.h"

#include <algorithm>
#include <numeric>

namespace sas {

std::vector<std::size_t> SortedOrder(const std::vector<Coord>& coords) {
  std::vector<std::size_t> order;
  SortedOrderInto(coords, &order);
  return order;
}

void SortedOrderInto(const std::vector<Coord>& coords,
                     std::vector<std::size_t>* out) {
  out->resize(coords.size());
  std::iota(out->begin(), out->end(), 0);
  // Index tie-break == stability when sorting distinct indices, and unlike
  // std::stable_sort the introsort needs no temporary buffer, keeping warm
  // callers allocation-free.
  std::sort(out->begin(), out->end(), [&](std::size_t a, std::size_t b) {
    return coords[a] != coords[b] ? coords[a] < coords[b] : a < b;
  });
}

}  // namespace sas

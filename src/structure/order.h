// Order structures (Section 3): keys with a linear order whose range family
// is the set of all intervals (and, as a special case, all prefixes).

#ifndef SAS_STRUCTURE_ORDER_H_
#define SAS_STRUCTURE_ORDER_H_

#include <cstddef>
#include <vector>

#include "core/types.h"

namespace sas {

/// Returns key indices 0..n-1 sorted by coordinate (stable; ties keep input
/// order, so duplicate coordinates are handled deterministically).
std::vector<std::size_t> SortedOrder(const std::vector<Coord>& coords);

/// As SortedOrder, into a caller-owned vector (capacity reused, so warm
/// callers sort allocation-free).
void SortedOrderInto(const std::vector<Coord>& coords,
                     std::vector<std::size_t>* out);

}  // namespace sas

#endif  // SAS_STRUCTURE_ORDER_H_

// Basic value types shared across the structure-aware sampling library.
//
// The data model follows Section 2 of the paper: the input is a set of
// (key, weight) pairs where each key lives in a structured domain (an order,
// a hierarchy, or a product of those).

#ifndef SAS_CORE_TYPES_H_
#define SAS_CORE_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sas {

/// Dense index of a key inside one dataset (0..n-1). Algorithms address keys
/// by this index; the mapping to domain coordinates lives in the dataset.
using KeyId = std::uint32_t;

/// Non-negative item weight (e.g. flow bytes, ticket counts).
using Weight = double;

/// Coordinate on one axis of a product domain (IP address, leaf rank, ...).
using Coord = std::uint64_t;

/// A point in a two-dimensional product domain.
struct Point2D {
  Coord x = 0;
  Coord y = 0;

  friend bool operator==(const Point2D&, const Point2D&) = default;
};

/// One input record: a key with its weight and (up to 2-D) location.
struct WeightedKey {
  KeyId id = 0;
  Weight weight = 0.0;
  Point2D pt;
};

/// A half-open interval [lo, hi) of coordinates on one axis.
struct Interval {
  Coord lo = 0;
  Coord hi = 0;  // exclusive

  bool Contains(Coord c) const { return c >= lo && c < hi; }
  Coord Length() const { return hi - lo; }
  bool Empty() const { return hi <= lo; }

  friend bool operator==(const Interval&, const Interval&) = default;
};

/// An axis-parallel box in a 2-D product domain: the range type of Section 4.
struct Box {
  Interval x;
  Interval y;

  bool Contains(const Point2D& p) const {
    return x.Contains(p.x) && y.Contains(p.y);
  }
  bool Empty() const { return x.Empty() || y.Empty(); }

  friend bool operator==(const Box&, const Box&) = default;
};

/// An axis-parallel box in d dimensions: one interval per axis.
using BoxN = std::vector<Interval>;

/// True if the flat point `pt` (box.size() coordinates) lies in the box.
inline bool BoxNContains(const BoxN& box, const Coord* pt) {
  for (std::size_t a = 0; a < box.size(); ++a) {
    if (!box[a].Contains(pt[a])) return false;
  }
  return true;
}

/// A query that spans several disjoint boxes (Section 6.1: "each query is
/// produced as a collection of non-overlapping rectangles").
struct MultiRangeQuery {
  std::vector<Box> boxes;
  /// Exact answer over the full data, filled by the query generator.
  Weight exact = 0.0;
};

}  // namespace sas

#endif  // SAS_CORE_TYPES_H_

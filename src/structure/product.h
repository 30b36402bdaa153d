// Product structures (Section 4): d-dimensional domains where each axis is
// an order or a hierarchy, and ranges are axis-parallel boxes.
//
// This library specializes to d = 2 (the dimensionality of both evaluation
// datasets); the per-axis machinery (hierarchies, dyadic ranges) is shared
// with the one-dimensional code paths.

#ifndef SAS_STRUCTURE_PRODUCT_H_
#define SAS_STRUCTURE_PRODUCT_H_

#include "core/types.h"

namespace sas {

/// Descriptor of one axis: its size (number of addressable coordinates,
/// usually a power of two). Any hierarchy on the axis is the dataset's.
struct AxisDomain {
  int bits = 32;  // domain size = 2^bits

  Coord size() const { return bits >= 64 ? ~Coord{0} : (Coord{1} << bits); }
};

/// A two-dimensional product domain.
struct ProductDomain2D {
  AxisDomain x;
  AxisDomain y;

  Box FullBox() const {
    return Box{{0, x.size()}, {0, y.size()}};
  }
};

/// Intersection helpers for boxes/intervals.
Interval IntersectIntervals(const Interval& a, const Interval& b);
Box IntersectBoxes(const Box& a, const Box& b);

/// Fraction of interval `a` covered by `b` (0 when a is empty).
double IntervalOverlapFraction(const Interval& a, const Interval& b);

/// Fraction of box `a`'s area covered by `b` (0 when a is empty).
double BoxOverlapFraction(const Box& a, const Box& b);

/// True if the two boxes share any point.
bool BoxesIntersect(const Box& a, const Box& b);

}  // namespace sas

#endif  // SAS_STRUCTURE_PRODUCT_H_

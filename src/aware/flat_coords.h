// The audited flat-coords facade: the single place in the library where a
// Point2D array is reinterpreted as an interleaved flat coordinate array
// (x0, y0, x1, y1, ...) so the d-dimensional KdHierarchy build and the
// product summarizer's open-subset gather read 2-D point storage without a
// copy.
//
// This is the only file where a bare reinterpret_cast is permitted
// (tools/sas_lint.py enforces that repo-wide); every layout assumption the
// cast relies on is pinned by the static_asserts below, so a Point2D change
// that breaks the aliasing turns into a compile error here rather than a
// silent misread in the kd build.

#ifndef SAS_AWARE_FLAT_COORDS_H_
#define SAS_AWARE_FLAT_COORDS_H_

#include <cstddef>
#include <type_traits>

#include "core/types.h"

namespace sas {

static_assert(std::is_standard_layout_v<Point2D> &&
                  sizeof(Point2D) == 2 * sizeof(Coord) &&
                  offsetof(Point2D, x) == 0 &&
                  offsetof(Point2D, y) == sizeof(Coord),
              "Point2D must be layout-compatible with Coord[2] for the "
              "flat-coords facade");

/// Views `pts[0..n)` as the flat coord array (pts[0].x, pts[0].y,
/// pts[1].x, ...) of length 2n. The view borrows the point storage: it is
/// valid exactly as long as the pointed-to array and must only be read.
inline const Coord* AsFlatCoords(const Point2D* pts) {
  // sas-lint: allow(reinterpret-cast): layout pinned by the static_asserts
  // above; this facade exists so no other file needs a raw cast.
  return reinterpret_cast<const Coord*>(pts);
}

}  // namespace sas

#endif  // SAS_AWARE_FLAT_COORDS_H_

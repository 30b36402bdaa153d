// KD-HIERARCHY (Algorithm 2): a kd-tree over weighted d-dimensional keys
// used both as the aggregation hierarchy of the product-structure
// summarizer (Section 4, any d) and as the space partition of the two-pass
// algorithm (Section 5).
//
// Axes are split round-robin; the split point on the current axis is the
// weighted median (the position minimizing |left mass - right mass|). For
// hierarchy axes the datasets lay leaf coordinates out in DFS order, so the
// coordinate median is a split over the hierarchy's canonical linearization
// (see DESIGN.md, substitution 3).
//
// Points are flat: point i occupies coords[i*dims .. i*dims+dims). The 2-D
// datasets' Point2D arrays enter through the flat-coords facade
// (aware/flat_coords.h) without a copy.

#ifndef SAS_AWARE_KD_HIERARCHY_H_
#define SAS_AWARE_KD_HIERARCHY_H_

#include <cstddef>
#include <vector>

#include "aware/kd_scratch.h"
#include "core/types.h"

namespace sas {

class KdHierarchy {
 public:
  static constexpr int kNull = -1;

  struct Node {
    int parent = kNull;
    int left = kNull;
    int right = kNull;
    int axis = 0;       // split axis (leaves: unused)
    Coord split = 0;    // points with axis-coord < split go left
    double mass = 0.0;  // total mass under this node
    // Leaves hold a contiguous run [begin, end) of item_order(): a single
    // item in a full-depth build unless it hit duplicate points; under a
    // leaf_mass cap, every item of a cell whose mass is <= the cap.
    std::size_t begin = 0;
    std::size_t end = 0;

    bool IsLeaf() const { return left == kNull; }
  };

  /// Builds the tree over n = mass.size() flat points of `dims` coordinates
  /// with per-point mass (IPPS probabilities or uniform 1s). Points should
  /// be distinct; exact duplicates are kept together in one leaf.
  ///
  /// Each axis' item order is presorted once by a stable LSD radix sort of
  /// the indices on that axis' coordinate, over only the bits on which
  /// the coordinates differ (none for a constant axis), so ties stay in
  /// index order. When those bits number at most 32, each item sorts as
  /// one 64-bit word (key << 32 | index). The split scan walks the node's
  /// order once, gathering each item's coordinate and mass and extending
  /// the prefix sum, and stops at the first coordinate boundary past the
  /// mass crossing (2 * prefix >= total): no later boundary can beat the
  /// best gap, so it picks the same first-minimum boundary as a full scan.
  /// Each split keeps the other d - 1 orders sorted by a branch-free
  /// stable partition around the split coordinate, so the per-level work
  /// is linear; a left child takes its mass from the split scan's prefix
  /// sum instead of re-summing. All working memory — axis orders, radix
  /// buffers, partition buffer, task stack — comes from the scratch
  /// arena; builds against a warm scratch allocate only the returned
  /// tree. A null scratch uses an internal thread-local workspace. The
  /// presort runs inside the span `aware.kd_presort`.
  static KdHierarchy Build(const std::vector<Coord>& coords, int dims,
                           const std::vector<double>& mass,
                           KdBuildScratch* scratch = nullptr);

  /// The 2-D build: `pts` viewed as flat coordinates with dims = 2.
  static KdHierarchy Build(const std::vector<Point2D>& pts,
                           const std::vector<double>& mass,
                           KdBuildScratch* scratch = nullptr);

  /// Rebuilds *out in place, reusing its node and item-order storage in
  /// addition to the scratch arena: a warm (scratch, out) pair makes the
  /// whole build allocation-free. With leaf_mass <= 0 it produces exactly
  /// the tree Build returns. With leaf_mass > 0 a node whose mass is
  /// <= leaf_mass is not split: it becomes a leaf holding its whole run,
  /// in the sorted order of the axis it would split on next. The result is
  /// the full tree cut at the first node on each path at or under the cap.
  static void BuildInto(const std::vector<Coord>& coords, int dims,
                        const std::vector<double>& mass,
                        KdBuildScratch* scratch, KdHierarchy* out,
                        double leaf_mass = 0.0);

  const std::vector<Node>& nodes() const { return nodes_; }
  int root() const { return nodes_.empty() ? kNull : 0; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int dims() const { return dims_; }

  /// Item indices (into the build vectors) in kd DFS-leaf order.
  const std::vector<std::size_t>& item_order() const { return item_order_; }

  /// Descends by split coordinates to the leaf region containing the flat
  /// point `pt` (dims() coordinates). Works for arbitrary points, not only
  /// build points. Returns kNull on an empty tree.
  int LocateLeaf(const Coord* pt) const;
  /// LocateLeaf for a tree built with dims = 2.
  int LocateLeaf(const Point2D& pt) const;

 private:
  static void BuildFlat(const Coord* coords, int dims, const double* mass,
                        std::size_t n, double leaf_mass,
                        KdBuildScratch* scratch, KdHierarchy* out);

  int dims_ = 0;
  std::vector<Node> nodes_;
  std::vector<std::size_t> item_order_;
};

}  // namespace sas

#endif  // SAS_AWARE_KD_HIERARCHY_H_

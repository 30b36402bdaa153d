#include "aware/kd_hierarchy.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "aware/flat_coords.h"
#include "core/simd.h"

namespace sas {

namespace {

struct BuildTask {
  std::int32_t node;
  std::uint32_t begin, end;
  std::int32_t depth;
  std::int32_t parent_axis;  // axis the parent split on; -1 for the root
};

}  // namespace

KdHierarchy KdHierarchy::Build(const std::vector<Coord>& coords, int dims,
                               const std::vector<double>& mass,
                               KdBuildScratch* scratch) {
  KdHierarchy tree;
  BuildInto(coords, dims, mass, scratch, &tree);
  return tree;
}

KdHierarchy KdHierarchy::Build(const std::vector<Point2D>& pts,
                               const std::vector<double>& mass,
                               KdBuildScratch* scratch) {
  assert(pts.size() == mass.size());
  KdHierarchy tree;
  BuildFlat(AsFlatCoords(pts.data()), /*dims=*/2, mass.data(), mass.size(),
            scratch, &tree);
  return tree;
}

void KdHierarchy::BuildInto(const std::vector<Coord>& coords, int dims,
                            const std::vector<double>& mass,
                            KdBuildScratch* scratch, KdHierarchy* out) {
  assert(dims >= 1);
  assert(coords.size() == mass.size() * static_cast<std::size_t>(dims));
  BuildFlat(coords.data(), dims, mass.data(), mass.size(), scratch, out);
}

void KdHierarchy::BuildFlat(const Coord* coords, int dims, const double* mass,
                            std::size_t n, KdBuildScratch* scratch,
                            KdHierarchy* out) {
  out->dims_ = dims;
  if (n == 0) {
    out->nodes_.clear();
    out->item_order_.clear();
    return;
  }
  if (scratch == nullptr) {
    thread_local KdBuildScratch local;
    scratch = &local;
  }
  MonotonicArena& arena = scratch->arena;
  arena.Reset();

  auto axis_coord = [&](std::uint32_t item, int axis) {
    return coords[static_cast<std::size_t>(item) * dims + axis];
  };

  // One item order per axis, each sorted once (coordinate, then index so
  // ties are deterministic); every split keeps all d orders sorted by a
  // stable partition instead of re-sorting the subrange per node.
  std::uint32_t** ord = arena.AllocateArray<std::uint32_t*>(dims);
  for (int axis = 0; axis < dims; ++axis) {
    ord[axis] = arena.AllocateArray<std::uint32_t>(n);
    std::uint32_t* o = ord[axis];
    for (std::size_t i = 0; i < n; ++i) o[i] = static_cast<std::uint32_t>(i);
    std::sort(o, o + n, [&](std::uint32_t a, std::uint32_t b) {
      const Coord ca = axis_coord(a, axis);
      const Coord cb = axis_coord(b, axis);
      return ca != cb ? ca < cb : a < b;
    });
  }
  std::uint32_t* part_tmp = arena.AllocateArray<std::uint32_t>(n);
  // Median-scan working arrays (one node range at a time): gathered axis
  // coordinates and the running weighted prefix, consumed by the dispatched
  // min-gap kernel.
  double* pref = arena.AllocateArray<double>(n);
  Coord* vals = arena.AllocateArray<Coord>(n);

  const std::size_t node_cap = 2 * n;  // at most 2n - 1 nodes
  std::vector<Node>& nodes = out->nodes_;
  nodes.clear();
  nodes.reserve(node_cap);
  // DFS with left child processed first: outstanding tasks cover disjoint
  // item ranges, so the stack holds at most n of them.
  BuildTask* stack = arena.AllocateArray<BuildTask>(n + 1);
  std::size_t stack_size = 0;

  std::vector<std::size_t>& item_order = out->item_order_;
  item_order.resize(n);
  nodes.emplace_back();
  stack[stack_size++] = {0, 0, static_cast<std::uint32_t>(n), 0, -1};
  while (stack_size > 0) {
    const BuildTask t = stack[--stack_size];
    Node& node = nodes[static_cast<std::size_t>(t.node)];
    node.begin = t.begin;
    node.end = t.end;
    // Sum the node mass in the order inherited from the parent's split axis
    // (the root sums input order), matching the classic build's summation
    // sequence so masses agree bit-for-bit on duplicate-free inputs.
    double total = 0.0;
    if (t.parent_axis < 0) {
      for (std::uint32_t i = t.begin; i < t.end; ++i) total += mass[i];
    } else {
      const std::uint32_t* po = ord[t.parent_axis];
      for (std::uint32_t i = t.begin; i < t.end; ++i) total += mass[po[i]];
    }
    node.mass = total;
    if (t.end - t.begin <= 1) {
      if (t.end > t.begin) item_order[t.begin] = ord[0][t.begin];
      continue;  // leaf
    }

    // Choose the split axis round-robin; fall back to the next axis when
    // all coordinates coincide on the preferred one. Weighted median: the
    // coordinate boundary minimizing |left mass - right mass|; only
    // boundaries between distinct coordinates are valid split positions.
    int axis = t.depth % dims;
    int used_axis = axis;
    bool split_found = false;
    std::uint32_t split_pos = t.begin;
    Coord split_val = 0;
    for (int attempt = 0; attempt < dims && !split_found;
         ++attempt, axis = (axis + 1) % dims) {
      const std::uint32_t* o = ord[axis];
      if (axis_coord(o[t.begin], axis) == axis_coord(o[t.end - 1], axis)) {
        continue;  // degenerate on this axis
      }
      // Pass 1 (serial by construction — the prefix sum's addition order is
      // part of the bit-identity contract): gather the axis coordinates and
      // accumulate the weighted prefix. Pass 2: the dispatched min-gap scan
      // picks the first boundary minimizing |left - right| mass, exactly as
      // the classic fused loop did.
      const std::uint32_t len = t.end - t.begin;
      double run = 0.0;
      for (std::uint32_t i = 0; i < len; ++i) {
        const std::uint32_t item = o[t.begin + i];
        vals[i] = axis_coord(item, axis);
        run += mass[item];
        pref[i] = run;
      }
      const std::size_t pos = simd::MinGapScan(pref, vals, len, total);
      if (pos != simd::kNoSplit) {
        split_pos = t.begin + static_cast<std::uint32_t>(pos) + 1;
        split_val = vals[pos + 1];
      }
      split_found = pos != simd::kNoSplit;
      used_axis = axis;
    }
    if (!split_found) {
      // All points identical: keep them together as one leaf, emitted in
      // the order of the last attempted axis (ties are index-ordered, so
      // any axis agrees).
      const std::uint32_t* o = ord[(t.depth + dims - 1) % dims];
      for (std::uint32_t i = t.begin; i < t.end; ++i) {
        item_order[i] = o[i];
      }
      continue;
    }
    // The used axis' order is already partitioned by position; stable-
    // partition every other axis' order around the split coordinate so both
    // children again see all orders sorted.
    for (int a = 0; a < dims; ++a) {
      if (a == used_axis) continue;
      std::uint32_t* o2 = ord[a];
      std::uint32_t nl = t.begin, nr = 0;
      for (std::uint32_t i = t.begin; i < t.end; ++i) {
        const std::uint32_t item = o2[i];
        if (axis_coord(item, used_axis) < split_val) {
          o2[nl++] = item;
        } else {
          part_tmp[nr++] = item;
        }
      }
      assert(nl == split_pos);
      std::copy(part_tmp, part_tmp + nr, o2 + nl);
    }

    const int left = static_cast<int>(nodes.size());
    const int right = left + 1;
    node.axis = used_axis;
    node.split = split_val;
    node.left = left;
    node.right = right;
    nodes.emplace_back().parent = t.node;
    nodes.emplace_back().parent = t.node;
    stack[stack_size++] = {right, split_pos, t.end, t.depth + 1, used_axis};
    stack[stack_size++] = {left, t.begin, split_pos, t.depth + 1, used_axis};
  }

  assert(nodes.size() < node_cap);
}

int KdHierarchy::LocateLeaf(const Coord* pt) const {
  if (nodes_.empty()) return kNull;
  int v = 0;
  while (!nodes_[v].IsLeaf()) {
    const Node& node = nodes_[v];
    v = pt[node.axis] < node.split ? node.left : node.right;
  }
  return v;
}

int KdHierarchy::LocateLeaf(const Point2D& pt) const {
  assert(nodes_.empty() || dims_ == 2);
  return LocateLeaf(AsFlatCoords(&pt));
}

}  // namespace sas

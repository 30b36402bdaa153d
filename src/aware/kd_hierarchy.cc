#include "aware/kd_hierarchy.h"

#include <algorithm>
#include <bit>
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
  // Order to sum the node's mass in: the axis the parent split on, or one
  // of the two markers below.
  std::int32_t mass_axis;
};

constexpr std::int32_t kInputOrder = -1;  // the root: sum in input order
constexpr std::int32_t kMassSet = -2;     // mass already set by the parent

// Widest presort digit: a 2^11-entry histogram stays in L1.
constexpr int kMaxDigitBits = 11;

// Stable LSD radix sort of (key, index) pairs on the low `width` key bits,
// which must be the only bits on which the keys differ. On entry keys[i]
// is the key of idx[i]; on return idx is in ascending key order, ties in
// entry order. Passes ping-pong between (keys, idx) and (keys_tmp,
// idx_tmp); digits are at most `max_digit` bits wide, spread evenly over
// the passes, and `count` holds 2^max_digit entries. keys and keys_tmp
// are clobbered.
void RadixSortByKey(std::size_t n, int width, int max_digit, Coord* keys,
                    Coord* keys_tmp, std::uint32_t* idx,
                    std::uint32_t* idx_tmp, std::uint32_t* count) {
  if (width == 0) return;  // all keys equal: already in order
  const int passes = (width + max_digit - 1) / max_digit;
  const int digit = (width + passes - 1) / passes;
  const std::size_t buckets = std::size_t{1} << digit;
  const Coord mask = buckets - 1;
  Coord* src_k = keys;
  Coord* dst_k = keys_tmp;
  std::uint32_t* src_i = idx;
  std::uint32_t* dst_i = idx_tmp;
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = pass * digit;
    std::fill(count, count + buckets, 0u);
    for (std::size_t i = 0; i < n; ++i) ++count[(src_k[i] >> shift) & mask];
    std::uint32_t sum = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
      const std::uint32_t c = count[b];
      count[b] = sum;
      sum += c;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Coord k = src_k[i];
      const std::uint32_t at = count[(k >> shift) & mask]++;
      dst_k[at] = k;
      dst_i[at] = src_i[i];
    }
    std::swap(src_k, dst_k);
    std::swap(src_i, dst_i);
  }
  if (src_i != idx) std::copy(src_i, src_i + n, idx);
}

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
            /*leaf_mass=*/0.0, scratch, &tree);
  return tree;
}

void KdHierarchy::BuildInto(const std::vector<Coord>& coords, int dims,
                            const std::vector<double>& mass,
                            KdBuildScratch* scratch, KdHierarchy* out,
                            double leaf_mass) {
  assert(dims >= 1);
  assert(coords.size() == mass.size() * static_cast<std::size_t>(dims));
  BuildFlat(coords.data(), dims, mass.data(), mass.size(), leaf_mass, scratch,
            out);
}

void KdHierarchy::BuildFlat(const Coord* coords, int dims, const double* mass,
                            std::size_t n, double leaf_mass,
                            KdBuildScratch* scratch, KdHierarchy* out) {
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
  }
  std::uint32_t* part_tmp = arena.AllocateArray<std::uint32_t>(n);
  // Median-scan working arrays (one node range at a time): gathered axis
  // coordinates and the running weighted prefix, consumed by the dispatched
  // min-gap kernel. `vals` and `keys_tmp` double as the presort's key
  // ping-pong buffers, `part_tmp` as its index buffer.
  double* pref = arena.AllocateArray<double>(n);
  Coord* vals = arena.AllocateArray<Coord>(n);
  Coord* keys_tmp = arena.AllocateArray<Coord>(n);
  // Presort digit: about log2(n) bits, so a pass costs O(n) and tiny builds
  // keep a tiny histogram.
  const int max_digit =
      std::clamp(static_cast<int>(std::bit_width(n)), 4, kMaxDigitBits);
  std::uint32_t* count =
      arena.AllocateArray<std::uint32_t>(std::size_t{1} << max_digit);
  for (int axis = 0; axis < dims; ++axis) {
    std::uint32_t* o = ord[axis];
    Coord diff = 0;  // bits on which some coordinate differs from the first
    for (std::size_t i = 0; i < n; ++i) {
      o[i] = static_cast<std::uint32_t>(i);
      vals[i] = axis_coord(static_cast<std::uint32_t>(i), axis);
      diff |= vals[i] ^ vals[0];
    }
    RadixSortByKey(n, static_cast<int>(std::bit_width(diff)), max_digit, vals,
                   keys_tmp, o, part_tmp, count);
  }

  const std::size_t node_cap = 2 * n;  // at most 2n - 1 nodes
  const bool capped = leaf_mass > 0.0;
  std::vector<Node>& nodes = out->nodes_;
  nodes.clear();
  // A capped tree is usually far smaller than 2n nodes, so it grows on
  // demand (a warm tree keeps its capacity).
  if (!capped) nodes.reserve(node_cap);
  // DFS with left child processed first: outstanding tasks cover disjoint
  // item ranges, so the stack holds at most n of them.
  BuildTask* stack = arena.AllocateArray<BuildTask>(n + 1);
  std::size_t stack_size = 0;

  std::vector<std::size_t>& item_order = out->item_order_;
  item_order.resize(n);
  nodes.emplace_back();
  stack[stack_size++] = {0, 0, static_cast<std::uint32_t>(n), 0, kInputOrder};
  while (stack_size > 0) {
    const BuildTask t = stack[--stack_size];
    Node& node = nodes[static_cast<std::size_t>(t.node)];
    node.begin = t.begin;
    node.end = t.end;
    // Sum the node mass in the order inherited from the parent's split axis
    // (the root sums input order), matching the classic build's summation
    // sequence so masses agree bit-for-bit on duplicate-free inputs. A left
    // child's sum is already known: the parent's split scan added the same
    // items in the same order from 0.0.
    double total = 0.0;
    if (t.mass_axis == kMassSet) {
      total = node.mass;
    } else if (t.mass_axis == kInputOrder) {
      for (std::uint32_t i = t.begin; i < t.end; ++i) total += mass[i];
    } else {
      const std::uint32_t* po = ord[t.mass_axis];
      for (std::uint32_t i = t.begin; i < t.end; ++i) total += mass[po[i]];
    }
    node.mass = total;
    if (t.end - t.begin <= 1) {
      if (t.end > t.begin) item_order[t.begin] = ord[0][t.begin];
      continue;  // leaf
    }
    if (capped && total <= leaf_mass) {
      // Mass-capped leaf: the whole run, in the order of the axis the node
      // would split on next.
      const std::uint32_t* o = ord[t.depth % dims];
      for (std::uint32_t i = t.begin; i < t.end; ++i) item_order[i] = o[i];
      continue;
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
    // children again see all orders sorted. The partition is branch-free:
    // each item is stored at both destinations and the left cursor advances
    // by its side flag (the right cursor is i - nl).
    for (int a = 0; a < dims; ++a) {
      if (a == used_axis) continue;
      std::uint32_t* o2 = ord[a];
      std::uint32_t nl = t.begin;
      for (std::uint32_t i = t.begin; i < t.end; ++i) {
        const std::uint32_t item = o2[i];
        o2[nl] = item;  // nl <= i: overwrites only consumed slots
        part_tmp[i - nl] = item;
        nl += axis_coord(item, used_axis) < split_val;
      }
      assert(nl == split_pos);
      std::copy(part_tmp, part_tmp + (t.end - nl), o2 + nl);
    }

    const int left = static_cast<int>(nodes.size());
    const int right = left + 1;
    node.axis = used_axis;
    node.split = split_val;
    node.left = left;
    node.right = right;
    nodes.emplace_back().parent = t.node;
    nodes.emplace_back().parent = t.node;
    nodes[static_cast<std::size_t>(left)].mass = pref[split_pos - t.begin - 1];
    stack[stack_size++] = {right, split_pos, t.end, t.depth + 1, used_axis};
    stack[stack_size++] = {left, t.begin, split_pos, t.depth + 1, kMassSet};
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

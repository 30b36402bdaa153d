#include "aware/kd_hierarchy.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "aware/flat_coords.h"
#include "core/telemetry.h"

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

// Widest key RadixSortPacked takes: a key and a 32-bit index share a word.
constexpr int kPackedKeyBits = 32;

// RadixSortByKey for keys at most kPackedKeyBits wide, with the same
// contract and result. Each item becomes one word, key << 32 | index, so a
// scatter pass moves 8 bytes instead of a 12-byte (key, index) pair, and
// one read of the words counts the histograms of every pass (an LSD pass'
// histogram does not depend on the order). `count` holds one 2^max_digit
// histogram per pass: ceil(kPackedKeyBits / max_digit) of them.
void RadixSortPacked(std::size_t n, int width, int max_digit, Coord* keys,
                     Coord* keys_tmp, std::uint32_t* idx,
                     std::uint32_t* count) {
  assert(width <= kPackedKeyBits);
  if (width == 0) return;  // all keys equal: already in order
  const int passes = (width + max_digit - 1) / max_digit;
  const int digit = (width + passes - 1) / passes;
  const std::size_t buckets = std::size_t{1} << digit;
  const Coord mask = buckets - 1;
  const Coord key_mask = (Coord{1} << width) - 1;
  std::fill(count, count + passes * buckets, 0u);
  for (std::size_t i = 0; i < n; ++i) {
    const Coord w = (keys[i] & key_mask) << kPackedKeyBits | idx[i];
    keys[i] = w;
    for (int pass = 0; pass < passes; ++pass) {
      const int shift = kPackedKeyBits + pass * digit;
      ++count[pass * buckets + ((w >> shift) & mask)];
    }
  }
  for (int pass = 0; pass < passes; ++pass) {
    std::uint32_t sum = 0;
    for (std::size_t b = pass * buckets; b < (pass + 1) * buckets; ++b) {
      const std::uint32_t c = count[b];
      count[b] = sum;
      sum += c;
    }
  }
  Coord* src = keys;
  Coord* dst = keys_tmp;
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = kPackedKeyBits + pass * digit;
    std::uint32_t* c = count + pass * buckets;
    for (std::size_t i = 0; i < n; ++i) {
      const Coord w = src[i];
      dst[c[(w >> shift) & mask]++] = w;
    }
    std::swap(src, dst);
  }
  for (std::size_t i = 0; i < n; ++i) {
    idx[i] = static_cast<std::uint32_t>(src[i]);  // the low word: the index
  }
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
  {
    // The presort has its own span inside the caller's, so a trace
    // separates it from the levels. It only observes.
    static telemetry::Histogram* const presort_ns =
        telemetry::GetHistogram("sas.aware.kd_presort_ns");
    telemetry::Span presort("aware.kd_presort", presort_ns);
    // Key ping-pong buffers; `part_tmp` doubles as the index buffer.
    Coord* keys = arena.AllocateArray<Coord>(n);
    Coord* keys_tmp = arena.AllocateArray<Coord>(n);
    // Digit: about log2(n) bits, so a pass costs O(n) and tiny builds keep
    // a tiny histogram; one histogram per pass of a packed sort.
    const int max_digit =
        std::clamp(static_cast<int>(std::bit_width(n)), 4, kMaxDigitBits);
    const int packed_passes = (kPackedKeyBits + max_digit - 1) / max_digit;
    std::uint32_t* count = arena.AllocateArray<std::uint32_t>(
        static_cast<std::size_t>(packed_passes) << max_digit);
    for (int axis = 0; axis < dims; ++axis) {
      std::uint32_t* o = ord[axis];
      Coord diff = 0;  // bits on which some coordinate differs from the first
      for (std::size_t i = 0; i < n; ++i) {
        o[i] = static_cast<std::uint32_t>(i);
        keys[i] = axis_coord(static_cast<std::uint32_t>(i), axis);
        diff |= keys[i] ^ keys[0];
      }
      const int width = static_cast<int>(std::bit_width(diff));
      if (width <= kPackedKeyBits) {
        RadixSortPacked(n, width, max_digit, keys, keys_tmp, o, count);
      } else {
        RadixSortByKey(n, width, max_digit, keys, keys_tmp, o, part_tmp,
                       count);
      }
    }
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
    double left_mass = 0.0;
    for (int attempt = 0; attempt < dims && !split_found;
         ++attempt, axis = (axis + 1) % dims) {
      const std::uint32_t* o = ord[axis];
      if (axis_coord(o[t.begin], axis) == axis_coord(o[t.end - 1], axis)) {
        continue;  // degenerate on this axis
      }
      // One serial pass (the prefix sum's addition order is part of the
      // bit-identity contract) picks the first boundary minimizing
      // gap = |total - 2 * prefix|, as the classic scan did. Masses are
      // non-negative, so d = total - 2 * prefix never rises, even rounded:
      // the gap falls while d >= 0 and rises after. The first boundary with
      // d <= 0 is therefore the last one that can strictly beat the best
      // gap, and the scan stops there, about halfway through the node.
      Coord prev = axis_coord(o[t.begin], axis);
      double run = mass[o[t.begin]];
      double best_gap = std::numeric_limits<double>::infinity();
      for (std::uint32_t i = t.begin + 1; i < t.end; ++i) {
        const std::uint32_t item = o[i];
        const Coord c = axis_coord(item, axis);
        if (c != prev) {  // a boundary: items [t.begin, i) go left
          const double d = total - 2.0 * run;
          const double gap = std::fabs(d);
          if (gap < best_gap) {
            best_gap = gap;
            split_pos = i;
            split_val = c;
            left_mass = run;
            split_found = true;
          }
          if (d <= 0.0) break;
          prev = c;
        }
        run += mass[item];
      }
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
    nodes[static_cast<std::size_t>(left)].mass = left_mass;
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

#include "structure/hierarchy.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>

namespace sas {

void Hierarchy::FinishBuild(bool assign_keys_by_dfs, bool propagate_ranges) {
  const int n = num_nodes();
  children_.assign(n, {});
  for (int v = 1; v < n; ++v) {
    assert(nodes_[v].parent >= 0 && nodes_[v].parent < v);
    children_[nodes_[v].parent].push_back(v);
  }
  assert(n == 0 || nodes_[0].parent == kNoParent);

  // Iterative DFS: assign depths and leaf-rank intervals.
  keys_in_dfs_.clear();
  std::vector<int> stack;
  std::vector<int> order;  // nodes in DFS pre-order
  if (n > 0) stack.push_back(0);
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    order.push_back(v);
    nodes_[v].depth = (v == 0) ? 0 : nodes_[nodes_[v].parent].depth + 1;
    nodes_[v].leaf_begin = 0;
    nodes_[v].leaf_end = 0;
    // Push children in reverse so DFS visits them left-to-right.
    const auto& ch = children_[v];
    for (auto it = ch.rbegin(); it != ch.rend(); ++it) stack.push_back(*it);
  }
  // Leaf ranks in DFS order.
  std::size_t rank = 0;
  for (int v : order) {
    if (is_leaf(v)) {
      if (assign_keys_by_dfs) nodes_[v].key = static_cast<KeyId>(rank);
      nodes_[v].leaf_begin = rank;
      nodes_[v].leaf_end = rank + 1;
      ++rank;
    }
  }
  // Internal intervals: process in reverse pre-order so children are done.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const int v = *it;
    if (is_leaf(v)) continue;
    nodes_[v].leaf_begin = nodes_[children_[v].front()].leaf_begin;
    nodes_[v].leaf_end = nodes_[children_[v].back()].leaf_end;
    if (propagate_ranges) {
      // Coordinate span of descendants (coord-built trees; tries keep
      // their dyadic prefix ranges instead).
      nodes_[v].range.lo = nodes_[children_[v].front()].range.lo;
      nodes_[v].range.hi = nodes_[children_[v].back()].range.hi;
    }
  }

  keys_in_dfs_.resize(rank);
  leaf_of_key_.assign(rank, -1);
  rank_of_key_.assign(rank, 0);
  for (int v : order) {
    if (!is_leaf(v)) continue;
    const KeyId k = nodes_[v].key;
    assert(k < rank);
    keys_in_dfs_[nodes_[v].leaf_begin] = k;
    leaf_of_key_[k] = v;
    rank_of_key_[k] = nodes_[v].leaf_begin;
  }
}

Hierarchy Hierarchy::FromParents(std::vector<int> parent) {
  Hierarchy h;
  h.nodes_.resize(parent.size());
  for (std::size_t v = 0; v < parent.size(); ++v) {
    h.nodes_[v].parent = parent[v];
  }
  h.FinishBuild(/*assign_keys_by_dfs=*/true, /*propagate_ranges=*/false);
  // Default coordinate layout: leaf coordinate = DFS rank.
  for (int v = 0; v < h.num_nodes(); ++v) {
    if (h.is_leaf(v)) {
      h.nodes_[v].range = {h.nodes_[v].leaf_begin, h.nodes_[v].leaf_begin + 1};
    }
  }
  h.FinishBuild(/*assign_keys_by_dfs=*/true, /*propagate_ranges=*/true);
  return h;
}

Hierarchy Hierarchy::Balanced(int depth, int branching) {
  assert(depth >= 0 && branching >= 2);
  std::vector<int> parent{kNoParent};
  // Level-order construction.
  std::size_t level_begin = 0;
  std::size_t level_size = 1;
  for (int d = 0; d < depth; ++d) {
    const std::size_t next_begin = parent.size();
    for (std::size_t v = level_begin; v < level_begin + level_size; ++v) {
      for (int c = 0; c < branching; ++c) {
        parent.push_back(static_cast<int>(v));
      }
    }
    level_begin = next_begin;
    level_size *= branching;
  }
  return FromParents(std::move(parent));
}

Hierarchy Hierarchy::Random(std::size_t num_leaves, int max_branching,
                            Rng* rng) {
  assert(num_leaves >= 1 && max_branching >= 2);
  // Recursive splitting, materialized iteratively with an explicit stack of
  // (node, leaves to distribute) tasks. Children are appended after their
  // parent, so parent[v] < v holds.
  std::vector<int> parent{kNoParent};
  struct Task {
    int node;
    std::size_t leaves;
  };
  std::vector<Task> stack{{0, num_leaves}};
  while (!stack.empty()) {
    const Task t = stack.back();
    stack.pop_back();
    if (t.leaves <= 1) continue;  // node stays a leaf
    const std::size_t fan_limit =
        std::min<std::size_t>(static_cast<std::size_t>(max_branching),
                              t.leaves);
    const std::size_t fan = 2 + rng->NextBounded(fan_limit - 1);
    // Split t.leaves into `fan` positive parts.
    std::vector<std::size_t> part(fan, 1);
    for (std::size_t extra = t.leaves - fan; extra > 0; --extra) {
      part[rng->NextBounded(fan)] += 1;
    }
    for (std::size_t c = 0; c < fan; ++c) {
      const int child = static_cast<int>(parent.size());
      parent.push_back(t.node);
      stack.push_back({child, part[c]});
    }
  }
  return FromParents(std::move(parent));
}

namespace {

/// Recursive task for the compressed-trie build over sorted coordinates.
struct TrieTask {
  int node;
  std::size_t lo, hi;  // range in the sorted coordinate array
};

}  // namespace

Hierarchy Hierarchy::CompressedBinaryTrie(const std::vector<Coord>& coords,
                                          int bits) {
  assert(!coords.empty());
  assert(bits >= 1 && bits <= 64);
  (void)bits;
  const std::size_t n = coords.size();
  // Sort coordinate indices; coordinates must be distinct.
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return coords[a] < coords[b]; });
  for (std::size_t i = 1; i < n; ++i) {
    assert(coords[idx[i - 1]] < coords[idx[i]] && "coords must be distinct");
    (void)i;
  }

  Hierarchy h;
  h.nodes_.reserve(2 * n);
  h.nodes_.push_back({});  // root
  std::vector<TrieTask> stack{{0, 0, n}};
  while (!stack.empty()) {
    const TrieTask t = stack.back();
    stack.pop_back();
    const Coord lo_c = coords[idx[t.lo]];
    const Coord hi_c = coords[idx[t.hi - 1]];
    if (t.hi - t.lo == 1) {
      h.nodes_[t.node].key = static_cast<KeyId>(idx[t.lo]);
      h.nodes_[t.node].range = {lo_c, lo_c + 1};
      continue;
    }
    // Highest differing bit determines this node's dyadic prefix range and
    // the split point.
    const Coord diff = lo_c ^ hi_c;
    // 1-based index of the top set bit (diff != 0 here since lo_c != hi_c);
    // countl_zero rather than bit_width because the latter's return type
    // varies across libstdc++ versions (LWG 3656).
    const int hbit = 64 - std::countl_zero(diff);
    Coord block, base;
    if (hbit >= 64) {
      base = 0;
      block = ~Coord{0};  // full 64-bit domain (saturated upper bound)
    } else {
      block = Coord{1} << hbit;
      base = (lo_c >> hbit) << hbit;
    }
    h.nodes_[t.node].range = {base, base + block};
    const Coord mid_threshold = base + block / 2 + block % 2;
    // Binary search for the first coordinate >= mid_threshold.
    std::size_t lo = t.lo, hi = t.hi;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (coords[idx[mid]] < mid_threshold) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    assert(lo > t.lo && lo < t.hi);
    const int left = static_cast<int>(h.nodes_.size());
    h.nodes_.push_back({});
    h.nodes_[left].parent = t.node;
    const int right = static_cast<int>(h.nodes_.size());
    h.nodes_.push_back({});
    h.nodes_[right].parent = t.node;
    // Push right first so DFS pre-order visits left (smaller coords) first.
    stack.push_back({right, lo, t.hi});
    stack.push_back({left, t.lo, lo});
  }
  h.FinishBuild(/*assign_keys_by_dfs=*/false, /*propagate_ranges=*/false);
  return h;
}

void Hierarchy::SetLeafCoords(const std::vector<Coord>& coord_by_rank) {
  assert(coord_by_rank.size() == num_keys());
  for (std::size_t r = 1; r < coord_by_rank.size(); ++r) {
    assert(coord_by_rank[r - 1] < coord_by_rank[r]);
    (void)r;
  }
  // Builders guarantee parent(v) < v, so a reverse scan sees children
  // before parents.
  const int n = num_nodes();
  for (int v = n - 1; v >= 0; --v) {
    if (is_leaf(v)) {
      const Coord c = coord_by_rank[nodes_[v].leaf_begin];
      nodes_[v].range = {c, c + 1};
    } else {
      nodes_[v].range.lo = nodes_[children_[v].front()].range.lo;
      nodes_[v].range.hi = nodes_[children_[v].back()].range.hi;
    }
  }
}

}  // namespace sas

// Rooted-tree hierarchies over keys (Section 3).
//
// Keys are the leaves of a tree; the range family consists of the leaf sets
// under internal nodes (IP prefixes, geographic areas, trouble-code
// subtrees, ...). Leaves are numbered in DFS order so that every node's leaf
// set is a contiguous rank interval — this linearization is used both by
// discrepancy checks and by kd-tree splits on hierarchy axes.

#ifndef SAS_STRUCTURE_HIERARCHY_H_
#define SAS_STRUCTURE_HIERARCHY_H_

#include <cstddef>
#include <vector>

#include "core/random.h"
#include "core/types.h"

namespace sas {

class Hierarchy {
 public:
  static constexpr int kNoParent = -1;

  /// Builds from a parent array: parent[0] must be kNoParent (node 0 is the
  /// root); every other parent[v] < v. Leaves (childless nodes) receive key
  /// ids in DFS order.
  static Hierarchy FromParents(std::vector<int> parent);

  /// Complete tree of the given depth and branching factor
  /// (depth 0 = a single leaf). Has branching^depth keys.
  static Hierarchy Balanced(int depth, int branching);

  /// Random tree with `num_leaves` leaves built by recursive splitting with
  /// branching factor uniform in [2, max_branching].
  static Hierarchy Random(std::size_t num_leaves, int max_branching,
                          Rng* rng);

  /// Path-compressed binary trie over distinct coordinates in a domain of
  /// `bits` bits (the IP-prefix hierarchy of Example 1). Key id k is the key
  /// of coords[k]; every internal node corresponds to a dyadic prefix range.
  static Hierarchy CompressedBinaryTrie(const std::vector<Coord>& coords,
                                        int bits);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  std::size_t num_keys() const { return keys_in_dfs_.size(); }
  int root() const { return 0; }

  int parent(int v) const { return nodes_[v].parent; }
  const std::vector<int>& children(int v) const { return children_[v]; }
  bool is_leaf(int v) const { return children_[v].empty(); }
  int depth(int v) const { return nodes_[v].depth; }

  /// Key stored at a leaf node (only valid when is_leaf(v)).
  KeyId key_of_leaf(int v) const { return nodes_[v].key; }
  int leaf_of_key(KeyId k) const { return leaf_of_key_[k]; }

  /// DFS leaf-rank interval of node v: the keys under v are exactly
  /// key_at_rank(r) for r in [leaf_begin(v), leaf_end(v)).
  std::size_t leaf_begin(int v) const { return nodes_[v].leaf_begin; }
  std::size_t leaf_end(int v) const { return nodes_[v].leaf_end; }

  KeyId key_at_rank(std::size_t r) const { return keys_in_dfs_[r]; }
  std::size_t rank_of_key(KeyId k) const { return rank_of_key_[k]; }

  /// Coordinate interval covered by node v. For tries this is the dyadic
  /// prefix range; for synthetic trees, the span of leaf coordinates (which
  /// generators lay out in DFS order). Only meaningful when the hierarchy
  /// was built over coordinates or given DFS-ordered coordinates.
  Interval coord_range(int v) const { return nodes_[v].range; }

  /// Coordinate of the leaf holding key k (builders over coordinates only).
  Coord coord_of_key(KeyId k) const {
    return nodes_[leaf_of_key_[k]].range.lo;
  }

  /// Re-assigns leaf coordinates (strictly increasing, indexed by DFS rank)
  /// and recomputes internal coordinate spans. Used by generators that
  /// spread a synthetic hierarchy's leaves over a larger coordinate domain.
  void SetLeafCoords(const std::vector<Coord>& coord_by_rank);

 private:
  struct Node {
    int parent = kNoParent;
    KeyId key = 0;               // valid for leaves
    std::size_t leaf_begin = 0;  // DFS rank interval
    std::size_t leaf_end = 0;
    int depth = 0;
    Interval range;  // coordinate span (builders over coords)
  };

  /// Computes children lists, depths, DFS leaf ranks and (optionally)
  /// assigns key ids equal to DFS ranks when `assign_keys_by_dfs` is true.
  /// When `propagate_ranges` is true, internal coordinate spans are
  /// recomputed from the leaves (tries set their own dyadic ranges and skip
  /// this).
  void FinishBuild(bool assign_keys_by_dfs, bool propagate_ranges);

  std::vector<Node> nodes_;
  std::vector<std::vector<int>> children_;
  std::vector<int> leaf_of_key_;
  std::vector<KeyId> keys_in_dfs_;
  std::vector<std::size_t> rank_of_key_;
};

}  // namespace sas

#endif  // SAS_STRUCTURE_HIERARCHY_H_

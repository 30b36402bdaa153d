#include "structure/hierarchy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/random.h"

namespace sas {
namespace {

TEST(Hierarchy, FromParentsBasicShape) {
  // Root with two children (1, 2); node 1 has two leaf children (3, 4);
  // node 2 is itself a leaf.
  const Hierarchy h = Hierarchy::FromParents({-1, 0, 0, 1, 1});
  EXPECT_EQ(h.num_nodes(), 5);
  EXPECT_EQ(h.num_keys(), 3u);  // leaves: 2, 3, 4
  EXPECT_TRUE(h.is_leaf(2));
  EXPECT_TRUE(h.is_leaf(3));
  EXPECT_TRUE(h.is_leaf(4));
  EXPECT_FALSE(h.is_leaf(0));
  EXPECT_FALSE(h.is_leaf(1));
}

TEST(Hierarchy, DfsLeafRanks) {
  const Hierarchy h = Hierarchy::FromParents({-1, 0, 0, 1, 1});
  // DFS: 0 -> 1 -> 3, 4 -> 2. Leaves in order: 3, 4, 2.
  EXPECT_EQ(h.leaf_begin(0), 0u);
  EXPECT_EQ(h.leaf_end(0), 3u);
  EXPECT_EQ(h.leaf_begin(1), 0u);
  EXPECT_EQ(h.leaf_end(1), 2u);
  EXPECT_EQ(h.leaf_begin(2), 2u);
  EXPECT_EQ(h.leaf_end(2), 3u);
}

TEST(Hierarchy, KeysAssignedByDfs) {
  const Hierarchy h = Hierarchy::FromParents({-1, 0, 0, 1, 1});
  EXPECT_EQ(h.key_of_leaf(3), 0u);
  EXPECT_EQ(h.key_of_leaf(4), 1u);
  EXPECT_EQ(h.key_of_leaf(2), 2u);
  EXPECT_EQ(h.leaf_of_key(0), 3);
  EXPECT_EQ(h.rank_of_key(2), 2u);
  EXPECT_EQ(h.key_at_rank(0), 0u);
}

TEST(Hierarchy, Depths) {
  const Hierarchy h = Hierarchy::FromParents({-1, 0, 0, 1, 1});
  EXPECT_EQ(h.depth(0), 0);
  EXPECT_EQ(h.depth(1), 1);
  EXPECT_EQ(h.depth(3), 2);
}

TEST(Hierarchy, BalancedShape) {
  const Hierarchy h = Hierarchy::Balanced(3, 2);
  EXPECT_EQ(h.num_keys(), 8u);
  EXPECT_EQ(h.num_nodes(), 15);
  // Every leaf at depth 3.
  for (int v = 0; v < h.num_nodes(); ++v) {
    if (h.is_leaf(v)) {
      EXPECT_EQ(h.depth(v), 3);
    }
  }
}

TEST(Hierarchy, BalancedBranchingThree) {
  const Hierarchy h = Hierarchy::Balanced(2, 3);
  EXPECT_EQ(h.num_keys(), 9u);
  EXPECT_EQ(h.num_nodes(), 13);
}

TEST(Hierarchy, RandomHasRequestedLeafCount) {
  Rng rng(42);
  for (std::size_t leaves : {1u, 2u, 5u, 100u, 1000u}) {
    Rng local = rng.Split();
    const Hierarchy h = Hierarchy::Random(leaves, 5, &local);
    EXPECT_EQ(h.num_keys(), leaves);
  }
}

TEST(Hierarchy, RandomBranchingBounded) {
  Rng rng(43);
  const Hierarchy h = Hierarchy::Random(500, 4, &rng);
  for (int v = 0; v < h.num_nodes(); ++v) {
    if (!h.is_leaf(v)) {
      EXPECT_GE(h.children(v).size(), 2u);
      EXPECT_LE(h.children(v).size(), 4u);
    }
  }
}

TEST(Hierarchy, NodeIntervalsNest) {
  Rng rng(44);
  const Hierarchy h = Hierarchy::Random(200, 6, &rng);
  for (int v = 1; v < h.num_nodes(); ++v) {
    const int p = h.parent(v);
    EXPECT_GE(h.leaf_begin(v), h.leaf_begin(p));
    EXPECT_LE(h.leaf_end(v), h.leaf_end(p));
  }
}

TEST(Hierarchy, ChildIntervalsPartitionParent) {
  Rng rng(45);
  const Hierarchy h = Hierarchy::Random(300, 5, &rng);
  for (int v = 0; v < h.num_nodes(); ++v) {
    if (h.is_leaf(v)) continue;
    std::size_t cursor = h.leaf_begin(v);
    for (int c : h.children(v)) {
      EXPECT_EQ(h.leaf_begin(c), cursor);
      cursor = h.leaf_end(c);
    }
    EXPECT_EQ(cursor, h.leaf_end(v));
  }
}

TEST(CompressedBinaryTrie, SingleKey) {
  const Hierarchy h = Hierarchy::CompressedBinaryTrie({42}, 8);
  EXPECT_EQ(h.num_keys(), 1u);
  EXPECT_EQ(h.num_nodes(), 1);
  EXPECT_EQ(h.coord_of_key(0), 42u);
}

TEST(CompressedBinaryTrie, KeyIdsMatchInputOrder) {
  const std::vector<Coord> coords{200, 10, 100};
  const Hierarchy h = Hierarchy::CompressedBinaryTrie(coords, 8);
  EXPECT_EQ(h.num_keys(), 3u);
  for (KeyId k = 0; k < 3; ++k) {
    EXPECT_EQ(h.coord_of_key(k), coords[k]);
  }
}

TEST(CompressedBinaryTrie, DfsOrderIsCoordinateOrder) {
  Rng rng(46);
  std::set<Coord> coord_set;
  while (coord_set.size() < 300) coord_set.insert(rng.NextBounded(1 << 20));
  std::vector<Coord> coords(coord_set.begin(), coord_set.end());
  // Shuffle input order.
  for (std::size_t i = coords.size(); i > 1; --i) {
    std::swap(coords[i - 1], coords[rng.NextBounded(i)]);
  }
  const Hierarchy h = Hierarchy::CompressedBinaryTrie(coords, 20);
  Coord prev = 0;
  for (std::size_t r = 0; r < h.num_keys(); ++r) {
    const Coord c = h.coord_of_key(h.key_at_rank(r));
    if (r > 0) {
      EXPECT_LT(prev, c);
    }
    prev = c;
  }
}

TEST(CompressedBinaryTrie, NodeRangesAreDyadicAndContainLeaves) {
  Rng rng(47);
  std::set<Coord> coord_set;
  while (coord_set.size() < 200) coord_set.insert(rng.NextBounded(1 << 16));
  std::vector<Coord> coords(coord_set.begin(), coord_set.end());
  const Hierarchy h = Hierarchy::CompressedBinaryTrie(coords, 16);
  for (int v = 0; v < h.num_nodes(); ++v) {
    const Interval r = h.coord_range(v);
    // Power-of-two length, aligned.
    const Coord len = r.Length();
    EXPECT_EQ(len & (len - 1), 0u) << "node " << v;
    EXPECT_EQ(r.lo % len, 0u);
    // Contains exactly its leaf coords.
    for (std::size_t rank = h.leaf_begin(v); rank < h.leaf_end(v); ++rank) {
      EXPECT_TRUE(r.Contains(h.coord_of_key(h.key_at_rank(rank))));
    }
  }
}

TEST(CompressedBinaryTrie, InternalNodesHaveTwoChildren) {
  Rng rng(48);
  std::set<Coord> coord_set;
  while (coord_set.size() < 100) coord_set.insert(rng.NextBounded(1 << 12));
  std::vector<Coord> coords(coord_set.begin(), coord_set.end());
  const Hierarchy h = Hierarchy::CompressedBinaryTrie(coords, 12);
  for (int v = 0; v < h.num_nodes(); ++v) {
    if (!h.is_leaf(v)) {
      EXPECT_EQ(h.children(v).size(), 2u);
    }
  }
  // Path compression: node count is exactly 2*keys - 1.
  EXPECT_EQ(h.num_nodes(), 2 * static_cast<int>(h.num_keys()) - 1);
}

TEST(Hierarchy, SetLeafCoords) {
  Hierarchy h = Hierarchy::FromParents({-1, 0, 0, 1, 1});
  h.SetLeafCoords({10, 20, 30});
  EXPECT_EQ(h.coord_of_key(0), 10u);
  EXPECT_EQ(h.coord_of_key(2), 30u);
  // Internal spans cover children.
  EXPECT_EQ(h.coord_range(1).lo, 10u);
  EXPECT_EQ(h.coord_range(1).hi, 21u);
  EXPECT_EQ(h.coord_range(0).hi, 31u);
}

}  // namespace
}  // namespace sas

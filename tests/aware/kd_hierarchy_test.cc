#include "aware/kd_hierarchy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "core/random.h"

namespace sas {
namespace {

std::pair<std::vector<Point2D>, std::vector<double>> RandomPoints(
    std::size_t n, Coord domain, Rng* rng, bool uniform_mass = true) {
  std::set<std::pair<Coord, Coord>> seen;
  while (seen.size() < n) {
    seen.insert({rng->NextBounded(domain), rng->NextBounded(domain)});
  }
  std::vector<Point2D> pts;
  std::vector<double> mass;
  for (const auto& [x, y] : seen) {
    pts.push_back({x, y});
    mass.push_back(uniform_mass ? 1.0 : 0.01 + rng->NextDouble());
  }
  return {pts, mass};
}

/// n distinct flat 3-D points with unit mass.
std::pair<std::vector<Coord>, std::vector<double>> RandomPoints3D(
    std::size_t n, Coord domain, Rng* rng) {
  std::set<std::vector<Coord>> seen;
  while (seen.size() < n) {
    seen.insert({rng->NextBounded(domain), rng->NextBounded(domain),
                 rng->NextBounded(domain)});
  }
  std::vector<Coord> coords;
  for (const auto& pt : seen) coords.insert(coords.end(), pt.begin(), pt.end());
  return {coords, std::vector<double>(n, 1.0)};
}

/// True if the located leaf of tree `t` holds build item i.
bool LeafHoldsItem(const KdHierarchy& t, int leaf, std::size_t i) {
  const auto& node = t.nodes()[leaf];
  for (std::size_t j = node.begin; j < node.end; ++j) {
    if (t.item_order()[j] == i) return true;
  }
  return false;
}

/// Minimal-depth nodes with mass <= limit ("s-leaves" of Appendix E).
std::vector<int> SuperLeaves(const KdHierarchy& t, double limit) {
  std::vector<int> out;
  if (t.nodes().empty()) return out;
  std::vector<int> stack{t.root()};
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    const auto& node = t.nodes()[v];
    if (node.mass <= limit || node.IsLeaf()) {
      out.push_back(v);
      continue;
    }
    stack.push_back(node.right);
    stack.push_back(node.left);
  }
  return out;
}

/// Maximum leaf depth (root = 0).
int MaxDepth(const KdHierarchy& t) {
  if (t.nodes().empty()) return 0;
  std::vector<std::pair<int, int>> stack{{t.root(), 0}};
  int best = 0;
  while (!stack.empty()) {
    const auto [v, d] = stack.back();
    stack.pop_back();
    best = std::max(best, d);
    const auto& node = t.nodes()[v];
    if (!node.IsLeaf()) {
      stack.push_back({node.left, d + 1});
      stack.push_back({node.right, d + 1});
    }
  }
  return best;
}

TEST(KdHierarchy, EmptyInput) {
  const KdHierarchy t = KdHierarchy::Build({}, {});
  EXPECT_EQ(t.num_nodes(), 0);
  EXPECT_EQ(t.root(), KdHierarchy::kNull);
}

TEST(KdHierarchy, SinglePoint) {
  const KdHierarchy t = KdHierarchy::Build({{5, 7}}, {1.0});
  EXPECT_EQ(t.num_nodes(), 1);
  EXPECT_TRUE(t.nodes()[0].IsLeaf());
  EXPECT_DOUBLE_EQ(t.nodes()[0].mass, 1.0);
}

TEST(KdHierarchy, LeafPerPoint) {
  Rng rng(1);
  const auto [pts, mass] = RandomPoints(200, 1 << 16, &rng);
  const KdHierarchy t = KdHierarchy::Build(pts, mass);
  int leaves = 0;
  for (const auto& n : t.nodes()) leaves += n.IsLeaf();
  EXPECT_EQ(leaves, 200);
  EXPECT_EQ(t.num_nodes(), 2 * 200 - 1);
}

TEST(KdHierarchy, MassConservation) {
  Rng rng(2);
  const auto [pts, mass] = RandomPoints(150, 1 << 12, &rng, false);
  double total = 0.0;
  for (double m : mass) total += m;
  const KdHierarchy t = KdHierarchy::Build(pts, mass);
  EXPECT_NEAR(t.nodes()[t.root()].mass, total, 1e-9);
  // Parent mass = sum of child masses.
  for (const auto& n : t.nodes()) {
    if (!n.IsLeaf()) {
      EXPECT_NEAR(n.mass,
                  t.nodes()[n.left].mass + t.nodes()[n.right].mass, 1e-9);
    }
  }
}

TEST(KdHierarchy, BalancedSplits) {
  // With uniform masses, each split should be nearly even, so depth is
  // O(log n).
  Rng rng(3);
  const auto [pts, mass] = RandomPoints(1024, 1 << 20, &rng);
  const KdHierarchy t = KdHierarchy::Build(pts, mass);
  EXPECT_LE(MaxDepth(t), 16);  // log2(1024) = 10, generous slack
}

TEST(KdHierarchy, LocateLeafFindsBuildPoints) {
  Rng rng(4);
  const auto [pts, mass] = RandomPoints(300, 1 << 14, &rng);
  const KdHierarchy t = KdHierarchy::Build(pts, mass);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const int leaf = t.LocateLeaf(pts[i]);
    ASSERT_NE(leaf, KdHierarchy::kNull);
    ASSERT_TRUE(t.nodes()[leaf].IsLeaf());
    // The located leaf's item run must contain point i.
    EXPECT_TRUE(LeafHoldsItem(t, leaf, i)) << "point " << i;
  }

  // The same on a 3-D build, descending by flat coordinates.
  const auto [coords, mass3] = RandomPoints3D(300, 1 << 14, &rng);
  const KdHierarchy t3 = KdHierarchy::Build(coords, 3, mass3);
  ASSERT_EQ(t3.dims(), 3);
  for (std::size_t i = 0; i < mass3.size(); ++i) {
    const int leaf = t3.LocateLeaf(&coords[i * 3]);
    ASSERT_NE(leaf, KdHierarchy::kNull);
    ASSERT_TRUE(t3.nodes()[leaf].IsLeaf());
    EXPECT_TRUE(LeafHoldsItem(t3, leaf, i)) << "3-D point " << i;
  }
}

TEST(KdHierarchy, LocateLeafTotalFunction) {
  // Arbitrary points (not in the build set) must land in exactly one leaf.
  Rng rng(5);
  const auto [pts, mass] = RandomPoints(100, 1 << 10, &rng);
  const KdHierarchy t = KdHierarchy::Build(pts, mass);
  for (int i = 0; i < 1000; ++i) {
    const Point2D q{rng.NextBounded(1 << 10), rng.NextBounded(1 << 10)};
    const int leaf = t.LocateLeaf(q);
    ASSERT_NE(leaf, KdHierarchy::kNull);
    EXPECT_TRUE(t.nodes()[leaf].IsLeaf());
  }

  // 3-D: every query point lands in a leaf whose region (the split
  // constraints on its root path) contains it.
  const auto [coords, mass3] = RandomPoints3D(100, 1 << 10, &rng);
  const KdHierarchy t3 = KdHierarchy::Build(coords, 3, mass3);
  std::vector<int> parent(t3.nodes().size(), KdHierarchy::kNull);
  for (std::size_t v = 0; v < t3.nodes().size(); ++v) {
    EXPECT_EQ(t3.nodes()[v].parent, parent[v]);
    if (!t3.nodes()[v].IsLeaf()) {
      parent[t3.nodes()[v].left] = parent[t3.nodes()[v].right] =
          static_cast<int>(v);
    }
  }
  for (int i = 0; i < 1000; ++i) {
    const Coord q[3] = {rng.NextBounded(1 << 10), rng.NextBounded(1 << 10),
                        rng.NextBounded(1 << 10)};
    const int leaf = t3.LocateLeaf(q);
    ASSERT_NE(leaf, KdHierarchy::kNull);
    EXPECT_TRUE(t3.nodes()[leaf].IsLeaf());
    for (int v = leaf; t3.nodes()[v].parent != KdHierarchy::kNull;
         v = t3.nodes()[v].parent) {
      const auto& up = t3.nodes()[t3.nodes()[v].parent];
      EXPECT_EQ(q[up.axis] < up.split, v == up.left);
    }
  }
}

TEST(KdHierarchy, SuperLeavesPartitionItems) {
  Rng rng(6);
  const auto [pts, mass] = RandomPoints(500, 1 << 16, &rng);
  const KdHierarchy t = KdHierarchy::Build(pts, mass);
  const auto sleaves = SuperLeaves(t, 8.0);
  // Super-leaves cover disjoint item ranges whose union is everything.
  std::vector<char> covered(pts.size(), 0);
  for (int v : sleaves) {
    for (std::size_t i = t.nodes()[v].begin; i < t.nodes()[v].end; ++i) {
      EXPECT_EQ(covered[t.item_order()[i]], 0);
      covered[t.item_order()[i]] = 1;
    }
    EXPECT_LE(t.nodes()[v].mass, 8.0);
  }
  for (char c : covered) EXPECT_EQ(c, 1);
}

TEST(KdHierarchy, SuperLeafCountScales) {
  // With unit masses and limit L, super-leaves hold ~L items each, so
  // there are ~n/L of them (within a factor ~2 because splits halve mass).
  Rng rng(7);
  const auto [pts, mass] = RandomPoints(1024, 1 << 18, &rng);
  const KdHierarchy t = KdHierarchy::Build(pts, mass);
  const auto sleaves = SuperLeaves(t, 16.0);
  EXPECT_GE(sleaves.size(), 1024u / 16u);
  EXPECT_LE(sleaves.size(), 4u * 1024u / 16u);
}

TEST(KdHierarchy, DuplicatePointsShareALeaf) {
  std::vector<Point2D> pts{{3, 3}, {3, 3}, {9, 9}};
  std::vector<double> mass{1.0, 1.0, 1.0};
  const KdHierarchy t = KdHierarchy::Build(pts, mass);
  // The duplicate pair cannot be split; one leaf holds both.
  int max_leaf_items = 0;
  for (const auto& n : t.nodes()) {
    if (n.IsLeaf()) {
      max_leaf_items =
          std::max(max_leaf_items, static_cast<int>(n.end - n.begin));
    }
  }
  EXPECT_EQ(max_leaf_items, 2);
}

TEST(KdHierarchy, HyperplaneCrossingBound) {
  // Appendix E, Lemma 6: an axis-parallel line crosses O(sqrt(s))
  // super-leaves of a mass-balanced kd-tree. Empirical check on a uniform
  // grid: count super-leaves whose x-range straddles a vertical line.
  const int grid = 32;  // 1024 points on a grid
  std::vector<Point2D> pts;
  std::vector<double> mass;
  for (int x = 0; x < grid; ++x) {
    for (int y = 0; y < grid; ++y) {
      pts.push_back({static_cast<Coord>(x * 64), static_cast<Coord>(y * 64)});
      mass.push_back(1.0);
    }
  }
  const KdHierarchy t = KdHierarchy::Build(pts, mass);
  const auto sleaves = SuperLeaves(t, 1.0);  // unit cells: s = 1024
  // Compute each super-leaf's x-extent from its items.
  const Coord line = 16 * 64 + 1;  // vertical line x = line
  int crossing = 0;
  for (int v : sleaves) {
    Coord lo = ~Coord{0}, hi = 0;
    for (std::size_t i = t.nodes()[v].begin; i < t.nodes()[v].end; ++i) {
      const Coord x = pts[t.item_order()[i]].x;
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    if (lo < line && hi >= line) ++crossing;
  }
  // sqrt(1024) = 32; allow constant slack.
  EXPECT_LE(crossing, 3 * 32);
}

}  // namespace
}  // namespace sas

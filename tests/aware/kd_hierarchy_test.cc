#include "aware/kd_hierarchy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
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

/// n flat points of `dims` coordinates drawn from [0, domain) (duplicates
/// kept), with masses 1 or, when !uniform_mass, in (0, 1).
std::pair<std::vector<Coord>, std::vector<double>> FlatPoints(
    std::size_t n, int dims, Coord domain, bool uniform_mass, Rng* rng) {
  std::vector<Coord> coords;
  std::vector<double> mass;
  for (std::size_t i = 0; i < n; ++i) {
    for (int a = 0; a < dims; ++a) coords.push_back(rng->NextBounded(domain));
    mass.push_back(uniform_mass ? 1.0 : 0.001 + 0.998 * rng->NextDouble());
  }
  return {coords, mass};
}

std::vector<std::size_t> SortedRun(const KdHierarchy& t, std::size_t begin,
                                   std::size_t end) {
  std::vector<std::size_t> run(t.item_order().begin() + begin,
                               t.item_order().begin() + end);
  std::sort(run.begin(), run.end());
  return run;
}

/// Expects `capped` (BuildInto with leaf_mass = cap) to be `full` cut at
/// the first node on each path whose mass is <= cap: above the cut both
/// agree in axis, split, mass (bitwise) and [begin, end); each cut node is
/// a leaf holding the full node's items, sorted on the axis it would split
/// next (depth mod dims; ties in index order).
void ExpectFullTreeCutAt(const KdHierarchy& full, const KdHierarchy& capped,
                         const std::vector<Coord>& coords, double cap) {
  ASSERT_EQ(full.num_nodes() == 0, capped.num_nodes() == 0);
  if (full.num_nodes() == 0) return;
  const std::size_t dims = static_cast<std::size_t>(full.dims());
  struct Visit {
    int f, c, depth;
  };
  std::vector<Visit> stack{{full.root(), capped.root(), 0}};
  int visited = 0;
  while (!stack.empty()) {
    const auto [fv, cv, depth] = stack.back();
    stack.pop_back();
    ++visited;
    const auto& f = full.nodes()[fv];
    const auto& c = capped.nodes()[cv];
    SCOPED_TRACE(testing::Message() << "cap " << cap << " full node " << fv
                                    << " depth " << depth);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(c.mass),
              std::bit_cast<std::uint64_t>(f.mass));
    ASSERT_EQ(c.begin, f.begin);
    ASSERT_EQ(c.end, f.end);
    if (f.IsLeaf() || f.mass <= cap) {
      ASSERT_TRUE(c.IsLeaf());
      ASSERT_EQ(SortedRun(capped, c.begin, c.end),
                SortedRun(full, f.begin, f.end));
      if (f.IsLeaf()) continue;
      const std::size_t axis = static_cast<std::size_t>(depth) % dims;
      for (std::size_t j = c.begin + 1; j < c.end; ++j) {
        const std::size_t a = capped.item_order()[j - 1];
        const std::size_t b = capped.item_order()[j];
        ASSERT_LT(std::make_pair(coords[a * dims + axis], a),
                  std::make_pair(coords[b * dims + axis], b));
      }
      continue;
    }
    ASSERT_FALSE(c.IsLeaf());
    ASSERT_EQ(c.axis, f.axis);
    ASSERT_EQ(c.split, f.split);
    ASSERT_EQ(capped.nodes()[c.left].parent, cv);
    ASSERT_EQ(capped.nodes()[c.right].parent, cv);
    stack.push_back({f.right, c.right, depth + 1});
    stack.push_back({f.left, c.left, depth + 1});
  }
  EXPECT_EQ(visited, capped.num_nodes());
}

void ExpectSameTree(const KdHierarchy& got, const KdHierarchy& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  EXPECT_EQ(got.dims(), want.dims());
  for (int v = 0; v < want.num_nodes(); ++v) {
    const auto& g = got.nodes()[v];
    const auto& w = want.nodes()[v];
    ASSERT_EQ(g.parent, w.parent) << "node " << v;
    ASSERT_EQ(g.left, w.left) << "node " << v;
    ASSERT_EQ(g.right, w.right) << "node " << v;
    ASSERT_EQ(g.axis, w.axis) << "node " << v;
    ASSERT_EQ(g.split, w.split) << "node " << v;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(g.mass),
              std::bit_cast<std::uint64_t>(w.mass))
        << "node " << v;
    ASSERT_EQ(g.begin, w.begin) << "node " << v;
    ASSERT_EQ(g.end, w.end) << "node " << v;
  }
  EXPECT_EQ(got.item_order(), want.item_order());
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

TEST(KdHierarchy, CappedTreeIsFullTreeCutAtCap) {
  // Unit masses put node masses exactly on integer caps (<= vs <); small
  // domains force duplicate points and constant runs on an axis.
  struct Case {
    std::size_t n;
    int dims;
    Coord domain;
    bool uniform_mass;
    std::vector<double> caps;
  };
  const std::vector<Case> cases{
      {2000, 2, Coord{1} << 20, true, {1.0, 2.0, 3.0, 16.0}},
      {2000, 2, Coord{1} << 20, false, {0.5, 1.0, 4.0}},
      {1000, 3, Coord{1} << 16, true, {2.0, 5.0}},
      {1000, 3, Coord{1} << 16, false, {1.0, 2.5}},
      {500, 2, 8, true, {1.0, 3.0, 10.0}},
      {300, 1, 16, false, {1.0, 2.0}},
  };
  Rng rng(21);
  KdBuildScratch scratch;
  KdHierarchy capped;  // one warm tree across every build
  for (const Case& tc : cases) {
    const auto [coords, mass] =
        FlatPoints(tc.n, tc.dims, tc.domain, tc.uniform_mass, &rng);
    const KdHierarchy full = KdHierarchy::Build(coords, tc.dims, mass);
    for (double cap : tc.caps) {
      SCOPED_TRACE(testing::Message() << "n " << tc.n << " dims " << tc.dims
                                      << " domain " << tc.domain);
      KdHierarchy::BuildInto(coords, tc.dims, mass, &scratch, &capped, cap);
      ExpectFullTreeCutAt(full, capped, coords, cap);
      if (tc.uniform_mass && cap >= 2.0 && tc.domain > Coord{tc.n}) {
        // Distinct points: every pair of unit leaves is cut.
        EXPECT_LT(capped.num_nodes(), full.num_nodes());
      }
    }
  }
}

TEST(KdHierarchy, ZeroLeafMassReproducesBuild) {
  Rng rng(22);
  KdBuildScratch scratch;
  KdHierarchy tree;
  for (int dims : {1, 2, 3}) {
    for (bool uniform_mass : {true, false}) {
      const auto [coords, mass] =
          FlatPoints(1500, dims, Coord{1} << 12, uniform_mass, &rng);
      // A capped build first, so the zero-cap build reuses its storage.
      KdHierarchy::BuildInto(coords, dims, mass, &scratch, &tree, 4.0);
      KdHierarchy::BuildInto(coords, dims, mass, &scratch, &tree, 0.0);
      SCOPED_TRACE(testing::Message() << "dims " << dims);
      ExpectSameTree(tree, KdHierarchy::Build(coords, dims, mass));
      if (dims == 2) {
        std::vector<Point2D> pts;
        for (std::size_t i = 0; i < mass.size(); ++i) {
          pts.push_back({coords[2 * i], coords[2 * i + 1]});
        }
        ExpectSameTree(tree, KdHierarchy::Build(pts, mass));
      }
    }
  }
}

}  // namespace
}  // namespace sas

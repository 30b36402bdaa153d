// Golden-seed equivalence suite for the hot-path build engine.
//
// The optimized primitives — selection-based SolveTau over an IppsScratch,
// batched ChainAggregateRange over an RngStream, and the sort-once arena kd
// builds — must behave exactly like the classic implementations they
// replaced. This file carries verbatim copies of those classic
// implementations (namespace ref) and pins, for fixed seeds:
//
//  * RngStream: draw-for-draw identity with Rng::NextDouble, including the
//    repositioning of the source generator on Flush.
//  * ChainAggregateRange: bit-identical probability vectors, leftover
//    entries, and post-call rng state.
//  * Kd builds (2-D and N-d, both one d-dimensional KdHierarchy build,
//    the 2-D path through the flat-coords facade over Point2D):
//    bit-identical node arrays and item orders on duplicate-free inputs
//    (duplicate handling is property-checked; the tie order inside an
//    all-duplicate leaf is index-based where the classic build inherited
//    std::sort's unspecified tie order). These tests double as the proof
//    that the one build reproduces the classic 2-D and N-d builds exactly,
//    so the golden seeds did not need re-recording. The reference
//    comparators break coordinate ties by item index — the only change to
//    the classic code, a no-op on the per-axis-distinct inputs, and what
//    makes the references deterministic on tie-heavy data (network shard
//    inputs, small coordinate ranges, constant axes), where the classic
//    builds left tie order, and so mass summation order, to std::sort.
//    The radix presort is checked at every digit width and at both
//    parities of its pass count, on full 64-bit coordinates.
//  * Aggregation passes of every summarizer family (order / hierarchy /
//    product / disjoint / nd), run against the reference chain given the
//    same inputs.
//
// SolveTau is the one explicitly re-baselined primitive: its Newton passes
// sum the light weights in a fixed 4-lane association, not in the classic
// descending sort's order, so tau may differ in the last ulps. Tests
// therefore pin near-equality against the reference (and the constraint
// sum_i min(1, w_i / tau) = s), the exact identities on boundary inputs,
// the guard on inputs that stall Newton, and tau's bits across SIMD
// levels.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "api/sharded.h"
#include "aware/disjoint_summarizer.h"
#include "aware/hierarchy_summarizer.h"
#include "aware/kd_hierarchy.h"
#include "aware/order_summarizer.h"
#include "aware/product_summarizer.h"
#include "core/ipps.h"
#include "core/pair_aggregate.h"
#include "core/random.h"
#include "core/simd.h"
#include "core/telemetry.h"
#include "data/network_gen.h"
#include "oracles/lane_sum.h"
#include "oracles/summarize.h"
#include "structure/hierarchy.h"

namespace sas {
namespace {
namespace ref {

// --- Classic implementations, copied from the pre-fast-path sources. ------

double SolveTau(const std::vector<Weight>& weights, double s) {
  std::vector<Weight> sorted;
  sorted.reserve(weights.size());
  for (Weight w : weights) {
    if (w > 0.0) sorted.push_back(w);
  }
  const std::size_t n = sorted.size();
  if (static_cast<double>(n) <= s) return 0.0;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  std::vector<double> rest(n + 1, 0.0);
  for (std::size_t i = n; i-- > 0;) rest[i] = rest[i + 1] + sorted[i];
  const std::size_t t_max =
      std::min(n - 1, static_cast<std::size_t>(std::floor(s)));
  for (std::size_t t = 0; t <= t_max; ++t) {
    const double denom = s - static_cast<double>(t);
    if (denom <= 0.0) break;
    const double tau = rest[t] / denom;
    const bool upper_ok = (t == 0) || (sorted[t - 1] >= tau);
    const bool lower_ok = sorted[t] < tau;
    if (upper_ok && lower_ok) return tau;
  }
  double lo = 0.0, hi = rest[0] / s + 1.0;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    double f = 0.0;
    for (Weight w : sorted) f += std::min(1.0, w / mid);
    if (f > s) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

void PairAggregate(double* pi, double* pj, Rng* rng) {
  const double a = *pi;
  const double b = *pj;
  const double sum = a + b;
  if (sum < 1.0) {
    if (rng->NextDouble() < a / sum) {
      *pi = SnapProbability(sum);
      *pj = 0.0;
    } else {
      *pj = SnapProbability(sum);
      *pi = 0.0;
    }
  } else {
    const double leftover = SnapProbability(sum - 1.0);
    if (rng->NextDouble() < (1.0 - b) / (2.0 - sum)) {
      *pi = 1.0;
      *pj = leftover;
    } else {
      *pi = leftover;
      *pj = 1.0;
    }
  }
}

std::size_t ChainAggregate(std::vector<double>* probs,
                           const std::vector<std::size_t>& indices,
                           std::size_t carry, Rng* rng) {
  auto& p = *probs;
  std::size_t active = carry;
  if (active != kNoEntry && IsSet(p[active])) active = kNoEntry;
  for (std::size_t i : indices) {
    if (IsSet(p[i])) continue;
    if (active == kNoEntry) {
      active = i;
      continue;
    }
    ref::PairAggregate(&p[active], &p[i], rng);
    if (IsSet(p[active])) {
      active = IsSet(p[i]) ? kNoEntry : i;
    }
  }
  return active;
}

void ResolveResidual(std::vector<double>* probs, std::size_t entry,
                     Rng* rng) {
  if (entry == kNoEntry) return;
  auto& p = *probs;
  if (IsSet(p[entry])) return;
  p[entry] = rng->NextBernoulli(p[entry]) ? 1.0 : 0.0;
}

inline Coord AxisCoord(const Point2D& p, int axis) {
  return axis == 0 ? p.x : p.y;
}

struct KdTree2D {
  std::vector<KdHierarchy::Node> nodes;
  std::vector<std::size_t> item_order;
};

KdTree2D KdBuild(const std::vector<Point2D>& pts,
                 const std::vector<double>& mass) {
  KdTree2D tree;
  const std::size_t n = pts.size();
  if (n == 0) return tree;
  tree.item_order.resize(n);
  std::iota(tree.item_order.begin(), tree.item_order.end(), 0);
  tree.nodes.reserve(2 * n);
  tree.nodes.push_back({});

  struct BuildTask {
    int node;
    std::size_t begin, end;
    int depth;
  };
  std::vector<BuildTask> stack{{0, 0, n, 0}};
  while (!stack.empty()) {
    const BuildTask t = stack.back();
    stack.pop_back();
    auto& order = tree.item_order;
    KdHierarchy::Node& node = tree.nodes[t.node];
    node.begin = t.begin;
    node.end = t.end;
    double total = 0.0;
    for (std::size_t i = t.begin; i < t.end; ++i) total += mass[order[i]];
    node.mass = total;
    if (t.end - t.begin <= 1) continue;

    int axis = t.depth % 2;
    bool split_found = false;
    std::size_t split_pos = 0;
    Coord split_val = 0;
    for (int attempt = 0; attempt < 2 && !split_found; ++attempt, axis ^= 1) {
      std::sort(order.begin() + t.begin, order.begin() + t.end,
                [&](std::size_t a, std::size_t b) {
                  const Coord ca = AxisCoord(pts[a], axis);
                  const Coord cb = AxisCoord(pts[b], axis);
                  return ca != cb ? ca < cb : a < b;
                });
      if (AxisCoord(pts[order[t.begin]], axis) ==
          AxisCoord(pts[order[t.end - 1]], axis)) {
        continue;
      }
      double run = 0.0;
      double best_gap = std::numeric_limits<double>::infinity();
      for (std::size_t i = t.begin; i + 1 < t.end; ++i) {
        run += mass[order[i]];
        if (AxisCoord(pts[order[i]], axis) ==
            AxisCoord(pts[order[i + 1]], axis)) {
          continue;
        }
        const double gap = std::fabs(total - 2.0 * run);
        if (gap < best_gap) {
          best_gap = gap;
          split_pos = i + 1;
          split_val = AxisCoord(pts[order[i + 1]], axis);
        }
      }
      split_found = split_pos > t.begin;
    }
    if (!split_found) continue;
    const int used_axis = axis ^ 1;
    const int left = static_cast<int>(tree.nodes.size());
    tree.nodes.push_back({});
    const int right = static_cast<int>(tree.nodes.size());
    tree.nodes.push_back({});
    KdHierarchy::Node& nd = tree.nodes[t.node];
    nd.axis = used_axis;
    nd.split = split_val;
    nd.left = left;
    nd.right = right;
    tree.nodes[left].parent = t.node;
    tree.nodes[right].parent = t.node;
    stack.push_back({right, split_pos, t.end, t.depth + 1});
    stack.push_back({left, t.begin, split_pos, t.depth + 1});
  }
  return tree;
}

struct KdTreeNd {
  std::vector<KdHierarchy::Node> nodes;
  std::vector<std::size_t> item_order;
};

KdTreeNd KdBuildNd(const std::vector<Coord>& coords, int dims,
                   const std::vector<double>& mass) {
  KdTreeNd tree;
  const std::size_t n = mass.size();
  if (n == 0) return tree;
  tree.item_order.resize(n);
  std::iota(tree.item_order.begin(), tree.item_order.end(), 0);
  tree.nodes.reserve(2 * n);
  tree.nodes.push_back({});

  auto axis_coord = [&](std::size_t item, int axis) {
    return coords[item * dims + axis];
  };
  struct Task {
    int node;
    std::size_t begin, end;
    int depth;
  };
  std::vector<Task> stack{{0, 0, n, 0}};
  while (!stack.empty()) {
    const Task t = stack.back();
    stack.pop_back();
    auto& order = tree.item_order;
    {
      KdHierarchy::Node& node = tree.nodes[t.node];
      node.begin = t.begin;
      node.end = t.end;
      node.mass = 0.0;
      for (std::size_t i = t.begin; i < t.end; ++i) {
        node.mass += mass[order[i]];
      }
      if (t.end - t.begin <= 1) continue;
    }
    int axis = t.depth % dims;
    bool split_found = false;
    std::size_t split_pos = 0;
    Coord split_val = 0;
    double total = tree.nodes[t.node].mass;
    for (int attempt = 0; attempt < dims && !split_found;
         ++attempt, axis = (axis + 1) % dims) {
      std::sort(order.begin() + t.begin, order.begin() + t.end,
                [&](std::size_t a, std::size_t b) {
                  const Coord ca = axis_coord(a, axis);
                  const Coord cb = axis_coord(b, axis);
                  return ca != cb ? ca < cb : a < b;
                });
      if (axis_coord(order[t.begin], axis) ==
          axis_coord(order[t.end - 1], axis)) {
        continue;
      }
      double run = 0.0;
      double best_gap = std::numeric_limits<double>::infinity();
      for (std::size_t i = t.begin; i + 1 < t.end; ++i) {
        run += mass[order[i]];
        if (axis_coord(order[i], axis) == axis_coord(order[i + 1], axis)) {
          continue;
        }
        const double gap = std::fabs(total - 2.0 * run);
        if (gap < best_gap) {
          best_gap = gap;
          split_pos = i + 1;
          split_val = axis_coord(order[i + 1], axis);
        }
      }
      split_found = split_pos > t.begin;
    }
    if (!split_found) continue;
    const int used_axis = (axis + dims - 1) % dims;
    const int left = static_cast<int>(tree.nodes.size());
    tree.nodes.push_back({});
    const int right = static_cast<int>(tree.nodes.size());
    tree.nodes.push_back({});
    KdHierarchy::Node& nd = tree.nodes[t.node];
    nd.axis = used_axis;
    nd.split = split_val;
    nd.left = left;
    nd.right = right;
    stack.push_back({right, split_pos, t.end, t.depth + 1});
    stack.push_back({left, t.begin, split_pos, t.depth + 1});
  }
  return tree;
}

}  // namespace ref

// --- Helpers ---------------------------------------------------------------

std::vector<Weight> ParetoWeights(std::size_t n, double alpha,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Weight> w(n);
  for (auto& x : w) x = rng.NextPareto(alpha);
  return w;
}

/// Distinct per-axis coordinates via an odd-multiplier bijection of the
/// item index (so kd equivalence runs on guaranteed duplicate-free data).
std::vector<Point2D> DistinctPoints(std::size_t n) {
  std::vector<Point2D> pts(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts[i] = {static_cast<Coord>((i * 2654435761ULL) & 0xFFFFFFFFULL),
              static_cast<Coord>((i * 2246822519ULL + 7) & 0xFFFFFFFFULL)};
  }
  return pts;
}

std::vector<double> OpenProbs(std::size_t n, std::uint64_t seed,
                              double set_fraction) {
  Rng rng(seed);
  std::vector<double> p(n);
  for (auto& x : p) {
    const double u = rng.NextDouble();
    if (u < set_fraction / 2) {
      x = 0.0;
    } else if (u < set_fraction) {
      x = 1.0;
    } else {
      x = 0.001 + 0.998 * rng.NextDouble();
    }
  }
  return p;
}

void ExpectSameRngState(Rng a, Rng b) {
  for (int i = 0; i < 8; ++i) ASSERT_EQ(a.Next(), b.Next());
}

double ProbSum(const std::vector<Weight>& w, double tau) {
  double sum = 0.0;
  for (Weight x : w) sum += IppsProbability(x, tau);
  return sum;
}

// --- MonotonicArena --------------------------------------------------------

TEST(MonotonicArena, ServesAlignedDisjointAllocations) {
  MonotonicArena arena(64);  // tiny first block to force chaining
  std::vector<std::pair<char*, std::size_t>> allocs;
  for (std::size_t bytes : {8u, 24u, 64u, 8u, 200u, 1000u, 16u}) {
    void* p = arena.Allocate(bytes, 8);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 8, 0u);
    std::memset(p, 0xAB, bytes);  // must be writable
    allocs.emplace_back(static_cast<char*>(p), bytes);
  }
  // No two live allocations overlap.
  for (std::size_t i = 0; i < allocs.size(); ++i) {
    for (std::size_t j = i + 1; j < allocs.size(); ++j) {
      const bool disjoint =
          allocs[i].first + allocs[i].second <= allocs[j].first ||
          allocs[j].first + allocs[j].second <= allocs[i].first;
      EXPECT_TRUE(disjoint) << i << " vs " << j;
    }
  }
}

TEST(MonotonicArena, ResetReusesCapacity) {
  MonotonicArena arena(1 << 12);
  std::size_t warm = 0;  // capacity after the first full round
  for (int round = 0; round < 10; ++round) {
    arena.Reset();
    double* d = arena.AllocateArray<double>(4096);
    d[0] = 1.0;
    d[4095] = 2.0;
    std::uint32_t* u = arena.AllocateArray<std::uint32_t>(100);
    u[99] = 7;
    if (round == 0) {
      warm = arena.CapacityBytes();
    } else {
      // Steady state: repeating the same allocation shape chains no new
      // blocks once the arena is warm.
      EXPECT_EQ(arena.CapacityBytes(), warm) << "round " << round;
    }
  }
}

// --- RngStream -------------------------------------------------------------

TEST(RngStream, MatchesNextDoubleSequenceAndFlushPosition) {
  for (std::size_t draws : {std::size_t{0}, std::size_t{1}, std::size_t{17},
                            std::size_t{255}, std::size_t{256},
                            std::size_t{257}, std::size_t{1000}}) {
    Rng direct(42);
    Rng streamed(42);
    std::vector<double> expect(draws), got(draws);
    for (auto& u : expect) u = direct.NextDouble();
    {
      RngStream stream(&streamed);
      for (auto& u : got) u = stream.NextDouble();
    }
    ASSERT_EQ(expect, got) << "draws=" << draws;
    // Flush must leave the source exactly `draws` positions ahead.
    ExpectSameRngState(direct, streamed);
  }
}

TEST(RngStream, BernoulliConsumptionMatchesRng) {
  Rng direct(7);
  Rng streamed(7);
  const double ps[] = {0.0, 0.5, 1.0, -1.0, 2.0, 0.3, 1e-18, 0.9999};
  std::vector<bool> expect, got;
  for (double p : ps) expect.push_back(direct.NextBernoulli(p));
  {
    RngStream stream(&streamed);
    for (double p : ps) got.push_back(stream.NextBernoulli(p));
  }
  EXPECT_EQ(expect, got);
  ExpectSameRngState(direct, streamed);
}

TEST(RngStream, DirectRngUseBetweenFlushAndNextDrawIsNotReplayed) {
  // Regression: after a Flush the caller may draw from the Rng directly
  // (merge does this with its shuffle); the stream must re-sync instead of
  // replaying the caller's draws from its stale snapshot.
  Rng direct(13);
  Rng streamed(13);
  std::vector<double> expect, got;
  for (int i = 0; i < 3; ++i) expect.push_back(direct.NextDouble());
  expect.push_back(direct.NextDouble());  // the "direct" draw
  for (int i = 0; i < 3; ++i) expect.push_back(direct.NextDouble());

  RngStream stream(&streamed);
  for (int i = 0; i < 3; ++i) got.push_back(stream.NextDouble());
  stream.Flush();
  got.push_back(streamed.NextDouble());  // direct use while no block live
  for (int i = 0; i < 3; ++i) got.push_back(stream.NextDouble());
  stream.Flush();
  EXPECT_EQ(expect, got);
  ExpectSameRngState(direct, streamed);
}

TEST(RngStream, BlockBoundariesMatchUnderEveryDispatchLevel) {
  // RngStream refills in kBlock chunks through Rng::FillDoubles, which now
  // dispatches to the SIMD block converter. The draw-order transparency
  // contract — i-th stream draw == i-th NextDouble, Flush repositions the
  // source — must hold bit-for-bit on every level, especially at counts
  // that straddle block boundaries (partial first block, exact block,
  // block + 1, several blocks).
  const simd::Level saved = simd::ActiveLevel();
  for (simd::Level level : {simd::Level::kScalar, simd::DetectLevel()}) {
    ASSERT_TRUE(simd::SetLevel(level));
    for (std::size_t draws :
         {std::size_t{1}, RngStream::kBlock - 1, RngStream::kBlock,
          RngStream::kBlock + 1, 3 * RngStream::kBlock,
          3 * RngStream::kBlock + 5}) {
      Rng direct(4242);
      Rng streamed(4242);
      std::vector<double> expect(draws), got(draws);
      for (auto& u : expect) u = direct.NextDouble();
      {
        RngStream stream(&streamed);
        for (auto& u : got) u = stream.NextDouble();
      }
      ASSERT_EQ(expect, got)
          << "draws=" << draws << " level=" << simd::LevelName(level);
      ExpectSameRngState(direct, streamed);
    }
  }
  simd::SetLevel(saved);
}

TEST(RngStream, ForkedGeneratorsFillIdenticallyToTheirDrawLoops) {
  // Shard-style usage: per-stream children from Fork feed RngStreams; the
  // forked generators must stay draw-for-draw equal to their own
  // NextDouble loops (block fills do not perturb fork derivation).
  Rng master(31);
  for (std::uint64_t stream : {0ULL, 1ULL, 7ULL}) {
    Rng a = master.Fork(stream);
    Rng b = master.Fork(stream);
    std::vector<double> expect(300), got(300);
    for (auto& u : expect) u = a.NextDouble();
    {
      RngStream s(&b);
      for (auto& u : got) u = s.NextDouble();
    }
    ASSERT_EQ(expect, got) << "stream=" << stream;
    ExpectSameRngState(a, b);
  }
}

TEST(RngStream, ReusableAfterFlush) {
  Rng direct(9);
  Rng streamed(9);
  std::vector<double> expect(40), got(40);
  for (auto& u : expect) u = direct.NextDouble();
  RngStream stream(&streamed);
  for (int i = 0; i < 10; ++i) got[i] = stream.NextDouble();
  stream.Flush();
  for (int i = 10; i < 40; ++i) got[i] = stream.NextDouble();
  stream.Flush();
  EXPECT_EQ(expect, got);
  ExpectSameRngState(direct, streamed);
}

// --- SolveTau --------------------------------------------------------------

TEST(FastSolveTau, MatchesReferenceOnRandomInputs) {
  Rng rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 2 + rng.NextBounded(3000);
    std::vector<Weight> w(n);
    for (auto& x : w) {
      const double u = rng.NextDouble();
      if (u < 0.05) {
        x = 0.0;  // zero weights must be filtered
      } else if (u < 0.35) {
        x = 1.0 + static_cast<double>(rng.NextBounded(4));  // heavy ties
      } else {
        x = rng.NextPareto(1.1);
      }
    }
    const double s =
        0.5 + static_cast<double>(rng.NextBounded(n)) + rng.NextDouble();
    const double expected = ref::SolveTau(w, s);
    const double got = SolveTau(w, s);
    ASSERT_NEAR(got, expected, 1e-12 * (1.0 + expected))
        << "n=" << n << " s=" << s;
    if (got > 0.0) {
      ASSERT_NEAR(ProbSum(w, got), s, 1e-6 * s);
    }
  }
}

TEST(FastSolveTau, ScratchReuseMatchesFreshScratch) {
  IppsScratch reused;
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.NextBounded(500);
    std::vector<Weight> w(n);
    for (auto& x : w) x = rng.NextPareto(1.3);
    const double s = 0.5 + static_cast<double>(rng.NextBounded(n));
    IppsScratch fresh;
    const double a = SolveTau(w.data(), w.size(), s, &reused);
    const double b = SolveTau(w.data(), w.size(), s, &fresh);
    ASSERT_EQ(a, b);
  }
}

// Regression tests for the boundary inputs whose candidate scan used to be
// able to fall through to the 200-iteration bisection: all-equal weights
// now end at the first pass (every weight light, tau = total / s).
TEST(FastSolveTau, AllEqualWeightsExact) {
  for (std::size_t n : {3u, 10u, 1000u}) {
    for (double w : {0.1, 1.0, 3.75}) {
      std::vector<Weight> weights(n, w);
      const double total = LaneSum(weights);
      for (double s : {0.5, 1.0, static_cast<double>(n) - 0.5,
                       static_cast<double>(n) - 1.0}) {
        if (s <= 0.0 || s >= static_cast<double>(n)) continue;
        EXPECT_DOUBLE_EQ(SolveTau(weights, s), total / s)
            << "n=" << n << " w=" << w << " s=" << s;
      }
    }
  }
}

TEST(FastSolveTau, AllEqualWithZerosExact) {
  // s >= the number of *positive* weights after zero-filtering: tau = 0;
  // below it, the positives are all equal and tau = total / s exactly.
  std::vector<Weight> w{2.0, 0.0, 2.0, 0.0, 2.0};
  EXPECT_DOUBLE_EQ(SolveTau(w, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(SolveTau(w, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(SolveTau(w, 2.0), 6.0 / 2.0);
}

TEST(FastSolveTau, SampleSizeAtLeastPositiveCount) {
  std::vector<Weight> w{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(SolveTau(w, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(SolveTau(w, 2.9999999), ref::SolveTau(w, 2.9999999));
  EXPECT_DOUBLE_EQ(SolveTau(std::vector<Weight>{}, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(SolveTau(std::vector<Weight>{0.0, 0.0}, 1.0), 0.0);
}

TEST(FastSolveTau, SinglePositiveWeight) {
  std::vector<Weight> w{0.0, 5.0, 0.0};
  EXPECT_DOUBLE_EQ(SolveTau(w, 0.5), 10.0);  // all light: 5 / 0.5
  EXPECT_DOUBLE_EQ(SolveTau(w, 1.0), 0.0);
}

TEST(FastSolveTau, LargeInputMatchesReference) {
  const std::vector<Weight> w = ParetoWeights(100000, 1.2, 9);
  for (double s : {10.0, 1000.0, 50000.0, 99999.0}) {
    const double expected = ref::SolveTau(w, s);
    const double got = SolveTau(w, s);
    ASSERT_NEAR(got, expected, 1e-12 * (1.0 + expected)) << "s=" << s;
  }
}

// The first selection goes straight to rank floor(s) (the consistent t
// never exceeds it). These inputs put that rank at every edge: below 1, on
// an integer, one short of the positive count, past it, inside a tie run,
// among zeros, and on a real shard.
void ExpectTauMatchesReference(const std::vector<Weight>& w, double s) {
  const double expected = ref::SolveTau(w, s);
  const double got = SolveTau(w, s);
  ASSERT_NEAR(got, expected, 1e-12 * (1.0 + expected)) << "s=" << s;
  if (got > 0.0) {
    ASSERT_NEAR(ProbSum(w, got), s, 1e-6 * s) << "s=" << s;
  }
}

TEST(OneSelectionTau, SampleSizeBelowOne) {
  const std::vector<Weight> w = ParetoWeights(5000, 1.2, 31);
  for (double s : {1e-9, 0.3, 0.5, 0.999999}) {
    ExpectTauMatchesReference(w, s);
  }
}

TEST(OneSelectionTau, IntegerSampleSize) {
  // With s integer, t = s is inconsistent (s - t = 0): the first
  // selection must go left.
  const std::vector<Weight> w = ParetoWeights(3000, 1.1, 32);
  for (double s : {1.0, 2.0, 32.0, 33.0, 100.0, 1000.0, 2999.0}) {
    ExpectTauMatchesReference(w, s);
  }
}

TEST(OneSelectionTau, SampleSizeJustBelowPositiveCount) {
  std::vector<Weight> w = ParetoWeights(2000, 1.3, 33);
  w.insert(w.end(), 500, 0.0);  // the positive count stays 2000
  for (double s : {1999.0, 1999.5, std::nextafter(2000.0, 0.0)}) {
    ExpectTauMatchesReference(w, s);
  }
}

TEST(OneSelectionTau, FloorAtOrPastPositiveCount) {
  // floor(s) >= the positive count: every positive key is certain.
  std::vector<Weight> w = ParetoWeights(40, 1.3, 34);
  w.insert(w.end(), 60, 0.0);
  for (double s : {40.0, 40.5, 41.0, 99.0}) {
    EXPECT_EQ(SolveTau(w, s), 0.0) << "s=" << s;
    EXPECT_EQ(ref::SolveTau(w, s), 0.0) << "s=" << s;
  }
}

TEST(OneSelectionTau, HeavyTiesStraddleTheFirstRank) {
  // A few heavy keys, then long runs of equal weights around rank floor(s),
  // so the selected element and its neighbours tie.
  std::vector<Weight> w;
  w.insert(w.end(), 50, 1000.0);
  w.insert(w.end(), 400, 7.0);
  w.insert(w.end(), 400, 3.0);
  w.insert(w.end(), 4000, 1.0);
  Rng rng(35);
  for (std::size_t i = w.size(); i-- > 1;) {
    std::swap(w[i], w[rng.NextBounded(i + 1)]);
  }
  for (double s : {50.0, 60.0, 200.5, 449.0, 450.0, 451.25, 600.0, 849.5,
                   850.0, 2000.0}) {
    ExpectTauMatchesReference(w, s);
  }
}

TEST(OneSelectionTau, ZerosMixedIn) {
  Rng rng(36);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 40 + rng.NextBounded(4000);
    std::vector<Weight> w(n);
    for (auto& x : w) {
      x = rng.NextDouble() < 0.5 ? 0.0 : rng.NextPareto(1.2);
    }
    const double s =
        0.25 + static_cast<double>(rng.NextBounded(n / 2)) + rng.NextDouble();
    SCOPED_TRACE(testing::Message() << "trial=" << trial << " n=" << n);
    ExpectTauMatchesReference(w, s);
  }
}

TEST(OneSelectionTau, NetworkShardMatchesReference) {
  // Shard 0 of sharded:3:product over the Network data: the weights whose
  // tau a product Finalize solves at s = 1000.
  const Dataset2D data = GenerateNetwork(NetworkConfig{});
  std::vector<Weight> weights;
  for (const auto& it : data.items) {
    if (ShardIndex(it.id, /*seed=*/1, /*num_shards=*/3) == 0) {
      weights.push_back(it.weight);
    }
  }
  ASSERT_EQ(weights.size(), 65868u);
  for (double s : {1000.0, 1000.5, 65867.0}) {
    ExpectTauMatchesReference(weights, s);
  }
}

/// w_i = r^i for i < n, shuffled: each Newton pass moves only a few more
/// weights to the heavy side, so the solve stalls into the guard.
std::vector<Weight> GeometricWeights(std::size_t n, double r,
                                     std::uint64_t seed) {
  std::vector<Weight> w(n);
  double x = 1.0;
  for (auto& v : w) {
    v = x;
    x *= r;
  }
  Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(w[i - 1], w[rng.NextBounded(i)]);
  }
  return w;
}

/// The adjusted weights of a window merge at s = 1,000: the sample of a
/// ~1,100-row bucket and the sample of 59 such buckets (each heavy weight
/// as it is, every other entry at its part's threshold), shuffled. The two
/// thresholds differ ~60x, and each part contributes a long run of ties.
std::vector<Weight> MergeShapedWeights(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Weight> out;
  for (std::size_t population : {1100u, 59u * 1100u}) {
    std::vector<Weight> w(population);
    for (auto& x : w) x = rng.NextPareto(1.2);
    const double tau = SolveTau(w, 1000.0);
    std::size_t heavy = 0;
    for (Weight x : w) {
      if (x >= tau) {
        out.push_back(x);
        ++heavy;
      }
    }
    out.insert(out.end(), 1000 - heavy, tau);
  }
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.NextBounded(i)]);
  }
  return out;
}

/// Fallbacks counted while `fn` runs with telemetry armed.
template <class Fn>
std::uint64_t CountFallbacks(Fn fn) {
  telemetry::Counter* fallbacks =
      telemetry::GetCounter("sas.ipps.tau_fallbacks");
  const bool armed = telemetry::Enabled();
  telemetry::SetEnabled(true);
  const std::uint64_t before = fallbacks->value();
  fn();
  const std::uint64_t after = fallbacks->value();
  telemetry::SetEnabled(armed);
  return after - before;
}

TEST(FastSolveTau, StallInputsTakeTheGuard) {
  const struct {
    std::size_t n;
    double r, s;
  } cases[] = {{6000, 0.9, 4000.0}, {6000, 0.9, 1000.0},
               {100000, 0.995, 50000.0}, {2000, 0.99, 1500.5}};
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << "n=" << c.n << " r=" << c.r
                                    << " s=" << c.s);
    const std::vector<Weight> w = GeometricWeights(c.n, c.r, 61);
    EXPECT_EQ(CountFallbacks([&] { ExpectTauMatchesReference(w, c.s); }), 1u);
  }
  // Pareto inputs, which converge in a few passes, never take it.
  EXPECT_EQ(CountFallbacks([] {
              for (std::uint64_t seed = 0; seed < 20; ++seed) {
                ExpectTauMatchesReference(ParetoWeights(3000, 1.2, seed), 30.0);
              }
            }),
            0u);
}

TEST(FastSolveTau, ArmedTelemetryLeavesTauUnchanged) {
  for (const auto& [w, s] :
       {std::pair{GeometricWeights(6000, 0.9, 62), 4000.0},
        std::pair{ParetoWeights(5000, 1.2, 63), 50.0}}) {
    const double quiet = SolveTau(w, s);
    double armed = 0.0;
    CountFallbacks([&] { armed = SolveTau(w, s); });
    EXPECT_EQ(std::bit_cast<std::uint64_t>(armed),
              std::bit_cast<std::uint64_t>(quiet));
  }
}

TEST(OneSelectionTau, TiesStraddleTau) {
  // 5 heavy keys of 100, ten ties at 1.0 and 40 keys of 0.25: at s = 25 the
  // exact tau is 1.0, where the ties are both light (tau = 20 / 20) and
  // heavy (tau = 10 / 10); only the heavy cut is consistent. Nearby s put
  // tau just above or just below the ties.
  std::vector<Weight> w;
  w.insert(w.end(), 5, 100.0);
  w.insert(w.end(), 10, 1.0);
  w.insert(w.end(), 40, 0.25);
  Rng rng(64);
  for (int shuffle = 0; shuffle < 4; ++shuffle) {
    for (std::size_t i = w.size(); i > 1; --i) {
      std::swap(w[i - 1], w[rng.NextBounded(i)]);
    }
    for (double s : {25.0, std::nextafter(25.0, 0.0),
                     std::nextafter(25.0, 30.0), 24.999999, 25.000001, 24.5,
                     25.5, 15.0, 14.5}) {
      ExpectTauMatchesReference(w, s);
    }
    EXPECT_EQ(SolveTau(w, 25.0), 1.0);
  }
  // Random tie runs: few distinct values, so tau often sits at a tie.
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Weight> t(50 + rng.NextBounded(500));
    for (auto& x : t) x = static_cast<double>(1 + rng.NextBounded(6));
    const double s =
        1.0 + static_cast<double>(rng.NextBounded(t.size() - 1)) +
        (trial % 2 == 0 ? 0.0 : rng.NextDouble());
    SCOPED_TRACE(testing::Message() << "trial=" << trial);
    ExpectTauMatchesReference(t, s);
  }
}

TEST(OneSelectionTau, SampleSizeJustBelowPositiveCountWithNaNs) {
  // NaN weights, like zeros, are neither heavy nor light.
  std::vector<Weight> w = ParetoWeights(1500, 1.2, 65);
  w.insert(w.end(), 100, 0.0);
  w.insert(w.end(), 100, std::numeric_limits<double>::quiet_NaN());
  Rng rng(66);
  for (std::size_t i = w.size(); i > 1; --i) {
    std::swap(w[i - 1], w[rng.NextBounded(i)]);
  }
  std::vector<Weight> positive;
  for (Weight x : w) {
    if (x > 0.0) positive.push_back(x);
  }
  for (double s : {1499.0, 1499.5, 1499.999, std::nextafter(1500.0, 0.0)}) {
    ExpectTauMatchesReference(positive, s);
    const double tau = SolveTau(w, s);
    EXPECT_NEAR(tau, ref::SolveTau(positive, s), 1e-12 * tau) << "s=" << s;
  }
  EXPECT_EQ(SolveTau(w, 1500.0), 0.0);
}

TEST(OneSelectionTau, WeightsFrom1e300Down) {
  // Weights spread over 600 decades: a few huge keys and a long light tail
  // whose sum the threshold must still carry.
  Rng rng(67);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Weight> w(100 + rng.NextBounded(3000));
    for (auto& x : w) {
      x = std::pow(10.0, -300.0 + 600.0 * rng.NextDouble());
    }
    const double s =
        1.0 + static_cast<double>(rng.NextBounded(w.size() - 1)) +
        rng.NextDouble() * 0.5;
    SCOPED_TRACE(testing::Message() << "trial=" << trial);
    ExpectTauMatchesReference(w, s);
  }
}

TEST(OneSelectionTau, TauBitsDoNotDependOnTheSimdLevel) {
  // The shapes SolveTau meets in the pipelines: window merges, window
  // bucket seals, one Network shard, and stalled inputs through the guard.
  // Lengths cover every tail size (n mod 4).
  std::vector<std::pair<std::vector<Weight>, double>> inputs;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    std::vector<Weight> merge = MergeShapedWeights(70 + seed);
    merge.resize(merge.size() - seed % 4);
    inputs.push_back({merge, 1000.0});
    inputs.push_back({ParetoWeights(1100 + seed, 1.2, 80 + seed), 1000.0});
    inputs.push_back({ParetoWeights(1825 + seed, 1.1, 90 + seed), 1000.0});
  }
  const Dataset2D data = GenerateNetwork(NetworkConfig{});
  std::vector<Weight> shard;
  for (const auto& it : data.items) {
    if (ShardIndex(it.id, /*seed=*/1, /*num_shards=*/3) == 0) {
      shard.push_back(it.weight);
    }
  }
  inputs.push_back({shard, 1000.0});
  inputs.push_back({GeometricWeights(6000, 0.9, 68), 4000.0});
  inputs.push_back({GeometricWeights(2000, 0.99, 69), 1500.5});
  const simd::Level saved = simd::ActiveLevel();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto& [w, s] = inputs[i];
    simd::SetLevel(simd::Level::kScalar);
    const double scalar = SolveTau(w, s);
    simd::SetLevel(simd::DetectLevel());
    const double best = SolveTau(w, s);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(best),
              std::bit_cast<std::uint64_t>(scalar))
        << "input " << i;
    ExpectTauMatchesReference(w, s);
  }
  simd::SetLevel(saved);
}

// --- ChainAggregateRange ---------------------------------------------------

/// Runs ChainAggregateRange and the classic chain on copies of `init` from
/// the same seed: the probability vectors, the leftover entry and the Rng
/// state afterwards must all be identical.
void ExpectChainMatchesReference(const std::vector<double>& init,
                                 const std::vector<std::size_t>& indices,
                                 std::size_t carry, std::uint64_t seed) {
  std::vector<double> p_ref = init;
  Rng rng_ref(seed);
  const std::size_t left_ref =
      ref::ChainAggregate(&p_ref, indices, carry, &rng_ref);

  std::vector<double> p_new = init;
  Rng rng_new(seed);
  std::size_t left_new;
  {
    RngStream draws(&rng_new);
    left_new = ChainAggregateRange(p_new.data(), indices.data(),
                                   indices.size(), carry, &draws);
  }
  ASSERT_EQ(left_new, left_ref);
  ASSERT_EQ(0, std::memcmp(p_new.data(), p_ref.data(),
                           init.size() * sizeof(double)));
  ExpectSameRngState(rng_ref, rng_new);
}

/// Shuffles `v` with draws from `rng`.
template <class T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (std::size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->NextBounded(i)]);
  }
}

TEST(FastChainAggregate, BitIdenticalToReference) {
  Rng meta(555);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial=" << trial);
    const std::size_t n = 1 + meta.NextBounded(400);
    const std::vector<double> init =
        OpenProbs(n, 1000 + trial, trial % 3 == 0 ? 0.3 : 0.0);
    // Random duplicate-free index subset, in random order.
    std::vector<std::size_t> indices(n);
    std::iota(indices.begin(), indices.end(), 0);
    Shuffle(&indices, &meta);
    const std::size_t keep = 1 + meta.NextBounded(n);
    // Carry must not alias an index in the list (callers never do that, and
    // the classic loop would self-alias PairAggregate); draw it from the
    // dropped tail when one exists.
    const std::size_t carry = (trial % 4 == 0 && keep < n)
                                  ? indices[keep + meta.NextBounded(n - keep)]
                                  : kNoEntry;
    indices.resize(keep);
    ExpectChainMatchesReference(init, indices, carry, 9000 + trial);
  }

  // Merge-shaped: a bucket's small probabilities and an aggregate's
  // near-1 ones, shuffled, so either case of PairAggregate is a coin flip.
  // Up to 4 * RngStream::kBlock entries: chains cross draw-block refills.
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(testing::Message() << "merge-shaped trial=" << trial);
    const std::size_t n = 2 + meta.NextBounded(4 * RngStream::kBlock);
    std::vector<double> init(n);
    for (std::size_t i = 0; i < n; ++i) {
      init[i] = i % 2 == 0 ? 0.02 + 0.23 * meta.NextDouble() : 0.96;
    }
    std::vector<std::size_t> indices(n);
    std::iota(indices.begin(), indices.end(), 0);
    Shuffle(&indices, &meta);
    ExpectChainMatchesReference(init, indices, kNoEntry, 9500 + trial);
  }

  // Sums within kProbEps of 1: the carry snaps to 1 or its leftover to 0,
  // it dissolves, and the next open entry starts a new carry without a
  // draw. Settled entries sit between the pairs.
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(testing::Message() << "dissolve trial=" << trial);
    constexpr double kNudge[] = {-0.5 * kProbEps, 0.0, 0.5 * kProbEps,
                                 -4.0 * kProbEps, 4.0 * kProbEps};
    std::vector<double> init;
    while (init.size() < 2 * RngStream::kBlock + 40) {
      const double a = 0.05 + 0.9 * meta.NextDouble();
      init.push_back(a);
      if (meta.NextBounded(3) == 0) {
        init.push_back(static_cast<double>(meta.NextBounded(2)));
      }
      init.push_back(1.0 - a + kNudge[meta.NextBounded(5)]);
    }
    std::vector<std::size_t> indices(init.size());
    std::iota(indices.begin(), indices.end(), 0);
    ExpectChainMatchesReference(init, indices, kNoEntry, 9600 + trial);
  }

  // A carry that is already settled is ignored: the chain starts at the
  // first open entry.
  for (double settled : {0.0, 1.0}) {
    SCOPED_TRACE(testing::Message() << "settled carry " << settled);
    std::vector<double> init = OpenProbs(300, 77, 0.2);
    init.push_back(settled);
    std::vector<std::size_t> indices(300);
    std::iota(indices.begin(), indices.end(), 0);
    ExpectChainMatchesReference(init, indices, /*carry=*/300, 9700);
  }
}

TEST(FastChainAggregate, WrapperKeepsClassicBehavior) {
  // The vector-based ChainAggregate now forwards through RngStream; it must
  // still consume draws exactly like the classic loop.
  Rng meta(321);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 2 + meta.NextBounded(600);
    const std::vector<double> init = OpenProbs(n, 40 + trial, 0.1);
    std::vector<std::size_t> indices(n);
    std::iota(indices.begin(), indices.end(), 0);

    std::vector<double> p_ref = init;
    Rng rng_ref(trial);
    const std::size_t left_ref =
        ref::ChainAggregate(&p_ref, indices, kNoEntry, &rng_ref);
    ref::ResolveResidual(&p_ref, left_ref, &rng_ref);

    std::vector<double> p_new = init;
    Rng rng_new(trial);
    const std::size_t left_new =
        ChainAggregate(&p_new, indices, kNoEntry, &rng_new);
    ResolveResidual(&p_new, left_new, &rng_new);

    ASSERT_EQ(p_ref, p_new);
    ExpectSameRngState(rng_ref, rng_new);
  }
}

TEST(FastChainAggregate, SharedStreamAcrossChainsMatchesSequentialRng) {
  // Hierarchy-style usage: many short chains share one stream; the draw
  // sequence must equal running the classic chains back to back.
  Rng meta(888);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 30 + meta.NextBounded(300);
    const std::vector<double> init = OpenProbs(n, 70 + trial, 0.05);
    // Random chain partition of [0, n).
    std::vector<std::vector<std::size_t>> chains;
    std::size_t at = 0;
    while (at < n) {
      const std::size_t len = 1 + meta.NextBounded(7);
      std::vector<std::size_t> chain;
      for (std::size_t i = at; i < std::min(n, at + len); ++i) {
        chain.push_back(i);
      }
      at += len;
      chains.push_back(std::move(chain));
    }

    std::vector<double> p_ref = init;
    Rng rng_ref(5000 + trial);
    std::vector<std::size_t> carries_ref;
    for (const auto& chain : chains) {
      carries_ref.push_back(
          ref::ChainAggregate(&p_ref, chain, kNoEntry, &rng_ref));
    }

    std::vector<double> p_new = init;
    Rng rng_new(5000 + trial);
    std::vector<std::size_t> carries_new;
    {
      RngStream draws(&rng_new);
      for (const auto& chain : chains) {
        carries_new.push_back(ChainAggregateRange(
            p_new.data(), chain.data(), chain.size(), kNoEntry, &draws));
      }
    }
    ASSERT_EQ(carries_ref, carries_new);
    ASSERT_EQ(p_ref, p_new);
    ExpectSameRngState(rng_ref, rng_new);
  }
}

// --- Kd builds -------------------------------------------------------------

void ExpectSameTree2D(const KdHierarchy& got, const ref::KdTree2D& want) {
  ASSERT_EQ(got.nodes().size(), want.nodes.size());
  for (std::size_t v = 0; v < want.nodes.size(); ++v) {
    const auto& a = got.nodes()[v];
    const auto& b = want.nodes[v];
    ASSERT_EQ(a.parent, b.parent) << "node " << v;
    ASSERT_EQ(a.left, b.left) << "node " << v;
    ASSERT_EQ(a.right, b.right) << "node " << v;
    ASSERT_EQ(a.axis, b.axis) << "node " << v;
    ASSERT_EQ(a.split, b.split) << "node " << v;
    ASSERT_EQ(a.begin, b.begin) << "node " << v;
    ASSERT_EQ(a.end, b.end) << "node " << v;
    // Bit-identical masses: the fast build sums in the same sequence.
    ASSERT_EQ(a.mass, b.mass) << "node " << v;
  }
  ASSERT_EQ(got.item_order(), want.item_order);
}

void ExpectSameTreeNd(const KdHierarchy& got, const ref::KdTreeNd& want) {
  // The N-d reference does not record parents.
  ASSERT_EQ(got.nodes().size(), want.nodes.size());
  for (std::size_t v = 0; v < want.nodes.size(); ++v) {
    const auto& a = got.nodes()[v];
    const auto& b = want.nodes[v];
    ASSERT_EQ(a.left, b.left) << "node " << v;
    ASSERT_EQ(a.right, b.right) << "node " << v;
    ASSERT_EQ(a.axis, b.axis) << "node " << v;
    ASSERT_EQ(a.split, b.split) << "node " << v;
    ASSERT_EQ(a.begin, b.begin) << "node " << v;
    ASSERT_EQ(a.end, b.end) << "node " << v;
    ASSERT_EQ(a.mass, b.mass) << "node " << v;
  }
  ASSERT_EQ(got.item_order(), want.item_order);
}

TEST(FastKdBuild, BitIdenticalToReferenceOnDistinctPoints) {
  for (std::size_t n : {1u, 2u, 3u, 7u, 64u, 501u, 2000u}) {
    const std::vector<Point2D> pts = DistinctPoints(n);
    Rng rng(n);
    std::vector<double> mass(n);
    for (auto& m : mass) m = 0.01 + 0.98 * rng.NextDouble();
    const KdHierarchy got = KdHierarchy::Build(pts, mass);
    const ref::KdTree2D want = ref::KdBuild(pts, mass);
    ExpectSameTree2D(got, want);
  }
}

TEST(FastKdBuild, UniformMassAndDegenerateAxis) {
  // All x equal: every split must fall back to the y axis.
  const std::size_t n = 200;
  std::vector<Point2D> pts(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts[i] = {42, static_cast<Coord>((i * 2654435761ULL) & 0xFFFFFFFFULL)};
  }
  std::vector<double> mass(n, 1.0);
  const KdHierarchy got = KdHierarchy::Build(pts, mass);
  const ref::KdTree2D want = ref::KdBuild(pts, mass);
  ExpectSameTree2D(got, want);
  for (const auto& nd : got.nodes()) {
    if (!nd.IsLeaf()) EXPECT_EQ(nd.axis, 1);
  }
}

TEST(FastKdBuild, DuplicatePointsShareOneLeafProperty) {
  // Tie order inside an all-duplicate leaf is re-baselined (index order),
  // so duplicates are property-checked rather than compared bitwise.
  std::vector<Point2D> pts;
  std::vector<double> mass;
  for (int c = 0; c < 5; ++c) {
    for (int k = 0; k < 4; ++k) {
      pts.push_back({static_cast<Coord>(10 * c), static_cast<Coord>(3 * c)});
      mass.push_back(0.25);
    }
  }
  const KdHierarchy tree = KdHierarchy::Build(pts, mass);
  // Every item appears exactly once across leaf ranges.
  std::vector<int> seen(pts.size(), 0);
  int leaves = 0;
  for (const auto& nd : tree.nodes()) {
    if (!nd.IsLeaf()) continue;
    ++leaves;
    EXPECT_EQ(nd.end - nd.begin, 4u);  // each duplicate group is one leaf
    for (std::size_t i = nd.begin; i < nd.end; ++i) {
      seen[tree.item_order()[i]]++;
    }
  }
  EXPECT_EQ(leaves, 5);
  for (int c : seen) EXPECT_EQ(c, 1);
  double root_mass = tree.nodes()[0].mass;
  EXPECT_NEAR(root_mass, 5.0, 1e-12);
}

TEST(FastKdBuildNd, BitIdenticalToReferenceOnDistinctPoints) {
  for (int dims : {1, 2, 3, 4}) {
    for (std::size_t n : {1u, 2u, 33u, 500u}) {
      std::vector<Coord> coords(n * dims);
      for (std::size_t i = 0; i < n; ++i) {
        for (int a = 0; a < dims; ++a) {
          coords[i * dims + a] = static_cast<Coord>(
              (i * (2654435761ULL + 2 * a) + a) & 0xFFFFFFFFULL);
        }
      }
      Rng rng(100 + n + dims);
      std::vector<double> mass(n);
      for (auto& m : mass) m = 0.01 + 0.98 * rng.NextDouble();
      SCOPED_TRACE(testing::Message() << "dims=" << dims << " n=" << n);
      ExpectSameTreeNd(KdHierarchy::Build(coords, dims, mass),
                       ref::KdBuildNd(coords, dims, mass));
    }
  }
}

// The presort digit is at most clamp(bit_width(n), 4, 11) bits, spread
// evenly over the passes; these sizes hit the 4-bit floor (2), widths in
// between (16: 5, 64: 7, 256: 9) and the 11-bit cap (4096, 65536).
TEST(FastKdBuild, BitIdenticalAtEveryDigitWidth) {
  for (std::size_t n : {2u, 16u, 64u, 256u, 4096u, 65536u}) {
    const std::vector<Point2D> pts = DistinctPoints(n);
    Rng rng(7 * n);
    std::vector<double> mass(n);
    for (auto& m : mass) m = 0.01 + 0.98 * rng.NextDouble();
    SCOPED_TRACE(testing::Message() << "n=" << n);
    ExpectSameTree2D(KdHierarchy::Build(pts, mass), ref::KdBuild(pts, mass));
  }
}

TEST(FastKdBuild, FullWidthCoordinatesMatchReference) {
  // Keys differ in all 64 bits: the top bit is set on every odd item and
  // clear on every even one. Pass counts: n = 40 sorts in 11 passes of 6
  // bits, 700 in 7 of 10 (odd: the result lands in the ping-pong buffer
  // and is copied back), 64 in 10 of 7 and 4096 in 6 of 11 (even). Axis 1
  // mixes in ties on a 3-bit range at the top of the domain.
  constexpr Coord kTop = Coord{1} << 63;
  for (std::size_t n : {40u, 64u, 700u, 4096u}) {
    Rng rng(n + 1);
    std::vector<Coord> coords(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      const Coord top = (i % 2 == 1) ? kTop : 0;
      coords[2 * i] = (rng.Next() & ~kTop) | top;
      coords[2 * i + 1] =
          (i % 3 == 0) ? ~rng.NextBounded(8) : (rng.Next() & ~kTop) | top;
    }
    std::vector<double> mass(n);
    for (auto& m : mass) m = 0.01 + 0.98 * rng.NextDouble();
    SCOPED_TRACE(testing::Message() << "n=" << n);
    ExpectSameTreeNd(KdHierarchy::Build(coords, 2, mass),
                     ref::KdBuildNd(coords, 2, mass));
  }
}

TEST(FastKdBuild, AllZeroAxisMatchesReference) {
  // Axis 1 is identically zero (zero presort passes, never a split axis);
  // axes 0 and 2 carry heavy ties.
  const std::size_t n = 3000;
  const int dims = 3;
  Rng rng(11);
  std::vector<Coord> coords(n * dims);
  for (std::size_t i = 0; i < n; ++i) {
    coords[i * dims] = rng.NextBounded(40);
    coords[i * dims + 1] = 0;
    coords[i * dims + 2] = rng.NextBounded(1 << 12);
  }
  std::vector<double> mass(n);
  for (auto& m : mass) m = 0.01 + 0.98 * rng.NextDouble();
  const KdHierarchy got = KdHierarchy::Build(coords, dims, mass);
  ExpectSameTreeNd(got, ref::KdBuildNd(coords, dims, mass));
  for (const auto& nd : got.nodes()) {
    if (!nd.IsLeaf()) EXPECT_NE(nd.axis, 1);
  }
}

TEST(FastKdBuild, NetworkShardIppsMassesMatchReference) {
  // One shard of the Network dataset as sharded:3:product sees it at
  // s = 1000: ~65k open keys, IPPS masses under a Pareto tail, and heavy
  // per-axis coordinate ties (popular sources and destinations).
  const Dataset2D data = GenerateNetwork(NetworkConfig{});
  std::vector<Point2D> pts;
  std::vector<Weight> weights;
  for (const auto& it : data.items) {
    if (ShardIndex(it.id, /*seed=*/1, /*num_shards=*/3) != 0) continue;
    pts.push_back(it.pt);
    weights.push_back(it.weight);
  }
  std::vector<double> probs;
  IppsProbabilities(weights, SolveTau(weights, 1000.0), &probs);
  std::vector<Point2D> open_pts;
  std::vector<double> mass;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double q = SnapProbability(probs[i]);
    if (q == 1.0 || IsSet(q)) continue;
    open_pts.push_back(pts[i]);
    mass.push_back(q);
  }
  ASSERT_GE(open_pts.size(), 65000u);
  ExpectSameTree2D(KdHierarchy::Build(open_pts, mass),
                   ref::KdBuild(open_pts, mass));
}

TEST(FastKdBuildNd, HighDimsMatchReferenceAtScale) {
  for (int dims : {3, 4}) {
    const std::size_t n = 12000;
    Rng rng(300 + dims);
    std::vector<Coord> coords(n * dims);
    for (std::size_t i = 0; i < coords.size(); ++i) {
      // Even axes: 32-bit keys; odd axes: a 10-bit range with ties.
      coords[i] = (i % dims) % 2 == 0 ? rng.NextBounded(Coord{1} << 32)
                                      : rng.NextBounded(1 << 10);
    }
    std::vector<double> mass(n);
    for (auto& m : mass) m = 0.001 + 0.998 * rng.NextDouble();
    SCOPED_TRACE(testing::Message() << "dims=" << dims);
    ExpectSameTreeNd(KdHierarchy::Build(coords, dims, mass),
                     ref::KdBuildNd(coords, dims, mass));
  }
}

// The split scan stops at the first coordinate boundary past the mass
// crossing (2 * prefix >= total). These inputs put the minimum gap at the
// edges of that rule; each build must match the reference, which scans
// every boundary.
KdHierarchy Build1D(const std::vector<Coord>& coords,
                    const std::vector<double>& mass) {
  KdHierarchy tree = KdHierarchy::Build(coords, 1, mass);
  ExpectSameTreeNd(tree, ref::KdBuildNd(coords, 1, mass));
  return tree;
}

TEST(KdSplitScan, GapTieAcrossTheCrossingKeepsTheFirstBoundary) {
  // Gaps |3 - 2| = 1 before the crossing and |3 - 4| = 1 after it.
  const KdHierarchy odd = Build1D({0, 1, 2}, {1.0, 1.0, 1.0});
  EXPECT_EQ(odd.nodes()[0].split, 1u);
  // A duplicate run hides the zero-gap boundary; the boundaries on either
  // side tie at gap 2 and the first wins.
  const KdHierarchy dup = Build1D({0, 1, 1, 3}, {1.0, 1.0, 1.0, 1.0});
  EXPECT_EQ(dup.nodes()[0].split, 1u);
  EXPECT_EQ(dup.nodes()[1].mass, 1.0);
  // Without the duplicate the zero gap wins.
  EXPECT_EQ(Build1D({0, 1, 2, 3}, {1.0, 1.0, 1.0, 1.0}).nodes()[0].split,
            2u);
}

TEST(KdSplitScan, EqualRunStraddlesTheMedian) {
  // Items 2..5 share coordinate 5 and hold the mass median; the best
  // boundary is the one before the run (gap 3), not after it (gap 5).
  const KdHierarchy tree =
      Build1D({0, 1, 5, 5, 5, 5, 9}, std::vector<double>(7, 1.0));
  EXPECT_EQ(tree.nodes()[0].split, 5u);
  EXPECT_EQ(tree.nodes()[1].end, 2u);
}

TEST(KdSplitScan, ZeroMassPlateaus) {
  // Zero masses repeat the prefix, so runs of boundaries tie exactly; the
  // first of a tied run wins, including at gap 0 and at total 0.
  Build1D({0, 1, 2, 3, 4, 5, 6}, {0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0});
  Build1D({0, 1, 2, 3, 4}, {1.0, 0.0, 0.0, 0.0, 1.0});
  Build1D({0, 1, 2, 3}, {0.0, 0.0, 0.0, 0.0});
  Build1D({0, 1, 2, 3, 4, 5}, {0.0, 0.5, 0.0, 0.0, 0.25, 0.25});
}

TEST(KdSplitScan, OnlyBoundaryPastOrBeforeTheCrossing) {
  // The only boundary comes after the crossing: it is the first boundary
  // the scan tests, so it must still be taken.
  const KdHierarchy late = Build1D({0, 0, 0, 0, 1}, std::vector<double>(5, 1.0));
  EXPECT_EQ(late.nodes()[0].split, 1u);
  EXPECT_EQ(late.nodes()[1].end, 4u);
  // The only boundary comes before the crossing: the scan runs to the end.
  const KdHierarchy early =
      Build1D({0, 1, 1, 1, 1}, std::vector<double>(5, 1.0));
  EXPECT_EQ(early.nodes()[0].split, 1u);
  EXPECT_EQ(early.nodes()[1].end, 1u);
}

TEST(KdSplitScan, AllDuplicateAxisFallsBackToTheNextAxis) {
  // Axis 0 takes two values and axis 1 three, so below the first levels
  // nodes are constant on their round-robin axis and must split on the
  // next one; identical points end as one leaf.
  const std::size_t n = 600;
  const int dims = 3;
  Rng rng(41);
  std::vector<Coord> coords(n * dims);
  for (std::size_t i = 0; i < n; ++i) {
    coords[i * dims] = rng.NextBounded(2);
    coords[i * dims + 1] = rng.NextBounded(3);
    coords[i * dims + 2] = rng.NextBounded(1000);
  }
  std::vector<double> mass(n);
  for (auto& m : mass) m = rng.NextDouble() < 0.2 ? 0.0 : rng.NextDouble();
  const KdHierarchy tree = KdHierarchy::Build(coords, dims, mass);
  ExpectSameTreeNd(tree, ref::KdBuildNd(coords, dims, mass));
  std::vector<int> depth(tree.nodes().size(), 0);
  int fallbacks = 0;
  for (std::size_t v = 0; v < tree.nodes().size(); ++v) {
    const auto& node = tree.nodes()[v];
    if (node.parent != KdHierarchy::kNull) {
      depth[v] = depth[static_cast<std::size_t>(node.parent)] + 1;
    }
    if (!node.IsLeaf() && node.axis != depth[v] % dims) ++fallbacks;
  }
  EXPECT_GT(fallbacks, 0);
}

TEST(KdSplitScan, AllDuplicatePointsGiveNoSplit) {
  for (std::size_t n : {2u, 5u, 64u, 257u}) {
    const std::vector<Coord> coords(2 * n, 42);
    const std::vector<double> mass(n, 0.5);
    const KdHierarchy tree = KdHierarchy::Build(coords, 2, mass);
    ExpectSameTreeNd(tree, ref::KdBuildNd(coords, 2, mass));
    ASSERT_EQ(tree.num_nodes(), 1) << "n=" << n;
    EXPECT_TRUE(tree.nodes()[0].IsLeaf());
  }
}

TEST(KdSplitScan, TieHeavyRandomInputsMatchReference) {
  // Small coordinate ranges (long equal runs), a share of zero masses and
  // a few heavy masses, at 1 to 3 dimensions.
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    const int dims = 1 + static_cast<int>(rng.NextBounded(3));
    const std::size_t n = 2 + rng.NextBounded(300);
    const Coord range = 2 + rng.NextBounded(12);
    std::vector<Coord> coords(n * static_cast<std::size_t>(dims));
    for (auto& c : coords) c = rng.NextBounded(range);
    std::vector<double> mass(n);
    for (auto& m : mass) {
      const double u = rng.NextDouble();
      m = u < 0.2 ? 0.0 : u < 0.3 ? 1.0 + rng.NextBounded(4) : u;
    }
    SCOPED_TRACE(testing::Message()
                 << "trial=" << trial << " dims=" << dims << " n=" << n);
    ExpectSameTreeNd(KdHierarchy::Build(coords, dims, mass),
                     ref::KdBuildNd(coords, dims, mass));
  }
}

// --- End-to-end aggregation passes (golden seeds) --------------------------

struct GoldenData {
  std::vector<WeightedKey> items;
  std::vector<double> probs;  // snapped IPPS probabilities
  double tau = 0.0;
};

GoldenData MakeGolden(std::size_t n, double s, std::uint64_t seed) {
  GoldenData g;
  Rng rng(seed);
  const std::vector<Point2D> pts = DistinctPoints(n);
  std::vector<Weight> weights(n);
  g.items.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    weights[i] = rng.NextPareto(1.15);
    g.items[i] = {static_cast<KeyId>(i), weights[i], pts[i]};
  }
  g.tau = SolveTau(weights, s);
  IppsProbabilities(weights, g.tau, &g.probs);
  for (auto& q : g.probs) q = SnapProbability(q);
  return g;
}

TEST(FastPathEndToEnd, OrderAggregateMatchesReference) {
  const GoldenData g = MakeGolden(4000, 300.0, 2024);
  std::vector<Coord> xs;
  for (const auto& it : g.items) xs.push_back(it.pt.x);
  std::vector<std::size_t> order(g.items.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });

  std::vector<double> p_ref = g.probs;
  Rng rng_ref(31337);
  const std::size_t left = ref::ChainAggregate(&p_ref, order, kNoEntry,
                                               &rng_ref);
  ref::ResolveResidual(&p_ref, left, &rng_ref);

  std::vector<double> p_new = g.probs;
  Rng rng_new(31337);
  OrderAggregate(&p_new, order, &rng_new);

  ASSERT_EQ(p_ref, p_new);
  ExpectSameRngState(rng_ref, rng_new);
}

TEST(FastPathEndToEnd, HierarchyAggregateMatchesReference) {
  const std::size_t n = 3125;  // 5^5 leaves
  const Hierarchy h = Hierarchy::Balanced(5, 5);
  ASSERT_EQ(h.num_keys(), n);
  const GoldenData g = MakeGolden(n, 250.0, 777);

  std::vector<double> p_ref = g.probs;
  {
    Rng rng(4242);
    const int nodes = h.num_nodes();
    std::vector<std::size_t> leftover(nodes, kNoEntry);
    std::vector<std::size_t> entries;
    for (int v = nodes - 1; v >= 0; --v) {
      if (h.is_leaf(v)) {
        const KeyId k = h.key_of_leaf(v);
        leftover[v] =
            IsSet(p_ref[k]) ? kNoEntry : static_cast<std::size_t>(k);
        continue;
      }
      entries.clear();
      for (int c : h.children(v)) {
        if (leftover[c] != kNoEntry) entries.push_back(leftover[c]);
      }
      leftover[v] = ref::ChainAggregate(&p_ref, entries, kNoEntry, &rng);
    }
    ref::ResolveResidual(&p_ref, leftover[h.root()], &rng);
  }

  std::vector<double> p_new = g.probs;
  Rng rng_new(4242);
  HierarchyAggregate(&p_new, h, &rng_new);
  ASSERT_EQ(p_ref, p_new);
}

TEST(FastPathEndToEnd, KdAggregateMatchesReference) {
  const GoldenData g = MakeGolden(3000, 200.0, 99);
  std::vector<Point2D> pts;
  std::vector<double> open_mass;
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < g.items.size(); ++i) {
    if (!IsSet(g.probs[i])) {
      open.push_back(i);
      pts.push_back(g.items[i].pt);
      open_mass.push_back(g.probs[i]);
    }
  }
  ASSERT_GT(open.size(), 100u);
  const KdHierarchy tree = KdHierarchy::Build(pts, open_mass);

  std::vector<double> p_ref = open_mass;
  {
    Rng rng(606);
    const int nodes = tree.num_nodes();
    std::vector<std::size_t> leftover(nodes, kNoEntry);
    std::vector<std::size_t> entries;
    for (int v = nodes - 1; v >= 0; --v) {
      const auto& node = tree.nodes()[v];
      entries.clear();
      if (node.IsLeaf()) {
        for (std::size_t i = node.begin; i < node.end; ++i) {
          const std::size_t item = tree.item_order()[i];
          if (!IsSet(p_ref[item])) entries.push_back(item);
        }
      } else {
        if (leftover[node.left] != kNoEntry) {
          entries.push_back(leftover[node.left]);
        }
        if (leftover[node.right] != kNoEntry) {
          entries.push_back(leftover[node.right]);
        }
      }
      leftover[v] = ref::ChainAggregate(&p_ref, entries, kNoEntry, &rng);
    }
    ref::ResolveResidual(&p_ref, leftover[tree.root()], &rng);
  }

  std::vector<double> p_new = open_mass;
  Rng rng_new(606);
  KdAggregate(&p_new, tree, &rng_new);
  ASSERT_EQ(p_ref, p_new);
}

TEST(FastPathEndToEnd, DisjointAggregateMatchesReference) {
  const GoldenData g = MakeGolden(2500, 150.0, 11);
  const int num_ranges = 40;
  std::vector<int> range_of(g.items.size());
  for (std::size_t i = 0; i < range_of.size(); ++i) {
    range_of[i] = static_cast<int>(i % num_ranges);
  }

  std::vector<double> p_ref = g.probs;
  {
    Rng rng(2718);
    std::vector<std::vector<std::size_t>> buckets(num_ranges);
    for (std::size_t i = 0; i < p_ref.size(); ++i) {
      if (!IsSet(p_ref[i])) buckets[range_of[i]].push_back(i);
    }
    std::vector<std::size_t> leftovers;
    for (const auto& bucket : buckets) {
      const std::size_t l = ref::ChainAggregate(&p_ref, bucket, kNoEntry,
                                                &rng);
      if (l != kNoEntry) leftovers.push_back(l);
    }
    const std::size_t fin = ref::ChainAggregate(&p_ref, leftovers, kNoEntry,
                                                &rng);
    ref::ResolveResidual(&p_ref, fin, &rng);
  }

  std::vector<double> p_new = g.probs;
  Rng rng_new(2718);
  DisjointAggregate(&p_new, range_of, num_ranges, &rng_new);
  ASSERT_EQ(p_ref, p_new);
}

TEST(FastPathEndToEnd, SummarizersAreDeterministicAndExact) {
  // The public summarizer entry points over the fast paths: two identical
  // builds agree key-for-key, and certain inclusions obey p == 1.
  const GoldenData g = MakeGolden(2000, 120.0, 5150);
  for (int round = 0; round < 2; ++round) {
    Rng r1(round + 1), r2(round + 1);
    const SummarizeResult a = OrderSummarize(g.items, 120.0, &r1);
    const SummarizeResult b = OrderSummarize(g.items, 120.0, &r2);
    ASSERT_EQ(a.sample.size(), b.sample.size());
    for (std::size_t i = 0; i < a.sample.size(); ++i) {
      ASSERT_EQ(a.sample.entries()[i].id, b.sample.entries()[i].id);
    }
    Rng r3(round + 1), r4(round + 1);
    const SummarizeResult c = ProductSummarize(g.items, 120.0, &r3);
    const SummarizeResult d = ProductSummarize(g.items, 120.0, &r4);
    ASSERT_EQ(c.sample.size(), d.sample.size());
    for (std::size_t i = 0; i < c.sample.size(); ++i) {
      ASSERT_EQ(c.sample.entries()[i].id, d.sample.entries()[i].id);
    }
  }
}

}  // namespace
}  // namespace sas

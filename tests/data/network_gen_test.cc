#include "data/network_gen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>

namespace sas {
namespace {

NetworkConfig SmallConfig() {
  NetworkConfig cfg;
  cfg.num_sources = 800;
  cfg.num_dests = 600;
  cfg.num_pairs = 3000;
  cfg.bits = 20;
  cfg.seed = 11;
  return cfg;
}

TEST(ClusteredAddresses, CountAndDistinct) {
  Rng rng(1);
  const auto addrs = GenerateClusteredAddresses(5000, 24, &rng);
  EXPECT_EQ(addrs.size(), 5000u);
  std::set<Coord> distinct(addrs.begin(), addrs.end());
  EXPECT_EQ(distinct.size(), 5000u);
  for (Coord a : addrs) EXPECT_LT(a, Coord{1} << 24);
}

TEST(ClusteredAddresses, ActuallyClustered) {
  // Compare the number of distinct /12 prefixes against a uniform draw:
  // clustering must concentrate addresses into fewer prefixes.
  Rng rng(2);
  const int bits = 24;
  const auto addrs = GenerateClusteredAddresses(4096, bits, &rng);
  std::set<Coord> prefixes;
  for (Coord a : addrs) prefixes.insert(a >> 12);
  // Uniform: ~min(4096, 2^12) ≈ 2589 distinct prefixes (coupon-collector);
  // clustered: far fewer.
  EXPECT_LT(prefixes.size(), 1500u);
  EXPECT_GE(prefixes.size(), 2u);
}

TEST(GenerateNetwork, CardinalitiesMatchConfig) {
  const auto ds = GenerateNetwork(SmallConfig());
  EXPECT_EQ(ds.items.size(), 3000u);
  EXPECT_EQ(ds.name, "network");
  std::unordered_set<std::uint64_t> pairs;
  std::set<Coord> srcs, dsts;
  for (const auto& it : ds.items) {
    pairs.insert((it.pt.x << 20) | it.pt.y);
    srcs.insert(it.pt.x);
    dsts.insert(it.pt.y);
    EXPECT_GT(it.weight, 0.0);
  }
  EXPECT_EQ(pairs.size(), 3000u);  // pairs distinct
  EXPECT_LE(srcs.size(), 800u);
  EXPECT_LE(dsts.size(), 600u);
}

TEST(GenerateNetwork, Deterministic) {
  const auto a = GenerateNetwork(SmallConfig());
  const auto b = GenerateNetwork(SmallConfig());
  ASSERT_EQ(a.items.size(), b.items.size());
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].pt, b.items[i].pt);
    EXPECT_DOUBLE_EQ(a.items[i].weight, b.items[i].weight);
  }
}

TEST(GenerateNetwork, SeedChangesData) {
  auto cfg = SmallConfig();
  const auto a = GenerateNetwork(cfg);
  cfg.seed = 999;
  const auto b = GenerateNetwork(cfg);
  bool any_diff = false;
  for (std::size_t i = 0; i < std::min(a.items.size(), b.items.size()); ++i) {
    any_diff |= !(a.items[i].pt == b.items[i].pt);
  }
  EXPECT_TRUE(any_diff);
}

TEST(GenerateNetwork, HierarchiesPresent) {
  const auto ds = GenerateNetwork(SmallConfig());
  ASSERT_NE(ds.hx, nullptr);
  ASSERT_NE(ds.hy, nullptr);
  // Hierarchy covers the distinct x-coordinates.
  std::set<Coord> xs;
  for (const auto& it : ds.items) xs.insert(it.pt.x);
  EXPECT_EQ(ds.hx->num_keys(), xs.size());
}

TEST(GenerateNetwork, WeightsHeavyTailed) {
  const auto ds = GenerateNetwork(SmallConfig());
  Weight total = 0.0, max_w = 0.0;
  for (const auto& it : ds.items) {
    total += it.weight;
    max_w = std::max(max_w, it.weight);
  }
  EXPECT_GT(max_w / total, 1e-4);
}

}  // namespace
}  // namespace sas

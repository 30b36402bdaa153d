#include "structure/order.h"

#include <gtest/gtest.h>

#include <vector>

namespace sas {
namespace {

TEST(SortedOrder, SortsByCoord) {
  const std::vector<Coord> coords{30, 10, 20};
  const auto order = SortedOrder(coords);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 0u);
}

TEST(SortedOrder, StableOnTies) {
  const std::vector<Coord> coords{5, 5, 5};
  const auto order = SortedOrder(coords);
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 1u);
  EXPECT_EQ(order[2], 2u);
}

TEST(SortedOrder, Empty) { EXPECT_TRUE(SortedOrder({}).empty()); }

}  // namespace
}  // namespace sas

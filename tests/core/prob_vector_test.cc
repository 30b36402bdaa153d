#include "oracles/prob_vector.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/random.h"

namespace sas {
namespace {

TEST(ProbVector, ConstructTracksOpenAndSum) {
  ProbVector pv({0.0, 0.5, 1.0, 0.25});
  EXPECT_EQ(pv.size(), 4u);
  EXPECT_EQ(pv.open_count(), 2u);
  EXPECT_NEAR(pv.sum(), 1.75, 1e-12);
  EXPECT_TRUE(pv.IsSetAt(0));
  EXPECT_FALSE(pv.IsSetAt(1));
  EXPECT_TRUE(pv.IsSetAt(2));
}

TEST(ProbVector, SnapsNearBoundaryInputs) {
  ProbVector pv({1e-14, 1.0 - 1e-14});
  EXPECT_EQ(pv.open_count(), 0u);
  EXPECT_DOUBLE_EQ(pv[0], 0.0);
  EXPECT_DOUBLE_EQ(pv[1], 1.0);
}

TEST(ProbVector, AggregateReducesOpenCount) {
  Rng rng(1);
  ProbVector pv({0.5, 0.5, 0.5, 0.5});
  pv.Aggregate(0, 1, &rng);
  EXPECT_LE(pv.open_count(), 3u);
  EXPECT_GE(pv.open_count(), 2u);
}

TEST(ProbVector, AggregateToCompletion) {
  Rng rng(2);
  for (int trial = 0; trial < 100; ++trial) {
    ProbVector pv({0.5, 0.5, 0.5, 0.5});
    // Aggregate any open pair until at most one open entry remains.
    while (pv.open_count() >= 2) {
      std::vector<std::size_t> open;
      for (std::size_t i = 0; i < pv.size(); ++i) {
        if (!pv.IsSetAt(i)) open.push_back(i);
      }
      pv.Aggregate(open[0], open[1], &rng);
    }
    if (pv.open_count() == 1) {
      for (std::size_t i = 0; i < pv.size(); ++i) {
        if (!pv.IsSetAt(i)) pv.ResolveResidual(i, &rng);
      }
    }
    EXPECT_EQ(pv.open_count(), 0u);
    // Initial mass 2.0 -> exactly 2 ones.
    EXPECT_EQ(pv.OnesIndices().size(), 2u);
  }
}

TEST(ProbVector, OnesIndices) {
  ProbVector pv({1.0, 0.0, 1.0, 0.5});
  const auto ones = pv.OnesIndices();
  ASSERT_EQ(ones.size(), 2u);
  EXPECT_EQ(ones[0], 0u);
  EXPECT_EQ(ones[1], 2u);
}

TEST(ProbVector, ResolveResidualFrequency) {
  Rng rng(3);
  int ones = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    ProbVector pv({0.7});
    pv.ResolveResidual(0, &rng);
    ones += pv[0] == 1.0;
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.7, 0.01);
}

}  // namespace
}  // namespace sas

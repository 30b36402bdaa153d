// Bit pins of the VarOpt sample merge (core/merge.h): for fixed input
// samples and merge seeds, MergeSampleParts and MergeAllSamples must return
// exactly these sampled ids, in sample order, and exactly this tau. The
// parts are product samples of differently sized inputs: merging a small
// one into a large one mixes small and near-1 probabilities, the shape of
// a windowed merge, and two peers leave most entries open. A change to the
// gather, the threshold solve, the shuffle, the settle chain or the
// compaction that moves any draw or any output bit fails here. Every pin is
// checked with the kernels at the scalar level and at the best level of
// the build (the parts are rebuilt at each), so tau may not depend on it.
//
// On a mismatch the failure message prints the actual pin in table syntax.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "api/registry.h"
#include "core/merge.h"
#include "core/random.h"
#include "../api/test_util.h"

namespace sas {
namespace {

constexpr std::size_t kS = 24;

struct Pin {
  std::uint64_t tau_bits;
  std::vector<KeyId> ids;
};

/// A product sample of size kS over `n` Pareto items with ids starting at
/// `first_id` (disjoint id ranges keep the parts' entries distinguishable).
Sample ProductPart(std::size_t n, KeyId first_id, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<WeightedKey> items;
  for (std::size_t i = 0; i < n; ++i) {
    items.push_back({first_id + static_cast<KeyId>(i), rng.NextPareto(1.2),
                     {rng.NextBounded(Coord{1} << 16),
                      rng.NextBounded(Coord{1} << 16)}});
  }
  SummarizerConfig cfg;
  cfg.s = static_cast<double>(kS);
  cfg.seed = seed;
  auto builder = MakeSummarizer("product", cfg);
  builder->AddBatch(items);
  auto summary = builder->Finalize();
  return summary->AsSample()->sample();
}

struct Parts {
  Sample small;  // 150 items: a low threshold
  Sample large;  // 2000 items: a threshold ~10x higher
  Sample mid;    // 600 items
  Sample peer;   // 2000 other items: a threshold near large's
  Sample empty;
};

Parts MakeParts() {
  Parts p;
  p.small = ProductPart(150, 0, 31);
  p.large = ProductPart(2000, 1000, 32);
  p.mid = ProductPart(600, 5000, 33);
  p.peer = ProductPart(2000, 8000, 34);
  return p;
}

using PartList = std::initializer_list<Sample Parts::*>;

Pin PinOf(const Sample& sample) {
  Pin p{std::bit_cast<std::uint64_t>(sample.tau()), {}};
  for (const auto& e : sample.entries()) p.ids.push_back(e.id);
  return p;
}

std::string Render(const Pin& p) {
  std::ostringstream os;
  os << "{0x" << std::hex << p.tau_bits << std::dec << "ULL, {";
  for (std::size_t i = 0; i < p.ids.size(); ++i) {
    os << (i ? ", " : "") << p.ids[i];
  }
  os << "}}";
  return os.str();
}

void ExpectPin(const Pin& got, const Pin& want) {
  EXPECT_EQ(got.tau_bits, want.tau_bits) << "actual pin: " << Render(got);
  EXPECT_EQ(got.ids, want.ids) << "actual pin: " << Render(got);
}

constexpr std::uint64_t kSeeds[3] = {5, 17, 2024};

/// Merges `parts` under each seed with one reused scratch (the windowed
/// call shape) and checks each result against its pin, at every level.
void ExpectPartsPins(PartList parts, std::size_t s, const Pin (&want)[3]) {
  test::AtEverySimdLevel([&] {
    const Parts p = MakeParts();
    std::vector<const Sample*> ptrs;
    for (Sample Parts::*part : parts) ptrs.push_back(&(p.*part));
    MergeScratch scratch;
    for (int i = 0; i < 3; ++i) {
      SCOPED_TRACE(testing::Message() << "seed=" << kSeeds[i]);
      Rng rng(kSeeds[i]);
      ExpectPin(PinOf(MergeSampleParts(ptrs.data(), ptrs.size(), s, &rng,
                                       &scratch)),
                want[i]);
    }
  });
}

TEST(MergePins, InputsHaveDistinctThresholds) {
  const Parts p = MakeParts();
  ASSERT_EQ(p.small.size(), kS);
  ASSERT_EQ(p.large.size(), kS);
  ASSERT_EQ(p.mid.size(), kS);
  ASSERT_EQ(p.peer.size(), kS);
  EXPECT_GT(p.large.tau(), 5.0 * p.small.tau());
}

TEST(MergePins, TwoParts) {
  const Pin want[3] = {
      {0x40806647421d2da0ULL,
       {125, 1486, 1960, 2501, 2879, 1089, 1103, 1180, 1197, 1475, 1899, 1980,
        2039, 2066, 2114, 2146, 2298, 2336, 2407, 2480, 2625, 2634, 2775,
        2953}},
      {0x40806647421d2da0ULL,
       {1486, 1960, 2501, 2879, 1089, 1103, 1180, 1197, 1475, 1609, 1899, 1980,
        2039, 2066, 2114, 2146, 2298, 2336, 2407, 2480, 2625, 2634, 2775,
        2953}},
      {0x40806647421d2da0ULL,
       {1486, 1960, 2501, 2879, 1089, 1103, 1180, 1197, 1475, 1609, 1899, 1980,
        2039, 2066, 2114, 2146, 2298, 2336, 2407, 2480, 2625, 2634, 2775,
        2953}},
  };
  ExpectPartsPins({&Parts::small, &Parts::large}, kS, want);
}

TEST(MergePins, TwoPeerParts) {
  const Pin want[3] = {
      {0x408d0bd6f90a2a20ULL,
       {1486, 2501, 1103, 1475, 1980, 2039, 2298, 2336, 2480, 2625, 2634, 2775,
        8097, 8142, 8361, 8386, 8672, 9207, 9305, 9320, 9494, 9517, 9894,
        9910}},
      {0x408d0bd6f90a2a20ULL,
       {1486, 2879, 1089, 1197, 1475, 1899, 1980, 2066, 2114, 2146, 2480, 2634,
        2775, 2953, 8097, 8101, 8386, 8672, 8891, 9305, 9320, 9517, 9598,
        9910}},
      {0x408d0bd6f90a2a20ULL,
       {1486, 1960, 2879, 1103, 1180, 1197, 1475, 1609, 2039, 2146, 2298, 2336,
        2407, 2775, 2953, 8097, 8006, 8101, 8150, 8386, 8891, 9305, 9491,
        9517}},
  };
  ExpectPartsPins({&Parts::large, &Parts::peer}, kS, want);
}

TEST(MergePins, ThreeParts) {
  const Pin want[3] = {
      {0x408411991ef187b5ULL,
       {1486, 1960, 2501, 2879, 1089, 1103, 1197, 1475, 1899, 1980, 2039, 2066,
        2114, 2146, 2298, 2336, 2407, 2480, 2625, 2634, 2775, 2953, 5083,
        5091}},
      {0x408411991ef187b5ULL,
       {1486, 1960, 2501, 2879, 1089, 1103, 1180, 1197, 1475, 1899, 1980, 2039,
        2066, 2114, 2146, 2298, 2336, 2407, 2480, 2625, 2634, 2775, 34, 5145}},
      {0x408411991ef187b5ULL,
       {1486, 1960, 2501, 2879, 1089, 1103, 1197, 1475, 1899, 2039, 2066, 2114,
        2146, 2298, 2336, 2625, 2634, 2775, 2953, 118, 5253, 5153, 5212, 5239}},
  };
  ExpectPartsPins({&Parts::large, &Parts::small, &Parts::mid}, kS, want);
}

TEST(MergePins, ZeroEntryPart) {
  const Pin want[3] = {
      {0x407eb728ce5d7435ULL,
       {5081, 5212, 5324, 5343, 5355, 5521, 8097, 8006, 8063, 8101, 8142, 8361,
        8386, 8522, 8891, 9099, 9112, 9305, 9320, 9491, 9499, 9517, 9650,
        9894}},
      {0x407eb728ce5d7435ULL,
       {5034, 5081, 5091, 5453, 8097, 8006, 8101, 8142, 8150, 8361, 8522, 8672,
        8891, 9099, 9112, 9320, 9491, 9494, 9499, 9517, 9598, 9650, 9894,
        9910}},
      {0x407eb728ce5d7435ULL,
       {5253, 5011, 8097, 8006, 8063, 8101, 8142, 8150, 8361, 8522, 8672, 8891,
        9099, 9112, 9207, 9305, 9320, 9491, 9494, 9499, 9598, 9650, 9894,
        9910}},
  };
  ExpectPartsPins({&Parts::mid, &Parts::empty, &Parts::peer}, kS, want);
}

TEST(MergePins, AllFit) {
  // 2 * kS entries fit in 2 * kS: every entry is kept at its adjusted
  // weight, tau is 0 and no draw is consumed.
  const Pin want[3] = {
      {0x0ULL,
       {34, 65, 97, 146, 0, 2, 5, 12, 18, 31, 58, 61, 68, 71, 80, 85, 100, 109,
        112, 118, 125, 128, 142, 148, 1486, 1960, 2501, 2879, 1089, 1103, 1180,
        1197, 1475, 1609, 1899, 1980, 2039, 2066, 2114, 2146, 2298, 2336, 2407,
        2480, 2625, 2634, 2775, 2953}},
      {0x0ULL,
       {34, 65, 97, 146, 0, 2, 5, 12, 18, 31, 58, 61, 68, 71, 80, 85, 100, 109,
        112, 118, 125, 128, 142, 148, 1486, 1960, 2501, 2879, 1089, 1103, 1180,
        1197, 1475, 1609, 1899, 1980, 2039, 2066, 2114, 2146, 2298, 2336, 2407,
        2480, 2625, 2634, 2775, 2953}},
      {0x0ULL,
       {34, 65, 97, 146, 0, 2, 5, 12, 18, 31, 58, 61, 68, 71, 80, 85, 100, 109,
        112, 118, 125, 128, 142, 148, 1486, 1960, 2501, 2879, 1089, 1103, 1180,
        1197, 1475, 1609, 1899, 1980, 2039, 2066, 2114, 2146, 2298, 2336, 2407,
        2480, 2625, 2634, 2775, 2953}},
  };
  ExpectPartsPins({&Parts::small, &Parts::large}, 2 * kS, want);
  const Parts p = MakeParts();
  Rng rng(kSeeds[0]), untouched(kSeeds[0]);
  const Sample* parts[2] = {&p.small, &p.large};
  (void)MergeSampleParts(parts, 2, 2 * kS, &rng, nullptr);
  EXPECT_EQ(rng.Next(), untouched.Next());
}

TEST(MergePins, MergeAllSamplesThreeParts) {
  const Pin want[3] = {
      {0x40801095efedde41ULL,
       {5011, 5081, 5212, 5453, 8097, 8006, 8063, 8101, 8142, 8361, 8386, 8522,
        8672, 9207, 9305, 9320, 9491, 9494, 9499, 9517, 9598, 9650, 9894,
        9910}},
      {0x40801095efedde41ULL,
       {5253, 5157, 5264, 8097, 8101, 8142, 8150, 8361, 8386, 8522, 8672, 8891,
        9099, 9112, 9207, 9305, 9491, 9494, 9499, 9517, 9598, 9650, 9894,
        9910}},
      {0x40801095efedde41ULL,
       {34, 5253, 5028, 5239, 5321, 5453, 8097, 8006, 8063, 8101, 8142, 8150,
        8386, 8522, 8891, 9099, 9112, 9305, 9320, 9491, 9494, 9499, 9517,
        9894}},
  };
  test::AtEverySimdLevel([&] {
    const Parts p = MakeParts();
    const std::vector<Sample> parts = {p.small, p.mid, p.peer};
    for (int i = 0; i < 3; ++i) {
      SCOPED_TRACE(testing::Message() << "seed=" << kSeeds[i]);
      Rng rng(kSeeds[i]);
      ExpectPin(PinOf(MergeAllSamples(parts, kS, &rng)), want[i]);
    }
  });
}

}  // namespace
}  // namespace sas

// Bit pins of the Section 5 two-pass constructions: for fixed inputs and
// seeds, every two-pass registry key (and the TwoPassProductSample free
// function) must return exactly these sampled ids, in sample order, and
// exactly this tau. A refactor of the two-pass machinery that changes any
// draw, the pass-2 cell routing or the final aggregation order fails here.
//
// On a mismatch the failure message prints the actual pin in table syntax.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/registry.h"
#include "aware/two_pass.h"
#include "core/random.h"
#include "structure/hierarchy.h"

namespace sas {
namespace {

constexpr std::size_t kN = 400;
constexpr double kS = 24.0;
constexpr int kNumRanges = 200;  // sparse enough to leave gap cells

struct Pin {
  std::uint64_t tau_bits;
  std::vector<KeyId> ids;
};

struct Inputs {
  std::vector<WeightedKey> items;
  std::vector<int> range_of;
  Hierarchy h;
};

const Inputs& TheInputs() {
  static const Inputs in = [] {
    Inputs r;
    Rng rng(20111);
    for (KeyId k = 0; k < kN; ++k) {
      const Coord x = rng.NextBounded(Coord{1} << 16);
      const Coord y = rng.NextBounded(Coord{1} << 16);
      r.items.push_back({k, rng.NextPareto(1.2), {x, y}});
      r.range_of.push_back(static_cast<int>(rng.NextBounded(kNumRanges)));
    }
    Rng tree_rng(20112);
    r.h = Hierarchy::Random(kN, 4, &tree_rng);
    return r;
  }();
  return in;
}

Pin PinOf(const Sample& sample) {
  Pin p{std::bit_cast<std::uint64_t>(sample.tau()), {}};
  for (const auto& e : sample.entries()) p.ids.push_back(e.id);
  return p;
}

Pin RunKeyOn(const std::vector<WeightedKey>& items, const char* key,
             std::uint64_t seed, HierarchyPartition partition) {
  const Inputs& in = TheInputs();
  SummarizerConfig cfg;
  cfg.s = kS;
  cfg.seed = seed;
  cfg.hierarchy_partition = partition;
  const std::string k = key;
  if (k == keys::kOrderTwoPass) {
    cfg.structure = StructureSpec::Order();
  } else if (k == keys::kDisjointTwoPass) {
    cfg.structure = StructureSpec::Disjoint(in.range_of, kNumRanges);
  } else if (k == keys::kHierarchyTwoPass) {
    cfg.structure = StructureSpec::OverHierarchy(&in.h);
  }
  auto builder = MakeSummarizer(key, cfg);
  builder->AddBatch(items);
  const auto summary = builder->Finalize();
  const SampleSummary* sample = summary->AsSample();
  EXPECT_NE(sample, nullptr);
  return sample == nullptr ? Pin{} : PinOf(sample->sample());
}

Pin RunKey(const char* key, std::uint64_t seed,
           HierarchyPartition partition = HierarchyPartition::kLinearize) {
  return RunKeyOn(TheInputs().items, key, seed, partition);
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

TEST(TwoPassPins, OrderTwoPass) {
  const Pin want[3] = {
      {0x404f159feb37bf0aULL,
       {49, 64, 84, 374, 176, 30, 241, 317, 59, 53, 92, 386, 214, 151, 73, 330,
        272, 161, 358, 93, 202, 27, 58, 351}},
      {0x404f159feb37bf0aULL,
       {49, 64, 84, 272, 374, 342, 366, 289, 69, 229, 195, 236, 214, 70, 140,
        28, 323, 19, 158, 93, 27, 60, 124, 351}},
      {0x404f159feb37bf0aULL,
       {49, 64, 84, 272, 374, 178, 223, 363, 69, 53, 45, 337, 214, 360, 120, 7,
        338, 243, 260, 167, 188, 13, 331, 231}},
  };
  for (int i = 0; i < 3; ++i) {
    ExpectPin(RunKey(keys::kOrderTwoPass, kSeeds[i]), want[i]);
  }
}

TEST(TwoPassPins, DisjointTwoPass) {
  const Pin want[3] = {
      {0x404f159feb37bf0aULL,
       {49, 64, 84, 374, 93, 156, 378, 97, 242, 287, 123, 69, 356, 272, 295,
        392, 124, 178, 358, 4, 236, 101, 27, 53}},
      {0x404f159feb37bf0aULL,
       {49, 64, 84, 374, 7, 13, 254, 278, 231, 255, 5, 69, 272, 163, 386, 273,
        213, 367, 241, 61, 363, 50, 60, 53}},
      {0x404f159feb37bf0aULL,
       {49, 64, 84, 374, 7, 204, 254, 174, 11, 255, 26, 125, 92, 272, 338, 33,
        162, 29, 258, 45, 363, 27, 88, 53}},
  };
  for (int i = 0; i < 3; ++i) {
    ExpectPin(RunKey(keys::kDisjointTwoPass, kSeeds[i]), want[i]);
  }
}

TEST(TwoPassPins, HierarchyTwoPassLinearize) {
  const Pin want[3] = {
      {0x404f159feb37bf0aULL,
       {49, 64, 84, 272, 374, 4, 27, 35, 56, 69, 92, 102, 138, 156, 175, 201,
        225, 259, 294, 299, 323, 351, 352, 377}},
      {0x404f159feb37bf0aULL,
       {49, 64, 84, 374, 1, 27, 43, 54, 74, 93, 110, 138, 174, 190, 201, 230,
        251, 272, 274, 290, 320, 345, 363, 375}},
      {0x404f159feb37bf0aULL,
       {49, 64, 84, 272, 374, 16, 26, 33, 67, 76, 93, 124, 147, 156, 178, 213,
        235, 263, 274, 300, 331, 351, 358, 373}},
  };
  for (int i = 0; i < 3; ++i) {
    ExpectPin(RunKey(keys::kHierarchyTwoPass, kSeeds[i],
                     HierarchyPartition::kLinearize),
              want[i]);
  }
}

TEST(TwoPassPins, HierarchyTwoPassAncestors) {
  const Pin want[3] = {
      {0x404f159feb37bf0aULL,
       {49, 64, 84, 374, 370, 353, 338, 323, 297, 279, 272, 257, 221, 214, 188,
        163, 144, 98, 93, 73, 53, 33, 27, 16}},
      {0x404f159feb37bf0aULL,
       {49, 64, 84, 374, 368, 351, 338, 323, 305, 272, 255, 250, 230, 197, 175,
        167, 139, 124, 73, 69, 53, 45, 11, 22}},
      {0x404f159feb37bf0aULL,
       {49, 64, 84, 374, 378, 354, 363, 339, 294, 313, 272, 255, 231, 204, 187,
        167, 152, 132, 92, 75, 45, 33, 27, 7}},
  };
  for (int i = 0; i < 3; ++i) {
    ExpectPin(RunKey(keys::kHierarchyTwoPass, kSeeds[i],
                     HierarchyPartition::kAncestors),
              want[i]);
  }
}

TEST(TwoPassPins, Aware) {
  const Pin want[3] = {
      {0x404f159feb37bf0aULL,
       {49, 64, 84, 374, 399, 363, 343, 155, 52, 20, 59, 214, 92, 273, 102, 93,
        288, 22, 48, 338, 272, 135, 110, 351}},
      {0x404f159feb37bf0aULL,
       {49, 64, 84, 374, 363, 283, 53, 17, 200, 353, 50, 214, 45, 174, 383, 93,
        297, 231, 371, 323, 272, 265, 308, 27}},
      {0x404f159feb37bf0aULL,
       {49, 64, 84, 27, 272, 374, 306, 372, 316, 195, 69, 366, 108, 214, 34,
        220, 168, 88, 101, 288, 134, 323, 362, 351}},
  };
  for (int i = 0; i < 3; ++i) {
    ExpectPin(RunKey(keys::kAware, kSeeds[i]), want[i]);
  }
}

TEST(TwoPassPins, TwoPassProductSample) {
  const Pin want[3] = {
      {0x404f159feb37bf0aULL,
       {49, 64, 84, 374, 399, 363, 343, 155, 52, 20, 59, 214, 92, 273, 102, 93,
        288, 22, 48, 338, 272, 135, 110, 351}},
      {0x404f159feb37bf0aULL,
       {49, 64, 84, 374, 363, 283, 53, 17, 200, 353, 50, 214, 45, 174, 383, 93,
        297, 231, 371, 323, 272, 265, 308, 27}},
      {0x404f159feb37bf0aULL,
       {49, 64, 84, 27, 272, 374, 306, 372, 316, 195, 69, 366, 108, 214, 34,
        220, 168, 88, 101, 288, 134, 323, 362, 351}},
  };
  for (int i = 0; i < 3; ++i) {
    Rng rng(kSeeds[i]);
    ExpectPin(PinOf(TwoPassProductSample(TheInputs().items, kS,
                                         TwoPassConfig{}, &rng)),
              want[i]);
  }
}

// The structure of the disjoint and hierarchy keys is positional
// (StructureSpec: range_of[i] and hierarchy key i belong to the i-th item
// added), so ids are labels only: with every id offset by a constant, both
// keys sample the same positions. Their guide sample never reads ids, so
// the draws match exactly.
TEST(TwoPassPositions, IdsDoNotSteerTheStructure) {
  constexpr KeyId kOffset = 100000;
  std::vector<WeightedKey> offset = TheInputs().items;
  for (auto& it : offset) it.id += kOffset;
  const struct {
    const char* key;
    HierarchyPartition partition;
  } cases[] = {
      {keys::kDisjointTwoPass, HierarchyPartition::kLinearize},
      {keys::kHierarchyTwoPass, HierarchyPartition::kLinearize},
      {keys::kHierarchyTwoPass, HierarchyPartition::kAncestors},
  };
  for (const auto& c : cases) {
    for (std::uint64_t seed : kSeeds) {
      const Pin plain = RunKeyOn(TheInputs().items, c.key, seed, c.partition);
      Pin shifted = RunKeyOn(offset, c.key, seed, c.partition);
      for (auto& id : shifted.ids) id -= kOffset;
      EXPECT_EQ(shifted.tau_bits, plain.tau_bits) << c.key << " seed " << seed;
      EXPECT_EQ(shifted.ids, plain.ids) << c.key << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace sas

// Bit pins of the Section 5 two-pass constructions and of the Section 4
// product-space sampler: for fixed inputs and seeds, every two-pass
// registry key (and the TwoPassProductSample free function), and `product`
// / `nd` through each of their ingest paths, must return exactly these
// sampled ids, in sample order, and exactly this tau. A refactor that
// changes any draw, the pass-2 cell routing, the kd tree or the final
// aggregation order fails here.
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
#include "../api/test_util.h"

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
  std::vector<Coord> z;  // third axis of the d = 3 product points
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
    Rng z_rng(20113);
    for (std::size_t i = 0; i < kN; ++i) {
      r.z.push_back(z_rng.NextBounded(Coord{1} << 16));
    }
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

// --- product / nd -----------------------------------------------------------

enum class Feed { kAdd, kAddBatch, kAddCoords, kAddCoordsKeyed };

/// Caller ids of the keyed coordinate path: distinct from the insertion
/// index, so the pin shows which of the two the sample carries.
KeyId KeyedId(KeyId k) { return 5 * k + 3; }

/// Feeds the common inputs to `key` at `dims` through `feed`. Coordinate
/// ingest sends point i as (x, y, z)[0, dims).
Pin RunProduct(const char* key, int dims, Feed feed, std::uint64_t seed) {
  const Inputs& in = TheInputs();
  SummarizerConfig cfg;
  cfg.s = kS;
  cfg.seed = seed;
  cfg.structure = StructureSpec::Nd(dims);
  auto builder = MakeSummarizer(key, cfg);
  for (std::size_t i = 0; i < kN; ++i) {
    const WeightedKey& it = in.items[i];
    const Coord point[3] = {it.pt.x, it.pt.y, in.z[i]};
    if (feed == Feed::kAdd) {
      builder->Add(it);
    } else if (feed == Feed::kAddCoords) {
      builder->AddCoords(static_cast<KeyId>(i), point, dims, it.weight);
    } else if (feed == Feed::kAddCoordsKeyed) {
      builder->AddCoords(KeyedId(it.id), point, dims, it.weight);
    }
  }
  if (feed == Feed::kAddBatch) builder->AddBatch(in.items);
  const auto summary = builder->Finalize();
  const SampleSummary* sample = summary->AsSample();
  EXPECT_NE(sample, nullptr);
  return sample == nullptr ? Pin{} : PinOf(sample->sample());
}

/// Checks the pins with the kernels at the scalar level and at the best
/// level of the build: a tau that depends on the level fails here.
void ExpectProductPins(const char* key, int dims, Feed feed,
                       const Pin (&want)[3]) {
  test::AtEverySimdLevel([&] {
    for (int i = 0; i < 3; ++i) {
      SCOPED_TRACE(testing::Message() << key << " dims=" << dims
                                      << " seed=" << kSeeds[i]);
      ExpectPin(RunProduct(key, dims, feed, kSeeds[i]), want[i]);
    }
  });
}

TEST(ProductPins, ProductAddBatch) {
  const Pin want[3] = {
      {0x404f159feb37bf0dULL,
       {49, 64, 84, 374, 5, 27, 38, 43, 70, 82, 92, 102, 133, 144, 151, 165,
        241, 263, 272, 312, 326, 351, 358, 391}},
      {0x404f159feb37bf0dULL,
       {49, 64, 84, 374, 11, 14, 27, 29, 70, 92, 99, 181, 220, 248, 257, 272,
        282, 325, 338, 347, 351, 353, 363, 390}},
      {0x404f159feb37bf0dULL,
       {49, 64, 84, 374, 48, 78, 81, 93, 100, 103, 137, 164, 171, 179, 199, 202,
        222, 231, 272, 280, 331, 347, 360, 389}},
  };
  ExpectProductPins(keys::kProduct, 2, Feed::kAddBatch, want);
}

TEST(ProductPins, NdAddDims1) {
  const Pin want[3] = {
      {0x404f159feb37bf0dULL,
       {49, 64, 84, 374, 45, 57, 93, 98, 168, 191, 231, 242, 270, 272, 280, 284,
        311, 326, 330, 338, 351, 363, 375, 386}},
      {0x404f159feb37bf0dULL,
       {49, 64, 84, 374, 7, 19, 27, 47, 62, 80, 92, 98, 103, 129, 168, 174, 228,
        247, 266, 272, 274, 329, 330, 341}},
      {0x404f159feb37bf0dULL,
       {49, 64, 84, 374, 27, 30, 43, 92, 102, 137, 176, 181, 189, 214, 272, 276,
        282, 323, 329, 343, 357, 361, 392, 397}},
  };
  ExpectProductPins(keys::kNd, 1, Feed::kAdd, want);
}

TEST(ProductPins, NdAddDims2) {
  const Pin want[3] = {
      {0x404f159feb37bf0dULL,
       {49, 64, 84, 374, 5, 27, 38, 43, 70, 82, 92, 102, 133, 144, 151, 165,
        241, 263, 272, 312, 326, 351, 358, 391}},
      {0x404f159feb37bf0dULL,
       {49, 64, 84, 374, 11, 14, 27, 29, 70, 92, 99, 181, 220, 248, 257, 272,
        282, 325, 338, 347, 351, 353, 363, 390}},
      {0x404f159feb37bf0dULL,
       {49, 64, 84, 374, 48, 78, 81, 93, 100, 103, 137, 164, 171, 179, 199, 202,
        222, 231, 272, 280, 331, 347, 360, 389}},
  };
  ExpectProductPins(keys::kNd, 2, Feed::kAdd, want);
}

TEST(ProductPins, NdAddCoordsDims1) {
  const Pin want[3] = {
      {0x404f159feb37bf0dULL,
       {49, 64, 84, 374, 45, 57, 93, 98, 168, 191, 231, 242, 270, 272, 280, 284,
        311, 326, 330, 338, 351, 363, 375, 386}},
      {0x404f159feb37bf0dULL,
       {49, 64, 84, 374, 7, 19, 27, 47, 62, 80, 92, 98, 103, 129, 168, 174, 228,
        247, 266, 272, 274, 329, 330, 341}},
      {0x404f159feb37bf0dULL,
       {49, 64, 84, 374, 27, 30, 43, 92, 102, 137, 176, 181, 189, 214, 272, 276,
        282, 323, 329, 343, 357, 361, 392, 397}},
  };
  ExpectProductPins(keys::kNd, 1, Feed::kAddCoords, want);
}

TEST(ProductPins, NdAddCoordsDims2) {
  const Pin want[3] = {
      {0x404f159feb37bf0dULL,
       {49, 64, 84, 374, 5, 27, 38, 43, 70, 82, 92, 102, 133, 144, 151, 165,
        241, 263, 272, 312, 326, 351, 358, 391}},
      {0x404f159feb37bf0dULL,
       {49, 64, 84, 374, 11, 14, 27, 29, 70, 92, 99, 181, 220, 248, 257, 272,
        282, 325, 338, 347, 351, 353, 363, 390}},
      {0x404f159feb37bf0dULL,
       {49, 64, 84, 374, 48, 78, 81, 93, 100, 103, 137, 164, 171, 179, 199, 202,
        222, 231, 272, 280, 331, 347, 360, 389}},
  };
  ExpectProductPins(keys::kNd, 2, Feed::kAddCoords, want);
}

TEST(ProductPins, NdAddCoordsDims3) {
  const Pin want[3] = {
      {0x404f159feb37bf0dULL,
       {49, 64, 84, 374, 27, 48, 53, 69, 101, 126, 159, 168, 201, 206, 213, 217,
        263, 272, 328, 338, 339, 353, 376, 386}},
      {0x404f159feb37bf0dULL,
       {49, 64, 84, 374, 0, 1, 27, 30, 33, 47, 60, 61, 69, 139, 165, 184, 193,
        208, 213, 243, 272, 277, 294, 323}},
      {0x404f159feb37bf0dULL,
       {49, 64, 84, 374, 10, 27, 33, 53, 85, 92, 93, 114, 146, 174, 178, 180,
        208, 263, 272, 307, 323, 331, 339, 382}},
  };
  ExpectProductPins(keys::kNd, 3, Feed::kAddCoords, want);
}

TEST(ProductPins, NdAddCoordsKeyedDims3) {
  const Pin want[3] = {
      {0x404f159feb37bf0dULL,
       {248, 323, 423, 1873, 138, 243, 268, 348, 508, 633, 798, 843, 1008, 1033,
        1068, 1088, 1318, 1363, 1643, 1693, 1698, 1768, 1883, 1933}},
      {0x404f159feb37bf0dULL,
       {248, 323, 423, 1873, 3, 8, 138, 153, 168, 238, 303, 308, 348, 698, 828,
        923, 968, 1043, 1068, 1218, 1363, 1388, 1473, 1618}},
      {0x404f159feb37bf0dULL,
       {248, 323, 423, 1873, 53, 138, 168, 268, 428, 463, 468, 573, 733, 873,
        893, 903, 1043, 1318, 1363, 1538, 1618, 1658, 1698, 1913}},
  };
  ExpectProductPins(keys::kNd, 3, Feed::kAddCoordsKeyed, want);
}

TEST(ProductPins, ShardedNdAddCoordsDims3) {
  const Pin want[3] = {
      {0x404f159feb37bf0dULL,
       {27, 374, 32, 34, 45, 89, 191, 246, 248, 274, 278, 297, 312, 333, 358,
        49, 64, 84, 272, 53, 75, 323, 351, 353}},
      {0x404f159feb37bf0dULL,
       {27, 64, 84, 45, 124, 195, 198, 202, 338, 375, 49, 272, 374, 70, 94, 114,
        139, 153, 163, 201, 256, 263, 278, 386}},
      {0x404f159feb37bf0aULL,
       {33, 45, 167, 170, 171, 180, 392, 27, 49, 64, 84, 272, 374, 4, 7, 16, 30,
        53, 93, 204, 220, 274, 289, 362}},
  };
  ExpectProductPins("sharded:2:nd", 3, Feed::kAddCoords, want);
}

}  // namespace
}  // namespace sas

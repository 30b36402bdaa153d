// Bit pins of the windowed engine's published samples: a timed stream
// through "serve:windowed:60:6:product" and "windowed:60:6:obliv" crosses
// 13 epoch boundaries, which with B = 6 includes two back-stack flips, and
// every sample published at a crossing must match its pin exactly. Each
// crossing runs the seal's back-stack merge, the window merge and, at a
// flip, the fold merges, so a change that moves any merge draw or output
// bit fails here.
//
// A pin is per published sample: the bits of tau, the entry count, and a
// 64-bit digest of the entries' ids and weight bits in sample order. A
// window merge whose parts fit in s keeps them whole (tau 0), but the
// entries' weights still carry the back-stack and fold merges' bits. Every
// pin is checked with the kernels at the scalar level and at the best level
// of the build. On a mismatch the failure message prints the actual pins in
// table syntax.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "api/registry.h"
#include "core/random.h"
#include "serve/servable.h"
#include "window/windowed.h"
#include "../api/test_util.h"

namespace sas {
namespace {

constexpr std::size_t kItems = 2800;
constexpr double kHorizon = 140.0;  // epochs 0..13 at a bucket span of 10

struct Pin {
  std::uint64_t tau_bits;
  std::size_t size;
  std::uint64_t digest;
  bool operator==(const Pin&) const = default;
};

Pin PinOf(const Sample& sample) {
  std::uint64_t h = 0x6A09E667F3BCC908ULL;
  for (const auto& e : sample.entries()) {
    h = Mix64(h ^ e.id);
    h = Mix64(h ^ std::bit_cast<std::uint64_t>(e.weight));
  }
  return {std::bit_cast<std::uint64_t>(sample.tau()), sample.size(), h};
}

std::string Render(const std::vector<Pin>& pins) {
  std::ostringstream os;
  os << "{\n";
  for (const Pin& p : pins) {
    os << std::hex << "    {0x" << p.tau_bits << "ULL, " << std::dec
       << p.size << ", 0x" << std::hex << p.digest << "ULL},\n";
  }
  os << "}";
  return os.str();
}

struct Stream {
  std::vector<WeightedKey> items;
  std::vector<double> ts;
};

const Stream& TheStream() {
  static const Stream stream = [] {
    Stream s;
    Rng rng(24601);
    s.items = test::RandomItems(kItems, Coord{1} << 14, &rng);
    for (std::size_t i = 0; i < kItems; ++i) {
      s.ts.push_back(kHorizon * static_cast<double>(i) /
                     static_cast<double>(kItems));
    }
    return s;
  }();
  return stream;
}

SummarizerConfig Config(std::uint64_t seed) {
  SummarizerConfig cfg;
  cfg.s = 32.0;
  cfg.seed = seed;
  return cfg;
}

/// Every snapshot "serve:windowed:60:6:product" publishes while streaming.
std::vector<Pin> ServedProductPins(std::uint64_t seed) {
  auto builder = MakeSummarizer("serve:windowed:60:6:product", Config(seed));
  auto service = builder->AsServable()->service();
  WindowedSummarizer* win = builder->AsWindowed();
  QueryService::Reader reader(*service);
  std::vector<Pin> pins;
  const Stream& in = TheStream();
  for (std::size_t i = 0; i < kItems; ++i) {
    const std::uint64_t before = service->publishes();
    win->AddTimed(in.ts[i], in.items[i]);
    if (service->publishes() != before) {
      SnapshotHandle snap = reader.Acquire();
      pins.push_back(PinOf(snap->sample()));
    }
  }
  return pins;
}

/// Every sample the publish hook of "windowed:60:6:obliv" sees.
std::vector<Pin> HookedOblivPins(std::uint64_t seed) {
  auto builder = MakeSummarizer("windowed:60:6:obliv", Config(seed));
  WindowedSummarizer* win = builder->AsWindowed();
  std::vector<Pin> pins;
  win->SetPublishHook(
      [&pins](const Sample& merged) { pins.push_back(PinOf(merged)); });
  const Stream& in = TheStream();
  for (std::size_t i = 0; i < kItems; ++i) {
    win->AddTimed(in.ts[i], in.items[i]);
  }
  return pins;
}

void ExpectPins(const std::vector<Pin>& got, const std::vector<Pin>& want) {
  EXPECT_EQ(got.size(), 13u);  // one publish per crossing, two flips
  EXPECT_EQ(got, want) << "actual pins: " << Render(got);
}

constexpr std::uint64_t kSeeds[3] = {5, 17, 2024};

TEST(WindowedPins, ServedProduct) {
  const std::vector<Pin> want[3] = {
      {
          {0x0ULL, 32, 0xbce8f80b055a728ULL},
          {0x0ULL, 32, 0x92f90da10c45ef75ULL},
          {0x0ULL, 32, 0x363b55b8f128fb6cULL},
          {0x0ULL, 32, 0x132cdc868a7cc205ULL},
          {0x0ULL, 32, 0x4c611152a9618911ULL},
          {0x0ULL, 32, 0x72ee529490769c0dULL},
          {0x405b295d6955ffeeULL, 32, 0x237c82aa5550e50fULL},
          {0x405d30eab0a32700ULL, 32, 0x734b11a7414032c2ULL},
          {0x405ea9e0ab131a85ULL, 32, 0x5cc78a8f6c85b077ULL},
          {0x405e8182308352bcULL, 32, 0xce58f7a7c09a367cULL},
          {0x0ULL, 32, 0xebde4982bf7b12edULL},
          {0x0ULL, 32, 0x2ecd13bb6ff7c00eULL},
          {0x405bac30819aad7aULL, 32, 0xb5cf0bfbe8d4a619ULL},
      },
      {
          {0x0ULL, 32, 0x528a6ea237a225e8ULL},
          {0x0ULL, 32, 0x7119fff6b41f1361ULL},
          {0x0ULL, 32, 0x7007dfe0d41c07beULL},
          {0x0ULL, 32, 0xf7b3407fa9ebbfb6ULL},
          {0x0ULL, 32, 0xe3e9a4b4b5d72369ULL},
          {0x0ULL, 32, 0x75e8eecfda5478e3ULL},
          {0x405b295d6955ffeeULL, 32, 0x74f1b0e5b9303963ULL},
          {0x405d30eab0a32700ULL, 32, 0x75802cb75f3032d5ULL},
          {0x405ea9e0ab131a85ULL, 32, 0xc68d924705ec511fULL},
          {0x405e8182308352bcULL, 32, 0x7b48387d58dc9f3bULL},
          {0x0ULL, 32, 0x919cbb44279f03f6ULL},
          {0x0ULL, 32, 0x1726f0b19dfb8debULL},
          {0x405bac30819aad79ULL, 32, 0x78d6e6782be37f37ULL},
      },
      {
          {0x0ULL, 32, 0xac3397c65db5d978ULL},
          {0x0ULL, 32, 0x2ce2cd12bd1fee12ULL},
          {0x0ULL, 32, 0x4917d689595fcfa7ULL},
          {0x0ULL, 32, 0xd7f3a5e8248cee5ULL},
          {0x0ULL, 32, 0x698d74a8b700e113ULL},
          {0x0ULL, 32, 0x8b7079a09ac8d074ULL},
          {0x405b295d6955fff1ULL, 32, 0x9b747c95d233dba3ULL},
          {0x405d30eab0a32702ULL, 32, 0xae45b388b8031e3ULL},
          {0x405ea9e0ab131a85ULL, 32, 0x3c43a52364472127ULL},
          {0x405e8182308352b6ULL, 32, 0xd080f1bbc1b76edeULL},
          {0x0ULL, 32, 0x84f8097417b5e5c9ULL},
          {0x0ULL, 32, 0x776f6edcbbae7838ULL},
          {0x405bac30819aad7aULL, 32, 0x4ef2107dc091aa5eULL},
      },
  };
  test::AtEverySimdLevel([&] {
    for (int i = 0; i < 3; ++i) {
      SCOPED_TRACE(testing::Message() << "seed=" << kSeeds[i]);
      ExpectPins(ServedProductPins(kSeeds[i]), want[i]);
    }
  });
}

TEST(WindowedPins, HookedObliv) {
  const std::vector<Pin> want[3] = {
      {
          {0x0ULL, 32, 0x5d46a619f209fd27ULL},
          {0x0ULL, 32, 0x72770d09949985a6ULL},
          {0x0ULL, 32, 0x3f1cfd5ce1fd53a4ULL},
          {0x0ULL, 32, 0x1539a4a7f041c659ULL},
          {0x0ULL, 32, 0xfe9b073972418d73ULL},
          {0x0ULL, 32, 0x83cdde5330c0c165ULL},
          {0x405b295d6955ffefULL, 32, 0x9c60c8bc5ce8f21cULL},
          {0x405d30eab0a32702ULL, 32, 0xa64d9046a3c42830ULL},
          {0x405ea9e0ab131a85ULL, 32, 0x714af51bdb7742e6ULL},
          {0x405e8182308352b6ULL, 32, 0xc492f293c567483cULL},
          {0x0ULL, 32, 0x534a0a580ec7be43ULL},
          {0x0ULL, 32, 0x1f551eae6b886db7ULL},
          {0x405bac30819aad7aULL, 32, 0x71af934a0df15e5eULL},
      },
      {
          {0x0ULL, 32, 0x596985e656cfcc9ULL},
          {0x0ULL, 32, 0x741702c55c436ce5ULL},
          {0x0ULL, 32, 0x781979142992045ULL},
          {0x0ULL, 32, 0xe4af0075913043ecULL},
          {0x0ULL, 32, 0x5e28aabe9622225cULL},
          {0x0ULL, 32, 0x48d1e3fc03c6b885ULL},
          {0x405b295d6955ffefULL, 32, 0x90d40aa5aaba82baULL},
          {0x405d30eab0a32700ULL, 32, 0x32be85d551338c88ULL},
          {0x405ea9e0ab131a85ULL, 32, 0x8ee9469e9ceb926aULL},
          {0x405e8182308352b7ULL, 32, 0x86d1cad6189f0b6aULL},
          {0x0ULL, 32, 0xa229056353e9ce36ULL},
          {0x0ULL, 32, 0xf28ebb4187012cf3ULL},
          {0x405bac30819aad7aULL, 32, 0xc5aba97975ae23f5ULL},
      },
      {
          {0x0ULL, 32, 0xab99eeec38a25aecULL},
          {0x0ULL, 32, 0x3c898701c0cb8d14ULL},
          {0x0ULL, 32, 0xe3fdec0b2d6af940ULL},
          {0x0ULL, 32, 0xf0d99cb7c426819dULL},
          {0x0ULL, 32, 0x74535e065aae5f7dULL},
          {0x0ULL, 32, 0x23dfdf1bee02a2eeULL},
          {0x405b295d6955ffeeULL, 32, 0x3b5d448dbccd8913ULL},
          {0x405d30eab0a32700ULL, 32, 0xd60522887a8d639aULL},
          {0x405ea9e0ab131a85ULL, 32, 0x271e7c30a721590ULL},
          {0x405e8182308352bcULL, 32, 0x483c025a552152e9ULL},
          {0x0ULL, 32, 0xea502a4b6023bd59ULL},
          {0x0ULL, 32, 0x845b231243a33487ULL},
          {0x405bac30819aad7aULL, 32, 0x141b5cdb62988799ULL},
      },
  };
  test::AtEverySimdLevel([&] {
    for (int i = 0; i < 3; ++i) {
      SCOPED_TRACE(testing::Message() << "seed=" << kSeeds[i]);
      ExpectPins(HookedOblivPins(kSeeds[i]), want[i]);
    }
  });
}

}  // namespace
}  // namespace sas

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
// entries' weights still carry the back-stack and fold merges' bits. On a
// mismatch the failure message prints the actual pins in table syntax.

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
          {0x0ULL, 32, 0xce9f5195c98776c3ULL},
          {0x0ULL, 32, 0x8e16e244575d5156ULL},
          {0x0ULL, 32, 0xd2a3d74ca1135347ULL},
          {0x0ULL, 32, 0x7060db34c0f4f41dULL},
          {0x0ULL, 32, 0x72ee529490769c0dULL},
          {0x405b295d6955fff2ULL, 32, 0xae27ff990099409dULL},
          {0x405d30eab0a3270eULL, 32, 0xc55c8faacfaeb7e2ULL},
          {0x405ea9e0ab131a85ULL, 32, 0x613d11bf91524669ULL},
          {0x405e8182308352b4ULL, 32, 0xdd12a1823a262f87ULL},
          {0x0ULL, 32, 0xa62956c22427dd53ULL},
          {0x0ULL, 32, 0x1cd01186b0d0078bULL},
          {0x405bac30819aad7eULL, 32, 0x890c2c793af9d9dfULL},
      },
      {
          {0x0ULL, 32, 0x528a6ea237a225e8ULL},
          {0x0ULL, 32, 0x783e7f623e1bc557ULL},
          {0x0ULL, 32, 0xc5809051c7ec59aaULL},
          {0x0ULL, 32, 0xec1ceadd7243abd8ULL},
          {0x0ULL, 32, 0x436d16f43f63fce7ULL},
          {0x0ULL, 32, 0x75e8eecfda5478e3ULL},
          {0x405b295d6955fff2ULL, 32, 0x560801a130deebbeULL},
          {0x405d30eab0a3270eULL, 32, 0xca9c75285bd377f0ULL},
          {0x405ea9e0ab131a86ULL, 32, 0xc2bec0c71ab53fa5ULL},
          {0x405e8182308352b4ULL, 32, 0xe7bbf95abf822449ULL},
          {0x0ULL, 32, 0xdedadc40fb22213cULL},
          {0x0ULL, 32, 0x1027af3598e5c389ULL},
          {0x405bac30819aad7eULL, 32, 0x4cea2d7fd7fd5c05ULL},
      },
      {
          {0x0ULL, 32, 0xac3397c65db5d978ULL},
          {0x0ULL, 32, 0x8827f64a02c15ea0ULL},
          {0x0ULL, 32, 0x4f3818876463d0adULL},
          {0x0ULL, 32, 0x8efaf19eedcd89d1ULL},
          {0x0ULL, 32, 0x174aca928d834861ULL},
          {0x0ULL, 32, 0x8b7079a09ac8d074ULL},
          {0x405b295d6955fff2ULL, 32, 0xfcf7804ad41ee20eULL},
          {0x405d30eab0a3270dULL, 32, 0xd76065ff51ab9900ULL},
          {0x405ea9e0ab131a85ULL, 32, 0x8495488be5355cc8ULL},
          {0x405e8182308352b4ULL, 32, 0x3c5c445e585ba7d0ULL},
          {0x0ULL, 32, 0x1a9111348f7e4a50ULL},
          {0x0ULL, 32, 0x78c8ca772ad1b7d2ULL},
          {0x405bac30819aad7eULL, 32, 0xf59e8bd6ea53bbf9ULL},
      },
  };
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE(testing::Message() << "seed=" << kSeeds[i]);
    ExpectPins(ServedProductPins(kSeeds[i]), want[i]);
  }
}

TEST(WindowedPins, HookedObliv) {
  const std::vector<Pin> want[3] = {
      {
          {0x0ULL, 32, 0x5d46a619f209fd27ULL},
          {0x0ULL, 32, 0x2f984e6c958ba7b9ULL},
          {0x0ULL, 32, 0x1c9a516da1f62b0ULL},
          {0x0ULL, 32, 0x1539a4a7f041c659ULL},
          {0x0ULL, 32, 0xcfef2dd4446a1124ULL},
          {0x0ULL, 32, 0x83cdde5330c0c165ULL},
          {0x405b295d6955fff1ULL, 32, 0xc03aaecde50a342cULL},
          {0x405d30eab0a3270eULL, 32, 0x461561a988aeac88ULL},
          {0x405ea9e0ab131a86ULL, 32, 0x312cac7c16c66734ULL},
          {0x405e8182308352b4ULL, 32, 0x395c01ec80728744ULL},
          {0x0ULL, 32, 0x71f5a7547d35a491ULL},
          {0x0ULL, 32, 0xcdb51b278bace8e9ULL},
          {0x405bac30819aad7eULL, 32, 0xe3971eb092ce333ULL},
      },
      {
          {0x0ULL, 32, 0x596985e656cfcc9ULL},
          {0x0ULL, 32, 0xc4706e3bd1145609ULL},
          {0x0ULL, 32, 0x7c5284a5575a1d65ULL},
          {0x0ULL, 32, 0xe4af0075913043ecULL},
          {0x0ULL, 32, 0x1a82dcdbb914cba6ULL},
          {0x0ULL, 32, 0x48d1e3fc03c6b885ULL},
          {0x405b295d6955fff1ULL, 32, 0xf02186833203597cULL},
          {0x405d30eab0a3270eULL, 32, 0xd7fac9140fdefe44ULL},
          {0x405ea9e0ab131a86ULL, 32, 0x7a4fec8f26470dULL},
          {0x405e8182308352b4ULL, 32, 0xae2bfdf7c5cc4428ULL},
          {0x0ULL, 32, 0xac7cbf11ea2111f8ULL},
          {0x0ULL, 32, 0x37f9f03802357cb7ULL},
          {0x405bac30819aad7eULL, 32, 0x5eeb1ce101b2bb77ULL},
      },
      {
          {0x0ULL, 32, 0xab99eeec38a25aecULL},
          {0x0ULL, 32, 0xafbfdcee5f65d017ULL},
          {0x0ULL, 32, 0xdf9014b8dfa0d9b6ULL},
          {0x0ULL, 32, 0xf41b881d7d77a20aULL},
          {0x0ULL, 32, 0x1c2b9c5460dc6aa6ULL},
          {0x0ULL, 32, 0x23dfdf1bee02a2eeULL},
          {0x405b295d6955fff1ULL, 32, 0x4ac4dbe2b8423710ULL},
          {0x405d30eab0a3270eULL, 32, 0x2d71e975f844fd00ULL},
          {0x405ea9e0ab131a85ULL, 32, 0x6a9d3b982050e130ULL},
          {0x405e8182308352b4ULL, 32, 0x87c4b12f46370144ULL},
          {0x0ULL, 32, 0x5c1f05207c9df855ULL},
          {0x0ULL, 32, 0x8b07ef1724c893ebULL},
          {0x405bac30819aad7eULL, 32, 0xa5023ac6fee5f043ULL},
      },
  };
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE(testing::Message() << "seed=" << kSeeds[i]);
    ExpectPins(HookedOblivPins(kSeeds[i]), want[i]);
  }
}

}  // namespace
}  // namespace sas

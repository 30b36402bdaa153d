#include "sampling/stream_varopt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "api/sharded.h"
#include "core/ipps.h"
#include "core/random.h"
#include "data/network_gen.h"
#include "oracles/stream_varopt.h"

namespace sas {
namespace {

std::vector<WeightedKey> MakeItems(const std::vector<Weight>& w) {
  std::vector<WeightedKey> items(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    items[i] = {static_cast<KeyId>(i), w[i], {static_cast<Coord>(i), 0}};
  }
  return items;
}

TEST(StreamVarOpt, WarmupKeepsEverything) {
  StreamVarOpt sv(10, Rng(1));
  for (const auto& it : MakeItems({1, 2, 3, 4, 5})) sv.Push(it);
  EXPECT_EQ(sv.size(), 5u);
  EXPECT_DOUBLE_EQ(sv.tau(), 0.0);
  EXPECT_DOUBLE_EQ(sv.ToSample().EstimateTotal(), 15.0);
}

TEST(StreamVarOpt, ExactSizeAfterOverflow) {
  Rng rng(2);
  StreamVarOpt sv(16, Rng(3));
  for (int i = 0; i < 1000; ++i) {
    sv.Push({static_cast<KeyId>(i), rng.NextPareto(1.2),
             {static_cast<Coord>(i), 0}});
    if (i >= 16) {
      EXPECT_EQ(sv.size(), 16u);
    }
  }
}

TEST(StreamVarOpt, ThresholdMatchesOfflineTau) {
  Rng rng(4);
  std::vector<Weight> w(500);
  for (auto& x : w) x = rng.NextPareto(1.3);
  StreamVarOpt sv(20, Rng(5));
  for (const auto& it : MakeItems(w)) sv.Push(it);
  // The final VarOpt threshold solves the same IPPS equation.
  EXPECT_NEAR(sv.tau(), SolveTau(w, 20.0), 1e-9 * (1.0 + sv.tau()));
}

TEST(StreamVarOpt, ZeroWeightIgnored) {
  StreamVarOpt sv(4, Rng(6));
  sv.Push({0, 0.0, {0, 0}});
  EXPECT_EQ(sv.size(), 0u);
  EXPECT_EQ(sv.items_seen(), 0u);
}

void ExpectSameBits(const Sample& got, const Sample& want,
                    const std::string& what) {
  ASSERT_EQ(std::bit_cast<std::uint64_t>(got.tau()),
            std::bit_cast<std::uint64_t>(want.tau()))
      << what;
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const WeightedKey& g = got.entries()[i];
    const WeightedKey& r = want.entries()[i];
    ASSERT_EQ(g.id, r.id) << what << " entry " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(g.weight),
              std::bit_cast<std::uint64_t>(r.weight))
        << what << " entry " << i;
    ASSERT_EQ(g.pt.x, r.pt.x) << what << " entry " << i;
    ASSERT_EQ(g.pt.y, r.pt.y) << what << " entry " << i;
  }
}

TEST(StreamVarOpt, NanWeightIgnored) {
  // NaN fails every comparison, so a `weight <= 0` guard lets it through
  // and it poisons tau and the total for good. It must be dropped like a
  // zero weight: the sketch ends exactly where it would without it.
  Rng rng(30);
  std::vector<Weight> w(200);
  for (auto& x : w) x = rng.NextPareto(1.2);
  const auto items = MakeItems(w);
  StreamVarOpt clean(10, Rng(31));
  StreamVarOpt dirty(10, Rng(31));
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i == 100) {
      dirty.Push({999, std::numeric_limits<Weight>::quiet_NaN(), {0, 0}});
    }
    clean.Push(items[i]);
    dirty.Push(items[i]);
  }
  EXPECT_EQ(dirty.items_seen(), 200u);
  EXPECT_TRUE(std::isfinite(dirty.ToSample().EstimateTotal()));
  ExpectSameBits(dirty.ToSample(), clean.ToSample(), "after a NaN");
}

TEST(StreamVarOpt, InclusionFrequencyMatchesIpps) {
  const std::vector<Weight> w{8.0, 4.0, 2.0, 1.0, 1.0, 1.0, 1.0};
  const double s = 3.0;
  const double tau = SolveTau(w, s);
  const auto items = MakeItems(w);
  std::vector<int> hits(w.size(), 0);
  const int trials = 60000;
  Rng seeder(7);
  for (int t = 0; t < trials; ++t) {
    StreamVarOpt sv(3, seeder.Split());
    for (const auto& it : items) sv.Push(it);
    const Sample sample = sv.ToSample();
    for (const auto& e : sample.entries()) hits[e.id]++;
  }
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(hits[i]) / trials,
                IppsProbability(w[i], tau), 0.012)
        << "key " << i;
  }
}

TEST(StreamVarOpt, InclusionFrequencyUniformWeights) {
  // Uniform weights reduce to reservoir sampling: every key kept with
  // probability s/n.
  const std::size_t n = 50, s = 10;
  const auto items = MakeItems(std::vector<Weight>(n, 1.0));
  std::vector<int> hits(n, 0);
  const int trials = 40000;
  Rng seeder(8);
  for (int t = 0; t < trials; ++t) {
    StreamVarOpt sv(s, seeder.Split());
    for (const auto& it : items) sv.Push(it);
    const Sample sample = sv.ToSample();
    for (const auto& e : sample.entries()) hits[e.id]++;
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(static_cast<double>(hits[i]) / trials, 0.2, 0.012)
        << "key " << i;
  }
}

TEST(StreamVarOpt, UnbiasedSubsetSum) {
  Rng rng(9);
  std::vector<Weight> w(60);
  for (auto& x : w) x = rng.NextPareto(1.5);
  const auto items = MakeItems(w);
  Weight truth = 0.0;
  for (std::size_t i = 0; i < 30; ++i) truth += w[i];
  const Box subset{{0, 30}, {0, 1}};

  double total = 0.0;
  const int trials = 40000;
  Rng seeder(10);
  for (int t = 0; t < trials; ++t) {
    StreamVarOpt sv(12, seeder.Split());
    for (const auto& it : items) sv.Push(it);
    total += sv.ToSample().EstimateBox(subset);
  }
  EXPECT_NEAR(total / trials / truth, 1.0, 0.02);
}

TEST(StreamVarOpt, HeavyKeysAlwaysKept) {
  Rng rng(11);
  std::vector<Weight> w(100, 1.0);
  w[42] = 500.0;
  const auto items = MakeItems(w);
  for (int t = 0; t < 50; ++t) {
    StreamVarOpt sv(8, Rng(1000 + t));
    for (const auto& it : items) sv.Push(it);
    bool found = false;
    const Sample sample = sv.ToSample();
    for (const auto& e : sample.entries()) found |= e.id == 42;
    EXPECT_TRUE(found);
  }
}

TEST(StreamVarOpt, TotalEstimateUnbiased) {
  Rng rng(12);
  std::vector<Weight> w(200);
  double truth = 0.0;
  for (auto& x : w) {
    x = rng.NextPareto(1.1);
    truth += x;
  }
  const auto items = MakeItems(w);
  double total = 0.0;
  const int trials = 20000;
  Rng seeder(13);
  for (int t = 0; t < trials; ++t) {
    StreamVarOpt sv(25, seeder.Split());
    for (const auto& it : items) sv.Push(it);
    total += sv.ToSample().EstimateTotal();
  }
  EXPECT_NEAR(total / trials / truth, 1.0, 0.01);
}

TEST(StreamVarOpt, PushBatchMatchesPush) {
  Rng rng(15);
  std::vector<Weight> w(300);
  for (auto& x : w) x = rng.NextPareto(1.2);
  const auto items = MakeItems(w);
  StreamVarOpt one(20, Rng(16));
  for (const auto& it : items) one.Push(it);
  StreamVarOpt batch(20, Rng(16));
  batch.PushBatch(items);
  EXPECT_DOUBLE_EQ(one.tau(), batch.tau());
  EXPECT_EQ(one.ToSample().EstimateTotal(), batch.ToSample().EstimateTotal());
}

TEST(StreamVarOpt, TakeSampleMatchesToSampleAndResets) {
  Rng rng(17);
  std::vector<Weight> w(200);
  for (auto& x : w) x = rng.NextPareto(1.2);
  const auto items = MakeItems(w);
  StreamVarOpt sv(16, Rng(18));
  for (const auto& it : items) sv.Push(it);

  const Sample copied = sv.ToSample();
  const Sample taken = sv.TakeSample();
  ASSERT_EQ(copied.size(), taken.size());
  EXPECT_DOUBLE_EQ(copied.tau(), taken.tau());
  for (std::size_t i = 0; i < copied.size(); ++i) {
    EXPECT_EQ(copied.entries()[i].id, taken.entries()[i].id);
  }
  // The sketch is reset: it warms up again from scratch.
  EXPECT_EQ(sv.size(), 0u);
  EXPECT_EQ(sv.items_seen(), 0u);
  EXPECT_DOUBLE_EQ(sv.tau(), 0.0);
  sv.Push({0, 1.0, {0, 0}});
  EXPECT_EQ(sv.size(), 1u);
  EXPECT_DOUBLE_EQ(sv.ToSample().EstimateTotal(), 1.0);
}

TEST(StreamVarOpt, AbsorbPreservesTotalEstimate) {
  // A combiner absorbing shard samples at their adjusted weights keeps the
  // exact-total invariant of VarOpt.
  Rng rng(19);
  std::vector<Weight> w(400);
  double truth = 0.0;
  for (auto& x : w) {
    x = rng.NextPareto(1.2);
    truth += x;
  }
  const auto items = MakeItems(w);

  StreamVarOpt shard_a(50, Rng(20)), shard_b(50, Rng(21));
  for (std::size_t i = 0; i < 200; ++i) shard_a.Push(items[i]);
  for (std::size_t i = 200; i < 400; ++i) shard_b.Push(items[i]);

  StreamVarOpt combiner(40, Rng(22));
  combiner.Absorb(shard_a.ToSample());
  combiner.Absorb(shard_b.ToSample());
  EXPECT_EQ(combiner.size(), 40u);
  EXPECT_NEAR(combiner.ToSample().EstimateTotal() / truth, 1.0, 1e-9);
}

TEST(StreamVarOpt, AbsorbUnbiasedSubsetSum) {
  Rng rng(23);
  std::vector<Weight> w(200);
  for (auto& x : w) x = rng.NextPareto(1.4);
  const auto items = MakeItems(w);
  Weight truth = 0.0;
  for (std::size_t i = 0; i < 100; ++i) truth += w[i];
  const Box subset{{0, 100}, {0, 1}};

  double total = 0.0;
  const int trials = 20000;
  Rng seeder(24);
  for (int t = 0; t < trials; ++t) {
    StreamVarOpt a(30, seeder.Split()), b(30, seeder.Split());
    for (std::size_t i = 0; i < 100; ++i) a.Push(items[i]);
    for (std::size_t i = 100; i < 200; ++i) b.Push(items[i]);
    StreamVarOpt combiner(25, seeder.Split());
    combiner.Absorb(a.ToSample());
    combiner.Absorb(b.ToSample());
    total += combiner.ToSample().EstimateBox(subset);
  }
  EXPECT_NEAR(total / trials / truth, 1.0, 0.02);
}

TEST(StreamVarOpt, SampleSizeOneWorks) {
  Rng seeder(14);
  std::vector<int> hits(4, 0);
  const auto items = MakeItems({1.0, 1.0, 1.0, 1.0});
  const int trials = 40000;
  for (int t = 0; t < trials; ++t) {
    StreamVarOpt sv(1, seeder.Split());
    for (const auto& it : items) sv.Push(it);
    ASSERT_EQ(sv.size(), 1u);
    hits[sv.ToSample().entries()[0].id]++;
  }
  for (int h : hits) {
    EXPECT_NEAR(static_cast<double>(h) / trials, 0.25, 0.01);
  }
}

bool DistinctWeights(const std::vector<WeightedKey>& items) {
  std::set<Weight> seen;
  for (const auto& it : items) seen.insert(it.weight);
  return seen.size() == items.size();
}

/// The differential streams: Pareto draws of two tails, and the three shard
/// streams of the Network data as sharded:3 routes them under seed 1.
std::vector<std::vector<WeightedKey>> DifferentialStreams() {
  std::vector<std::vector<WeightedKey>> streams;
  for (const double alpha : {1.1, 2.5}) {
    Rng rng(static_cast<std::uint64_t>(alpha * 100));
    std::vector<Weight> w(20000);
    for (auto& x : w) x = rng.NextPareto(alpha);
    streams.push_back(MakeItems(w));
  }
  const Dataset2D network = GenerateNetwork(NetworkConfig{});
  std::vector<std::vector<WeightedKey>> shards(3);
  for (const auto& it : network.items) {
    shards[ShardIndex(it.id, /*seed=*/1, /*num_shards=*/3)].push_back(it);
  }
  for (auto& shard : shards) streams.push_back(std::move(shard));
  return streams;
}

TEST(StreamVarOptDifferential, PushMatchesHeapOnlyReferenceBitForBit) {
  const auto streams = DifferentialStreams();
  for (std::size_t k = 0; k < streams.size(); ++k) {
    ASSERT_TRUE(DistinctWeights(streams[k])) << "stream " << k;
    for (const std::size_t s : {1u, 10u, 100u, 1000u}) {
      const std::string what =
          "stream " + std::to_string(k) + " s=" + std::to_string(s);
      StreamVarOpt got(s, Rng(900 + s));
      ref::StreamVarOpt want(s, Rng(900 + s));
      // Alternate the two entry points over the stream.
      const std::span<const WeightedKey> all(streams[k]);
      const std::size_t half = all.size() / 2;
      got.PushBatch(all.first(half));
      for (const auto& it : all.subspan(half)) got.Push(it);
      for (const auto& it : all) want.Push(it);
      ExpectSameBits(got.ToSample(), want.ToSample(), what);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(StreamVarOptDifferential, AbsorbMatchesHeapOnlyReferenceBitForBit) {
  // A combiner absorbing exact parts: each differential stream cut into
  // chunks of 2000 items, each chunk sampled at capacity 2000 (tau = 0), so
  // every absorbed weight is a distinct original weight.
  const auto streams = DifferentialStreams();
  const std::size_t chunk = 2000;
  std::vector<Sample> parts;
  for (std::size_t k = 0; k < streams.size(); ++k) {
    const std::span<const WeightedKey> all(streams[k]);
    for (std::size_t at = 0; at < all.size(); at += chunk) {
      StreamVarOpt part(chunk, Rng(700 + k));
      part.PushBatch(all.subspan(at, std::min(chunk, all.size() - at)));
      parts.push_back(part.ToSample());
      ASSERT_EQ(parts.back().tau(), 0.0);
    }
  }
  for (const std::size_t s : {1u, 10u, 100u, 1000u}) {
    StreamVarOpt got(s, Rng(800 + s));
    ref::StreamVarOpt want(s, Rng(800 + s));
    for (const Sample& part : parts) {
      got.Absorb(part);
      want.Absorb(part);
    }
    ExpectSameBits(got.ToSample(), want.ToSample(),
                   "combiner s=" + std::to_string(s));
    if (HasFatalFailure()) return;
  }
}

std::vector<std::uint64_t> SortedWeightBits(const Sample& sample) {
  std::vector<std::uint64_t> bits;
  for (const auto& e : sample.entries()) {
    bits.push_back(std::bit_cast<std::uint64_t>(e.weight));
  }
  std::sort(bits.begin(), bits.end());
  return bits;
}

TEST(StreamVarOptDifferential, TiedAbsorbMatchesReferenceUpToTiedIds) {
  // Overflowed parts: every light entry of a part is absorbed at the same
  // adjusted weight tau, so the heap holds ties and their order (and with
  // it which of two equal-weight keys sits where) may differ from the
  // reference. Heap minima still come off in the same weight order, so the
  // threshold and the multiset of retained weights match bit for bit.
  const auto streams = DifferentialStreams();
  for (const std::size_t s : {1u, 10u, 100u, 1000u}) {
    std::vector<Sample> parts;
    for (std::size_t k = 0; k < streams.size(); ++k) {
      StreamVarOpt shard(s, Rng(700 + k));
      shard.PushBatch(streams[k]);
      parts.push_back(shard.ToSample());
    }
    StreamVarOpt got(s, Rng(800 + s));
    ref::StreamVarOpt want(s, Rng(800 + s));
    for (const Sample& part : parts) {
      got.Absorb(part);
      want.Absorb(part);
    }
    const Sample g = got.ToSample();
    const Sample r = want.ToSample();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.tau()),
              std::bit_cast<std::uint64_t>(r.tau()))
        << "s=" << s;
    EXPECT_EQ(SortedWeightBits(g), SortedWeightBits(r)) << "s=" << s;
  }
}

/// Two-sided standard-normal quantile: the z with P(|Z| > z) = alpha.
double TwoSidedZ(double alpha) {
  double lo = 0.0, hi = 40.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    (std::erfc(mid / std::sqrt(2.0)) > alpha ? lo : hi) = mid;
  }
  return hi;
}

TEST(StreamVarOpt, TieHeavyInclusionMatchesIpps) {
  // Weights drawn from {1, 2, 4, 1000}: the heap holds many equal weights,
  // so heap order (and with it the entry order) depends on tie-breaking,
  // but each key's inclusion probability must still be min(1, w/tau).
  // Each key's hit count is binomial; the bound has a false-alarm rate of
  // 1e-6 for the whole test (Bonferroni over the keys).
  const std::vector<Weight> levels{1.0, 2.0, 4.0, 1000.0};
  Rng pick(40);
  std::vector<Weight> w(48);
  for (auto& x : w) x = levels[pick.NextBounded(levels.size())];
  w[5] = 1000.0;  // at least one key that must always be kept
  const std::size_t s = 12;
  const double tau = SolveTau(w, static_cast<double>(s));
  const auto items = MakeItems(w);
  const int trials = 40000;
  std::vector<int> hits(w.size(), 0);
  Rng seeder(41);
  for (int t = 0; t < trials; ++t) {
    StreamVarOpt sv(s, seeder.Split());
    sv.PushBatch(items);
    ASSERT_EQ(sv.size(), s);
    const Sample sample = sv.ToSample();
    for (const auto& e : sample.entries()) hits[e.id]++;
  }
  const double z = TwoSidedZ(1e-6 / static_cast<double>(w.size()));
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double p = IppsProbability(w[i], tau);
    if (p >= 1.0) {
      EXPECT_EQ(hits[i], trials) << "key " << i << " w=" << w[i];
      continue;
    }
    const double mean = trials * p;
    const double sd = std::sqrt(trials * p * (1.0 - p));
    EXPECT_LE(std::abs(hits[i] - mean), z * sd)
        << "key " << i << " w=" << w[i] << " p=" << p;
  }
}

}  // namespace
}  // namespace sas

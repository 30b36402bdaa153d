// Sharded backend tests: "sharded:<N>:<inner>" must agree with the
// unsharded method within Horvitz-Thompson tolerance, reproduce exactly for
// a fixed (seed, shard count), and reject non-mergeable inner methods with
// std::invalid_argument. The key grammar itself is pinned in
// composed_test.cc.

#include "api/sharded.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.h"
#include "core/fault.h"
#include "core/random.h"
#include "core/telemetry.h"
#include "test_util.h"

namespace sas {
namespace {

using test::RandomItems;

Weight ExactBox(const std::vector<WeightedKey>& items, const Box& box) {
  Weight total = 0.0;
  for (const auto& it : items) {
    if (box.Contains(it.pt)) total += it.weight;
  }
  return total;
}

std::unique_ptr<RangeSummary> Build(const std::string& key,
                                    const SummarizerConfig& cfg,
                                    const std::vector<WeightedKey>& items) {
  auto builder = MakeSummarizer(key, cfg);
  builder->AddBatch(items);
  return builder->Finalize();
}

TEST(ShardedKey, NonMergeableInnerRejected) {
  SummarizerConfig cfg;
  cfg.s = 50.0;
  // Deterministic baselines cannot be VarOpt-merged; positional-config
  // samplers (hierarchy/disjoint) do not survive hash partitioning.
  for (const char* inner : {"wavelet", "qdigest", "sketch", "exact"}) {
    EXPECT_THROW(MakeSummarizer("sharded:2:" + std::string(inner), cfg),
                 std::invalid_argument)
        << inner;
  }
  cfg.structure = StructureSpec::Disjoint({0, 1}, 2);
  EXPECT_THROW(MakeSummarizer("sharded:2:disjoint", cfg),
               std::invalid_argument);
}

TEST(ShardedKey, RegisteredWhenInnerIs) {
  EXPECT_TRUE(IsRegisteredSummarizer("sharded:4:obliv"));
  EXPECT_TRUE(IsRegisteredSummarizer("sharded:2:sharded:2:product"));
  EXPECT_FALSE(IsRegisteredSummarizer("sharded:2:nope"));
}

TEST(Sharded, TotalPreservedExactlyAndSizeIsS) {
  Rng data_rng(41);
  const auto items = RandomItems(20000, 1 << 14, &data_rng);
  Weight exact_total = 0.0;
  for (const auto& it : items) exact_total += it.weight;

  for (const std::string& key :
       {std::string("sharded:4:obliv"), std::string("sharded:3:product"),
        std::string("sharded:2:aware"), std::string("sharded:2:order")}) {
    SummarizerConfig cfg;
    cfg.s = 500.0;
    cfg.seed = 9001;
    const auto summary = Build(key, cfg, items);
    EXPECT_EQ(summary->Name(), key);
    ASSERT_NE(summary->AsSample(), nullptr) << key;
    // VarOpt merge preserves the total estimate deterministically and
    // keeps the sample size at s (+-1 for floating-point residue).
    EXPECT_NEAR(summary->AsSample()->sample().EstimateTotal() / exact_total,
                1.0, 1e-9)
        << key;
    EXPECT_NEAR(static_cast<double>(summary->SizeInElements()), 500.0, 1.0)
        << key;
  }
}

TEST(Sharded, BoxEstimatesWithinHtToleranceOfUnsharded) {
  Rng data_rng(42);
  const auto items = RandomItems(20000, 1 << 14, &data_rng);
  const Box box{{0, 1 << 13}, {0, 1 << 14}};  // ~half the domain
  const Weight exact = ExactBox(items, box);
  ASSERT_GT(exact, 0.0);

  // Both the sharded and the unsharded builds are unbiased HT estimators
  // of `exact`; averaged over seeds their means must both land within a
  // few standard errors. With s=1000 a single estimate is already within a
  // few percent, so a 10-seed mean at 3% is a comfortable HT bound.
  for (const std::string& inner : {std::string("obliv"),
                                   std::string("product"),
                                   std::string("aware")}) {
    double sharded_mean = 0.0, unsharded_mean = 0.0;
    const int seeds = 10;
    for (int t = 0; t < seeds; ++t) {
      SummarizerConfig cfg;
      cfg.s = 1000.0;
      cfg.seed = 1234 + static_cast<std::uint64_t>(t);
      sharded_mean +=
          Build("sharded:4:" + inner, cfg, items)->EstimateBox(box);
      unsharded_mean += Build(inner, cfg, items)->EstimateBox(box);
    }
    sharded_mean /= seeds;
    unsharded_mean /= seeds;
    EXPECT_NEAR(sharded_mean / exact, 1.0, 0.03) << inner;
    EXPECT_NEAR(unsharded_mean / exact, 1.0, 0.03) << inner;
    EXPECT_NEAR(sharded_mean / unsharded_mean, 1.0, 0.05) << inner;
  }
}

TEST(Sharded, DeterministicForFixedSeedAndShardCount) {
  Rng data_rng(43);
  const auto items = RandomItems(30000, 1 << 14, &data_rng);
  SummarizerConfig cfg;
  cfg.s = 400.0;
  cfg.seed = 77;

  const auto r1 = Build("sharded:4:obliv", cfg, items);
  const auto r2 = Build("sharded:4:obliv", cfg, items);
  const Sample& s1 = r1->AsSample()->sample();
  const Sample& s2 = r2->AsSample()->sample();
  ASSERT_EQ(s1.size(), s2.size());
  EXPECT_DOUBLE_EQ(s1.tau(), s2.tau());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1.entries()[i].id, s2.entries()[i].id) << i;
    EXPECT_DOUBLE_EQ(s1.entries()[i].weight, s2.entries()[i].weight) << i;
  }

  // A different shard count is a different (still unbiased) scheme.
  const auto r3 = Build("sharded:2:obliv", cfg, items);
  EXPECT_NE(r3->AsSample()->sample().tau(), s1.tau());
}

void ExpectSameBits(const Sample& a, const Sample& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.tau()),
            std::bit_cast<std::uint64_t>(b.tau()));
  for (std::size_t i = 0; i < a.size(); ++i) {
    const WeightedKey& x = a.entries()[i];
    const WeightedKey& y = b.entries()[i];
    EXPECT_EQ(x.id, y.id) << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.weight),
              std::bit_cast<std::uint64_t>(y.weight))
        << i;
    EXPECT_EQ(x.pt.x, y.pt.x) << i;
    EXPECT_EQ(x.pt.y, y.pt.y) << i;
  }
}

void ExpectSameStats(const IngestStats& a, const IngestStats& b) {
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected_weight, b.rejected_weight);
  EXPECT_EQ(a.rejected_coord, b.rejected_coord);
  EXPECT_EQ(a.degradations, b.degradations);
}

TEST(Sharded, PerItemAddMatchesAddBatch) {
  Rng data_rng(44);
  const auto items = RandomItems(9000, 1 << 12, &data_rng);
  SummarizerConfig cfg;
  cfg.s = 200.0;
  cfg.seed = 5;

  auto one = MakeSummarizer("sharded:3:obliv", cfg);
  for (const auto& it : items) one->Add(it);
  auto batch = MakeSummarizer("sharded:3:obliv", cfg);
  batch->AddBatch(items);

  const auto ra = one->Finalize();
  const auto rb = batch->Finalize();
  ExpectSameBits(ra->AsSample()->sample(), rb->AsSample()->sample());
  ExpectSameStats(one->Describe(), batch->Describe());
}

std::vector<WeightedKey> MixedValidityItems() {
  Rng data_rng(49);
  auto items = RandomItems(12000, 1 << 12, &data_rng);
  items[4500].weight = std::numeric_limits<Weight>::quiet_NaN();
  items[7000].weight = -1.0;
  items[9000].weight = std::numeric_limits<Weight>::infinity();
  return items;
}

TEST(Sharded, StrictAddBatchThrowsWhereTheItemLoopDoes) {
  // A NaN mid-batch: AddBatch must route exactly the items before it, as
  // the per-item loop does, then throw; both builders stay usable.
  const auto items = MixedValidityItems();
  SummarizerConfig cfg;
  cfg.s = 150.0;
  cfg.seed = 8;

  auto one = MakeSummarizer("sharded:3:obliv", cfg);
  std::size_t thrown_at = items.size();
  for (std::size_t i = 0; i < items.size(); ++i) {
    try {
      one->Add(items[i]);
    } catch (const std::invalid_argument&) {
      thrown_at = i;
      break;
    }
  }
  ASSERT_EQ(thrown_at, 4500u);
  auto batch = MakeSummarizer("sharded:3:obliv", cfg);
  EXPECT_THROW(batch->AddBatch(items), std::invalid_argument);

  ExpectSameStats(one->Describe(), batch->Describe());
  EXPECT_EQ(batch->Describe().accepted, 4500u);
  const auto ra = one->Finalize();
  const auto rb = batch->Finalize();
  ExpectSameBits(ra->AsSample()->sample(), rb->AsSample()->sample());
}

TEST(Sharded, QuarantineAddBatchMatchesItemLoop) {
  const auto items = MixedValidityItems();
  SummarizerConfig cfg;
  cfg.s = 150.0;
  cfg.seed = 8;
  cfg.ingest_policy = IngestPolicy::kQuarantine;

  auto one = MakeSummarizer("sharded:3:obliv", cfg);
  for (const auto& it : items) one->Add(it);
  auto batch = MakeSummarizer("sharded:3:obliv", cfg);
  batch->AddBatch(items);

  ExpectSameStats(one->Describe(), batch->Describe());
  EXPECT_EQ(batch->Describe().rejected_weight, 3u);
  EXPECT_EQ(batch->Describe().accepted, items.size() - 3);
  const auto ra = one->Finalize();
  const auto rb = batch->Finalize();
  ExpectSameBits(ra->AsSample()->sample(), rb->AsSample()->sample());
}

TEST(Sharded, AddBatchOnPoisonedBuilderThrows) {
  Rng data_rng(50);
  const auto items = RandomItems(6000, 1 << 12, &data_rng);
  SummarizerConfig cfg;
  cfg.s = 50.0;
  cfg.faults = std::make_shared<FaultInjector>();
  cfg.faults->Configure("shard.worker.batch=fail@1/1");
  auto builder = MakeSummarizer("sharded:1:obliv", cfg);
  auto* sharded = static_cast<ShardedSummarizer*>(builder.get());
  try {
    builder->AddBatch(items);  // hands one full buffer to the worker
  } catch (const std::runtime_error&) {
    // The producer may already see the worker's death at the hand-off.
  }
  while (!sharded->poisoned()) std::this_thread::yield();
  EXPECT_THROW(builder->AddBatch(items), std::runtime_error);
  auto dirty = items;
  dirty[10].weight = -1.0;  // the per-item fallback is guarded too
  EXPECT_THROW(builder->AddBatch(dirty), std::runtime_error);
  EXPECT_THROW(builder->Finalize(), ShardedIngestError);
}

TEST(Sharded, AddBatchStopsAtTheHandOffAfterAWorkerDies) {
  // The worker stalls on its first buffer while the producer fills the
  // bounded queue and blocks on back-pressure, then dies on its second.
  // Its death unblocks the producer, whose next hand-off check must throw
  // instead of routing the rest of the batch into a dead shard.
  Rng data_rng(51);
  const auto items = RandomItems(120000, 1 << 16, &data_rng);
  SummarizerConfig cfg;
  cfg.s = 50.0;
  cfg.faults = std::make_shared<FaultInjector>();
  cfg.faults->Configure(
      "shard.worker.batch=delay@1:50000;shard.worker.batch=fail@2/1");
  auto builder = MakeSummarizer("sharded:1:obliv", cfg);
  EXPECT_THROW(builder->AddBatch(items), std::runtime_error);
  EXPECT_LT(builder->Describe().accepted, items.size());
  EXPECT_THROW(builder->Finalize(), ShardedIngestError);
}

TEST(Sharded, SingleShardStillGoesThroughWorker) {
  Rng data_rng(45);
  const auto items = RandomItems(5000, 1 << 12, &data_rng);
  SummarizerConfig cfg;
  cfg.s = 100.0;
  const auto summary = Build("sharded:1:obliv", cfg, items);
  EXPECT_EQ(summary->SizeInElements(), 100u);
  EXPECT_EQ(summary->Name(), "sharded:1:obliv");
}

TEST(Sharded, NestedShardingComposes) {
  Rng data_rng(46);
  const auto items = RandomItems(12000, 1 << 12, &data_rng);
  Weight exact_total = 0.0;
  for (const auto& it : items) exact_total += it.weight;
  SummarizerConfig cfg;
  cfg.s = 300.0;
  const auto summary = Build("sharded:2:sharded:2:obliv", cfg, items);
  EXPECT_NEAR(summary->AsSample()->sample().EstimateTotal() / exact_total,
              1.0, 1e-9);
}

TEST(Sharded, NestedPartitionsAreIndependent) {
  // The partition hash is seed-salted, so an inner wrapper (whose seed is
  // forked from the outer one) spreads an outer shard's items across all
  // of its shards even when the shard counts share a factor. With an
  // unsalted Mix64(id) % N this degenerates: every id an outer 2-way
  // partition routes to shard b would land on inner shard b again, and
  // the other inner shard would receive nothing.
  const std::uint64_t outer_seed = 11;
  for (int outer_shard = 0; outer_shard < 2; ++outer_shard) {
    const std::uint64_t inner_seed =
        ForkSeed(outer_seed, static_cast<std::uint64_t>(outer_shard));
    int inner_counts[2] = {0, 0};
    for (KeyId id = 0; id < 20000; ++id) {
      if (ShardIndex(id, outer_seed, 2) !=
          static_cast<std::size_t>(outer_shard)) {
        continue;
      }
      ++inner_counts[ShardIndex(id, inner_seed, 2)];
    }
    const int total = inner_counts[0] + inner_counts[1];
    ASSERT_GT(total, 8000);
    // Roughly balanced spread, not all-or-nothing.
    EXPECT_GT(inner_counts[0], total / 3) << "outer shard " << outer_shard;
    EXPECT_GT(inner_counts[1], total / 3) << "outer shard " << outer_shard;
  }
}

TEST(Sharded, AddCoordsRoutesKeyedPointsAcrossShards) {
  // The wrapper routes each AddCoords point on its caller id and replays
  // it into the shard builder's AddCoords, so "sharded:<N>:nd" supports
  // d > 2 ingest: ids (here the stream positions) come out as the caller
  // gave them, the total is preserved exactly, and a fixed (seed, shard
  // count) reproduces the summary.
  constexpr int kDims = 3;
  constexpr std::size_t kN = 20000;
  Rng gen(77);
  std::vector<Coord> coords(kN * kDims);
  std::vector<Weight> weights(kN);
  Weight total = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    for (int a = 0; a < kDims; ++a) {
      coords[i * kDims + static_cast<std::size_t>(a)] = gen.Next() & 0x3FFF;
    }
    weights[i] = 1.0 + static_cast<double>(gen.Next() & 0xFF);
    total += weights[i];
  }
  SummarizerConfig cfg;
  cfg.s = 500.0;
  cfg.seed = 4242;
  cfg.structure = StructureSpec::Nd(kDims);
  auto build = [&] {
    auto builder = MakeSummarizer("sharded:2:nd", cfg);
    for (std::size_t i = 0; i < kN; ++i) {
      builder->AddCoords(static_cast<KeyId>(i), coords.data() + i * kDims,
                         kDims, weights[i]);
    }
    return builder->Finalize();
  };
  const auto summary = build();
  ASSERT_NE(summary->AsSample(), nullptr);
  const Sample& sample = summary->AsSample()->sample();
  EXPECT_NEAR(sample.EstimateTotal() / total, 1.0, 1e-9);
  EXPECT_NEAR(static_cast<double>(summary->SizeInElements()), 500.0, 1.0);
  // Every sampled entry carries the global stream index as its id and the
  // first two axes of its point; VarOpt sampling/merging only ever raises
  // a kept entry's weight (to the inclusion threshold), never lowers it.
  std::set<KeyId> seen;
  for (const auto& e : sample.entries()) {
    ASSERT_LT(e.id, kN);
    EXPECT_TRUE(seen.insert(e.id).second) << "duplicate id " << e.id;
    EXPECT_GE(e.weight, weights[e.id]);
    EXPECT_EQ(e.pt.x, coords[e.id * kDims]);
    EXPECT_EQ(e.pt.y, coords[e.id * kDims + 1]);
  }
  // Both shards must have contributed (the partition hash spreads ids).
  int in_shard[2] = {0, 0};
  for (const auto& e : sample.entries()) {
    ++in_shard[ShardIndex(e.id, cfg.seed, 2)];
  }
  EXPECT_GT(in_shard[0], 0);
  EXPECT_GT(in_shard[1], 0);
  // Deterministic reproduction: same (seed, shards, stream) -> same sample.
  const auto again = build();
  const auto& a = sample.entries();
  const auto& b = again->AsSample()->sample().entries();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].weight, b[i].weight);
  }
}

TEST(Sharded, FractionalSizeRejected) {
  SummarizerConfig cfg;
  cfg.s = 0.5;  // merged budget is integral
  EXPECT_THROW(MakeSummarizer("sharded:2:product", cfg),
               std::invalid_argument);
}

TEST(Sharded, InnerFinalizeErrorPropagates) {
  // The nd inner method rejects mixing dims at Add time inside the worker;
  // the error must surface from Finalize, not crash a thread — and when
  // the bad input reaches several shards, Finalize must report all of
  // them, with the shard index and inner key in each message.
  SummarizerConfig cfg;
  cfg.s = 10.0;
  cfg.structure = StructureSpec::Nd(3);  // dims > 2: Add throws in worker
  auto builder = MakeSummarizer("sharded:2:nd", cfg);
  std::vector<WeightedKey> items;
  for (KeyId i = 0; i < 20000; ++i) items.push_back({i, 1.0, {i, i}});
  try {
    builder->AddBatch(items);
  } catch (const std::runtime_error&) {
    // The producer may observe the poisoned state mid-batch (which shards
    // already received a batch by then is scheduling-dependent); Finalize
    // below still reports every shard that did fail.
  }
  try {
    builder->Finalize();
    FAIL() << "Finalize did not throw";
  } catch (const ShardedIngestError& e) {
    ASSERT_GE(e.failures().size(), 1u);
    for (const ShardFailure& f : e.failures()) {
      EXPECT_NE(f.message.find("inner \"nd\""), std::string::npos)
          << f.message;
      EXPECT_NE(f.message.find("shard "), std::string::npos) << f.message;
    }
    // The deterministic both-shards case (fault injection at the finalize
    // site, where every worker is guaranteed to arrive) lives in
    // tests/chaos/chaos_test.cc.
  }
}

TEST(Sharded, AddAfterFinalizeThrows) {
  // A finalized builder is spent; Add must fail fast instead of queueing
  // into (or blocking on) closed worker queues.
  SummarizerConfig cfg;
  cfg.s = 10.0;
  auto builder = MakeSummarizer("sharded:2:obliv", cfg);
  builder->Add({0, 1.0, {0, 0}});
  (void)builder->Finalize();
  EXPECT_THROW(builder->Add({1, 1.0, {1, 0}}), std::logic_error);
}

TEST(Sharded, FinalizeAfterFinalizeThrows) {
  // Coverage gap found in audit: a second Finalize on a spent builder used
  // to silently merge moved-from shard samples into a bogus summary. The
  // contract is fail-fast, like Add-after-Finalize.
  SummarizerConfig cfg;
  cfg.s = 10.0;
  auto builder = MakeSummarizer("sharded:2:obliv", cfg);
  builder->Add({0, 1.0, {0, 0}});
  (void)builder->Finalize();
  EXPECT_THROW(builder->Finalize(), std::logic_error);
}

TEST(Sharded, ResetAfterFinalizeAllowsSecondBuild) {
  Rng rng(73);
  const auto items = RandomItems(400, 1 << 10, &rng);
  SummarizerConfig cfg;
  cfg.s = 40.0;
  cfg.seed = 515;

  auto builder = MakeSummarizer("sharded:2:obliv", cfg);
  builder->AddBatch(items);
  (void)builder->Finalize();

  // Reset un-spends the builder: the recycled build must match a fresh
  // builder with the same config and seed exactly.
  ASSERT_TRUE(builder->Reset(515));
  builder->AddBatch(items);
  const auto recycled = builder->Finalize();

  auto fresh = MakeSummarizer("sharded:2:obliv", cfg);
  fresh->AddBatch(items);
  const auto expected = fresh->Finalize();

  const Sample& a = recycled->AsSample()->sample();
  const Sample& b = expected->AsSample()->sample();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_DOUBLE_EQ(a.tau(), b.tau());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entries()[i].id, b.entries()[i].id) << i;
  }
}

TEST(Sharded, RepeatedResetCyclesRespawnAndStayExact) {
  // Every Reset tears the pool down and spawns it again, waiting on the
  // start latch; 200 cycles must neither hang nor lose items, and each
  // cycle's VarOpt sample must preserve the data total.
  Rng rng(91);
  const auto items = RandomItems(64, 1 << 10, &rng);
  Weight data_total = 0.0;
  for (const auto& it : items) data_total += it.weight;
  SummarizerConfig cfg;
  cfg.s = 16.0;
  cfg.seed = 3;
  auto builder = MakeSummarizer("sharded:4:obliv", cfg);
  for (std::uint64_t cycle = 0; cycle < 200; ++cycle) {
    ASSERT_TRUE(builder->Reset(cycle));
    builder->AddBatch(items);
    const auto summary = builder->Finalize();
    ASSERT_NEAR(summary->AsSample()->sample().EstimateTotal(), data_total,
                1e-9 * data_total)
        << "cycle=" << cycle;
  }
}

TEST(Sharded, BackPressureWaitLandsInTelemetryHistogram) {
  // One shard with a delay schedule on the worker's batch drain: the
  // bounded hand-off queue fills, the producer blocks in Enqueue, and the
  // blocked wall time must land in sas.shard.backpressure_wait_ns (the
  // histogram records only genuine blocking, never the uncontended path).
  telemetry::Histogram* wait_hist =
      telemetry::GetHistogram("sas.shard.backpressure_wait_ns");
  const std::uint64_t waits_before = wait_hist->count();
  const bool was_enabled = telemetry::Enabled();
  telemetry::SetEnabled(true);

  Rng data_rng(48);
  const auto items = RandomItems(40000, 1 << 12, &data_rng);
  SummarizerConfig cfg;
  cfg.s = 200.0;
  cfg.seed = 5;
  cfg.faults = std::make_shared<FaultInjector>();
  cfg.faults->Configure("shard.worker.batch=delay@1/1:1500");
  {
    auto builder = MakeSummarizer("sharded:1:obliv", cfg);
    builder->AddBatch(items);
    (void)builder->Finalize();
  }
  telemetry::SetEnabled(was_enabled);
  EXPECT_GT(wait_hist->count(), waits_before);
}

TEST(Sharded, DestructionWithoutFinalizeJoinsWorkers) {
  Rng data_rng(47);
  const auto items = RandomItems(20000, 1 << 12, &data_rng);
  SummarizerConfig cfg;
  cfg.s = 100.0;
  {
    auto builder = MakeSummarizer("sharded:4:obliv", cfg);
    builder->AddBatch(items);
    // No Finalize: the destructor must close queues and join cleanly.
  }
  SUCCEED();
}

}  // namespace
}  // namespace sas

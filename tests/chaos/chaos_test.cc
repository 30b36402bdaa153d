// Chaos suite: deterministic fault schedules (core/fault.h) driven through
// the sharded and windowed engines, run in CI under TSan and ASan
// (`ctest -L chaos`). The suite's ctest TIMEOUT is the no-deadlock
// assertion for worker death under full back-pressure queues: a hang here
// is a regression even if every EXPECT passes.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/sharded.h"
#include "core/fault.h"
#include "core/random.h"
#include "core/sample.h"
#include "window/windowed.h"
#include "../api/test_util.h"

namespace sas {
namespace {

using test::RandomItems;

SummarizerConfig FaultyConfig(const char* spec, double s = 64.0,
                              std::uint64_t seed = 7777) {
  SummarizerConfig cfg;
  cfg.s = s;
  cfg.seed = seed;
  cfg.faults = std::make_shared<FaultInjector>();
  cfg.faults->Configure(spec);
  return cfg;
}

void ExpectSameSample(const Sample& a, const Sample& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_DOUBLE_EQ(a.tau(), b.tau());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entries()[i].id, b.entries()[i].id) << i;
    EXPECT_DOUBLE_EQ(a.entries()[i].weight, b.entries()[i].weight) << i;
  }
}

/// Feeds `items` until the builder observes the poison (or the stream
/// runs out); reports whether the poisoned throw was seen.
bool FeedUntilPoisoned(Summarizer* builder,
                       const std::vector<WeightedKey>& items) {
  try {
    for (const WeightedKey& it : items) builder->Add(it);
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("poisoned"), std::string::npos)
        << e.what();
    return true;
  }
  return false;
}

TEST(Chaos, FinalizeReportsEveryFailedShard) {
  Rng rng(1);
  const auto items = RandomItems(2000, 1 << 12, &rng);
  // Every worker deterministically reaches its finalize site once, so
  // fail@1/1 kills all shards regardless of scheduling or partition.
  SummarizerConfig cfg = FaultyConfig("shard.worker.finalize=fail@1/1");
  auto builder = MakeSummarizer("sharded:2:obliv", cfg);
  try {
    builder->AddBatch(items);
  } catch (const std::runtime_error&) {
    // A worker may already have died and poisoned the producer mid-batch;
    // either way Finalize below must report both shards.
  }
  try {
    builder->Finalize();
    FAIL() << "expected ShardedIngestError";
  } catch (const ShardedIngestError& e) {
    ASSERT_EQ(e.failures().size(), 2u);
    std::set<int> shards;
    for (const ShardFailure& f : e.failures()) {
      shards.insert(f.shard);
      EXPECT_NE(f.message.find("inner \"obliv\""), std::string::npos)
          << f.message;
      EXPECT_NE(f.message.find("shard " + std::to_string(f.shard)),
                std::string::npos)
          << f.message;
    }
    EXPECT_EQ(shards, (std::set<int>{0, 1}));
    EXPECT_NE(std::string(e.what()).find("2 of 2 shard(s)"),
              std::string::npos)
        << e.what();
  }
}

TEST(Chaos, WorkerDeathUnderFullQueuesDoesNotDeadlock) {
  Rng rng(2);
  const auto items = RandomItems(120000, 1 << 16, &rng);
  // The worker stalls on its first batch long enough for the producer to
  // fill the bounded queue and block on back-pressure, then dies on the
  // second; RecordWorkerError must unblock the producer. A single shard
  // makes the fill deterministic (every item routes to lane 0). The suite
  // TIMEOUT is the real assertion — a deadlock shows up as a hang.
  SummarizerConfig cfg = FaultyConfig(
      "shard.worker.batch=delay@1:50000;shard.worker.batch=fail@2/1");
  auto builder = MakeSummarizer("sharded:1:obliv", cfg);
  auto* sharded = static_cast<ShardedSummarizer*>(builder.get());
  FeedUntilPoisoned(builder.get(), items);
  EXPECT_TRUE(sharded->poisoned());
  // A poisoned builder fails fast on every ingest surface.
  EXPECT_THROW(builder->Add(items[0]), std::runtime_error);
  const Coord p[2] = {1, 2};
  EXPECT_THROW(builder->AddCoords(0, p, 2, 1.0), std::runtime_error);
  try {
    builder->Finalize();
    FAIL() << "expected ShardedIngestError";
  } catch (const ShardedIngestError& e) {
    ASSERT_EQ(e.failures().size(), 1u);
    EXPECT_EQ(e.failures()[0].shard, 0);
  }
}

TEST(Chaos, ResetAfterPoisonReproducesAFreshBuilderBitIdentically) {
  Rng rng(3);
  const auto items = RandomItems(30000, 1 << 14, &rng);
  const std::uint64_t recovery_seed = 1234;

  SummarizerConfig cfg = FaultyConfig("shard.worker.batch=fail@1/1");
  auto builder = MakeSummarizer("sharded:4:obliv", cfg);
  auto* sharded = static_cast<ShardedSummarizer*>(builder.get());
  FeedUntilPoisoned(builder.get(), items);
  // Joining the workers makes the poison deterministic: every shard had at
  // least one batch to drain, and each drain dies on the armed schedule.
  EXPECT_THROW(builder->Finalize(), ShardedIngestError);
  EXPECT_TRUE(sharded->poisoned());

  // Recovery: disarm the schedule, reseed, replay. The rebuilt summary
  // must match a never-poisoned builder bit for bit.
  cfg.faults->Clear();
  ASSERT_TRUE(builder->Reset(recovery_seed));
  EXPECT_FALSE(sharded->poisoned());
  builder->AddBatch(items);
  const auto recovered = builder->Finalize();

  SummarizerConfig fresh_cfg;
  fresh_cfg.s = cfg.s;
  fresh_cfg.seed = recovery_seed;
  auto fresh = MakeSummarizer("sharded:4:obliv", fresh_cfg);
  fresh->AddBatch(items);
  const auto baseline = fresh->Finalize();

  ExpectSameSample(recovered->AsSample()->sample(),
                   baseline->AsSample()->sample());
}

TEST(Chaos, ProducerSideQueueFaultIsCallerVisibleAndNonPoisoning) {
  Rng rng(4);
  const auto items = RandomItems(30000, 1 << 14, &rng);
  // shard.queue.push fires on the producer thread, inside the caller's own
  // Add stack: the enqueue fails loudly but no worker died, so the builder
  // stays healthy and the build completes (minus the dropped batch).
  SummarizerConfig cfg = FaultyConfig("shard.queue.push=fail@1");
  auto builder = MakeSummarizer("sharded:2:obliv", cfg);
  auto* sharded = static_cast<ShardedSummarizer*>(builder.get());
  bool saw_fault = false;
  for (const WeightedKey& it : items) {
    try {
      builder->Add(it);
    } catch (const FaultInjectionError& e) {
      EXPECT_EQ(e.site(), std::string(fault_sites::kShardQueuePush));
      saw_fault = true;
    }
  }
  EXPECT_TRUE(saw_fault);
  EXPECT_FALSE(sharded->poisoned());
  const auto summary = builder->Finalize();
  EXPECT_GT(summary->SizeInElements(), 0u);
}

TEST(Chaos, BucketSealFaultPoisonsTheRingAndResetRecovers) {
  Rng rng(5);
  const auto items = RandomItems(4000, 1 << 12, &rng);
  const std::uint64_t recovery_seed = 4321;
  SummarizerConfig cfg = FaultyConfig("window.bucket.seal=fail@1", 32.0);
  auto builder = MakeSummarizer("windowed:100:4:obliv", cfg);
  auto* win = builder->AsWindowed();
  ASSERT_NE(win, nullptr);

  auto feed = [&](WindowedSummarizer* w) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      w->AddTimed(static_cast<double>(i % 90), items[i]);
    }
  };
  EXPECT_THROW(feed(win), FaultInjectionError);  // first seal dies
  EXPECT_TRUE(win->poisoned());
  EXPECT_THROW(win->QueryAt(90.0), std::runtime_error);
  EXPECT_THROW(builder->Add(items[0]), std::runtime_error);
  EXPECT_THROW(builder->Finalize(), std::runtime_error);

  cfg.faults->Clear();
  ASSERT_TRUE(builder->Reset(recovery_seed));
  EXPECT_FALSE(win->poisoned());
  feed(win);
  const Sample& recovered = win->QueryAt(95.0);

  SummarizerConfig fresh_cfg;
  fresh_cfg.s = cfg.s;
  fresh_cfg.seed = recovery_seed;
  auto fresh = MakeSummarizer("windowed:100:4:obliv", fresh_cfg);
  auto* fresh_win = fresh->AsWindowed();
  feed(fresh_win);
  ExpectSameSample(recovered, fresh_win->QueryAt(95.0));
}

TEST(Chaos, QueryMergeFaultPoisonsAndResetRecovers) {
  Rng rng(6);
  const auto items = RandomItems(2000, 1 << 12, &rng);
  SummarizerConfig cfg = FaultyConfig("window.query.merge=fail@1", 32.0);
  auto builder = MakeSummarizer("windowed:100:4:obliv", cfg);
  auto* win = builder->AsWindowed();
  builder->AddBatch(items);
  EXPECT_THROW(win->QueryAt(1.0), FaultInjectionError);
  EXPECT_TRUE(win->poisoned());
  EXPECT_THROW(builder->Finalize(), std::runtime_error);

  cfg.faults->Clear();
  ASSERT_TRUE(builder->Reset(cfg.seed));
  builder->AddBatch(items);
  EXPECT_GT(builder->Finalize()->SizeInElements(), 0u);
}

TEST(Chaos, NestedWrappersSurfaceInnerWindowFailuresPerShard) {
  Rng rng(7);
  const auto items = RandomItems(2000, 1 << 12, &rng);
  // The fault injector propagates through composed keys: each shard worker
  // finalizes its own windowed inner, whose merge dies, and the sharded
  // Finalize aggregates both failures with the composed inner key named.
  SummarizerConfig cfg = FaultyConfig("window.query.merge=fail@1/1");
  auto builder = MakeSummarizer("sharded:2:windowed:50:4:obliv", cfg);
  try {
    builder->AddBatch(items);
  } catch (const std::runtime_error&) {
    // Merge faults only fire at finalize here, but stay tolerant.
  }
  try {
    builder->Finalize();
    FAIL() << "expected ShardedIngestError";
  } catch (const ShardedIngestError& e) {
    ASSERT_EQ(e.failures().size(), 2u);
    for (const ShardFailure& f : e.failures()) {
      EXPECT_NE(f.message.find("inner \"windowed:50:4:obliv\""),
                std::string::npos)
          << f.message;
    }
  }
}

TEST(Chaos, MaxBytesDegradesShardedInnersAtConstruction) {
  Rng rng(8);
  const auto items = RandomItems(20000, 1 << 14, &rng);
  SummarizerConfig cfg;
  cfg.s = 1024.0;
  cfg.seed = 99;
  // 4 shards * s entries * 64 bytes = 256 KiB; a 64 KiB budget forces two
  // halvings (1024 -> 512 -> 256) at construction time.
  cfg.max_bytes = 64 * 1024;
  auto builder = MakeSummarizer("sharded:4:obliv", cfg);
  EXPECT_EQ(builder->Describe().degradations, 2u);
  builder->AddBatch(items);
  const auto summary = builder->Finalize();
  // A degraded build is a valid build at a smaller s: still unbiased.
  double total = 0.0;
  for (const WeightedKey& it : items) total += it.weight;
  MultiRangeQuery q;
  q.boxes.push_back({{0, 1 << 14}, {0, 1 << 14}});
  EXPECT_NEAR(summary->EstimateQuery(q) / total, 1.0, 0.25);
}

TEST(Chaos, MaxBytesDegradesWindowedBucketsAsTheRingFills) {
  Rng rng(9);
  const auto items = RandomItems(8000, 1 << 12, &rng);
  SummarizerConfig cfg;
  cfg.s = 512.0;
  cfg.seed = 100;
  // One bucket at s=512 already estimates 32 KiB; a 16 KiB budget halves
  // immediately and keeps halving as more sealed buckets go live.
  cfg.max_bytes = 16 * 1024;
  auto builder = MakeSummarizer("windowed:100:4:obliv", cfg);
  auto* win = builder->AsWindowed();
  for (std::size_t i = 0; i < items.size(); ++i) {
    win->AddTimed(static_cast<double>(i % 100), items[i]);
  }
  const Sample& merged = win->QueryAt(100.0);
  EXPECT_LT(win->effective_s(), 512.0);
  EXPECT_GE(builder->Describe().degradations, 2u);
  EXPECT_GT(merged.size(), 0u);
  // The merged window shrank with the budget instead of growing past it.
  EXPECT_LE(merged.size(), static_cast<std::size_t>(win->effective_s()));
}

TEST(Chaos, DelayScheduleWidensRaceWindowsWithoutFailing) {
  Rng rng(10);
  const auto items = RandomItems(30000, 1 << 14, &rng);
  // Pure-delay schedules must never alter results, only timing: the build
  // completes and matches the no-fault build bit for bit.
  SummarizerConfig cfg = FaultyConfig("shard.worker.batch=delay@1/2:200");
  auto builder = MakeSummarizer("sharded:2:obliv", cfg);
  builder->AddBatch(items);
  const auto delayed = builder->Finalize();

  SummarizerConfig plain;
  plain.s = cfg.s;
  plain.seed = cfg.seed;
  auto baseline = MakeSummarizer("sharded:2:obliv", plain);
  baseline->AddBatch(items);
  ExpectSameSample(delayed->AsSample()->sample(),
                   baseline->Finalize()->AsSample()->sample());
  EXPECT_GT(cfg.faults->fired(), 0u);
}

}  // namespace
}  // namespace sas

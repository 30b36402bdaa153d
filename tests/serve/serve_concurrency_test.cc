// Serving-tier concurrency tests (tsan-labeled suite): N reader threads
// against one publisher, every reader must observe fully consistent
// snapshots (total-weight invariant — a torn read would break the
// entries/size/total agreement), a handle held across republishes stays
// valid and bit-stable, retired snapshots are reclaimed only after the
// last reader leaves, and the epoch domain's pin/advance protocol holds
// under direct unit drive. The suite's ctest TIMEOUT is the no-livelock
// assertion for the lock-free read path.

#include "serve/query_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.h"
#include "core/epoch.h"
#include "serve/servable.h"
#include "window/windowed.h"
#include "../api/test_util.h"

namespace sas {
namespace {

using test::RandomItems;

/// A sample whose internal consistency is checkable from any thread: n
/// entries of weight 1 under tau 0, so TotalWeight == size == n exactly
/// (integer-valued doubles; no rounding).
Sample CountingSample(std::uint32_t n) {
  std::vector<WeightedKey> entries;
  entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    entries.push_back({i, 1.0, {i, i}});
  }
  return Sample(0.0, std::move(entries));
}

TEST(EpochDomain, PinAdvanceReclaimProtocol) {
  EpochDomain ed;
  EXPECT_EQ(ed.current_epoch(), 0u);
  EXPECT_EQ(ed.MinActiveEpoch(), EpochDomain::kIdle);

  const int slot = ed.RegisterReader();
  EXPECT_EQ(ed.Pin(slot), 0u);
  EXPECT_EQ(ed.MinActiveEpoch(), 0u);
  EXPECT_EQ(ed.PinnedReaders(), 1);

  // State retired under tag 0 is NOT reclaimable while the pin holds...
  EXPECT_EQ(ed.Advance(), 1u);
  EXPECT_FALSE(ed.MinActiveEpoch() > 0u);

  // ...and becomes reclaimable the moment the reader unpins.
  ed.Unpin(slot);
  EXPECT_EQ(ed.MinActiveEpoch(), EpochDomain::kIdle);
  EXPECT_GT(EpochDomain::kIdle, 0u);

  // A re-pin after the advance advertises the new epoch.
  EXPECT_EQ(ed.Pin(slot), 1u);
  ed.Unpin(slot);
  ed.UnregisterReader(slot);
  EXPECT_EQ(ed.RegisteredReaders(), 0);
}

TEST(EpochDomain, SlotExhaustionThrows) {
  EpochDomain ed;
  std::vector<int> slots;
  for (int i = 0; i < EpochDomain::kMaxReaders; ++i) {
    slots.push_back(ed.RegisterReader());
  }
  EXPECT_THROW(ed.RegisterReader(), std::runtime_error);
  ed.UnregisterReader(slots.back());
  EXPECT_NO_THROW(ed.UnregisterReader(ed.RegisterReader()));
  for (std::size_t i = 0; i + 1 < slots.size(); ++i) {
    ed.UnregisterReader(slots[i]);
  }
}

TEST(QueryService, AcquireBeforeAnyPublishThrows) {
  QueryService svc;
  QueryService::Reader reader(svc);
  EXPECT_FALSE(svc.has_snapshot());
  EXPECT_THROW(reader.Acquire(), std::logic_error);
  EXPECT_FALSE(reader.TryAcquire());
  // The failed acquires left no pin behind.
  EXPECT_EQ(svc.pinned_readers(), 0);
}

TEST(QueryService, DoubledAcquireThrows) {
  QueryService svc;
  svc.Publish(CountingSample(3));
  QueryService::Reader reader(svc);
  SnapshotHandle h = reader.Acquire();
  EXPECT_THROW(reader.Acquire(), std::logic_error);
  h.Release();
  EXPECT_NO_THROW(reader.Acquire());
}

TEST(QueryService, HandleHeldAcrossRepublishStaysValidAndBitStable) {
  QueryService svc;
  svc.Publish(CountingSample(10));

  QueryService::Reader reader(svc);
  SnapshotHandle held = reader.Acquire();
  ASSERT_TRUE(held);
  EXPECT_EQ(held->TotalWeight(), 10.0);

  // Republished ten times while the handle pins the original epoch: the
  // displaced snapshots queue up un-reclaimed (the held one is the oldest).
  for (std::uint32_t n = 11; n <= 20; ++n) svc.Publish(CountingSample(n));
  EXPECT_EQ(svc.publishes(), 11u);
  EXPECT_GE(svc.retired_pending(), 1u);

  // The held snapshot is untouched, bit-stable, fully queryable.
  EXPECT_EQ(held->TotalWeight(), 10.0);
  EXPECT_EQ(held->size(), 10u);
  EXPECT_EQ(held->sample().EstimateSubset(
                [](const WeightedKey& k) { return k.id < 5; }),
            5.0);
  EXPECT_EQ(held->sample().EstimateTotal(), 10.0);

  // Release, republish once more: with no reader pinned, that publish's
  // reclamation pass frees everything — including the just-displaced
  // snapshot (min active epoch is "idle" = unbounded).
  held.Release();
  svc.Publish(CountingSample(21));
  EXPECT_EQ(svc.retired_pending(), 0u);
  EXPECT_EQ(svc.reclaimed(), 11u);

  SnapshotHandle fresh = reader.Acquire();
  EXPECT_EQ(fresh->TotalWeight(), 21.0);
}

TEST(QueryService, ConcurrentReadersSeeOnlyConsistentSnapshots) {
  constexpr int kReaders = 4;
  constexpr std::uint32_t kPublishes = 150;

  QueryService svc;
  svc.Publish(CountingSample(1));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_reads{0};
  std::atomic<int> readers_reading{0};
  std::atomic<bool> torn{false};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      QueryService::Reader reader(svc);
      bool first_read = true;
      while (!stop.load(std::memory_order_acquire)) {
        SnapshotHandle snap = reader.Acquire();
        // Consistency invariant of CountingSample(n): every view of the
        // snapshot agrees on n. A torn snapshot (entries from one publish,
        // size or precomputed total from another) breaks at least one
        // equality.
        const double total = snap->TotalWeight();
        const std::size_t size = snap->size();
        const Sample& sample = snap->sample();
        const bool consistent =
            total == static_cast<double>(size) && total >= 1.0 &&
            total <= static_cast<double>(kPublishes) &&
            sample.EstimateTotal() == total &&
            sample.EstimateSubset([size](const WeightedKey& k) {
              return k.id < size;
            }) == total &&
            sample.EstimateSubset([size](const WeightedKey& k) {
              return k.id + 1 == size;
            }) == 1.0;
        if (!consistent) torn.store(true, std::memory_order_release);
        total_reads.fetch_add(1, std::memory_order_relaxed);
        if (first_read) {
          first_read = false;
          readers_reading.fetch_add(1, std::memory_order_release);
        }
      }
    });
  }

  // Republish only once every reader is in its read loop: a publish is a
  // small sample copy, so the whole run can otherwise end before a
  // reader thread is first scheduled.
  while (readers_reading.load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();
  }
  for (std::uint32_t n = 2; n <= kPublishes; ++n) {
    svc.Publish(CountingSample(n));
    if (n % 16 == 0) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_FALSE(torn.load());
  EXPECT_GT(total_reads.load(), 0u);
  EXPECT_EQ(svc.publishes(), kPublishes);

  // With every reader gone, one more publish drains all pending garbage:
  // every snapshot ever displaced (one per publish) has been freed.
  svc.Publish(CountingSample(1));
  EXPECT_EQ(svc.retired_pending(), 0u);
  EXPECT_EQ(svc.reclaimed(), kPublishes);
}

TEST(Servable, ServeKeyParsesAndRegisters) {
  const std::optional<ComposedKey> parsed =
      ParseComposedKey("serve:windowed:10:2:obliv");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->grammar->prefix, std::string("serve:"));
  EXPECT_EQ(parsed->inner, "windowed:10:2:obliv");
  EXPECT_TRUE(parsed->fields.empty());
  EXPECT_THROW(ParseComposedKey("serve:"), std::invalid_argument);
  // Keys without a wrapper prefix are plain method keys, not cut at a fixed
  // offset.
  for (const char* key : {"obliv", "order-2p", ""}) {
    EXPECT_FALSE(ParseComposedKey(key).has_value()) << key;
  }
  EXPECT_NE(ParseComposedKey("sharded:2:obliv")->grammar->prefix,
            std::string("serve:"));

  EXPECT_TRUE(IsRegisteredSummarizer("serve:obliv"));
  EXPECT_TRUE(IsRegisteredSummarizer("serve:sharded:2:obliv"));
  EXPECT_FALSE(IsRegisteredSummarizer("serve:"));
  EXPECT_FALSE(IsRegisteredSummarizer("serve:no-such-method"));

  SummarizerConfig cfg;
  cfg.s = 16.0;
  EXPECT_THROW(MakeSummarizer("serve:", cfg), std::invalid_argument);
  EXPECT_THROW(MakeSummarizer("serve:no-such-method", cfg),
               std::invalid_argument);

  // serve: is outermost-only, and the key alone says so: under any other
  // wrapper (or itself) the key is not registered and does not build, and
  // the error names the whole key.
  for (const std::string key : {"sharded:2:serve:obliv",
                                "windowed:60:4:serve:obliv",
                                "serve:serve:obliv"}) {
    EXPECT_FALSE(IsRegisteredSummarizer(key)) << key;
    EXPECT_THROW(ParseComposedKey(key), std::invalid_argument) << key;
    try {
      (void)MakeSummarizer(key, cfg);
      ADD_FAILURE() << key << " built";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
}

TEST(Servable, ServeIsOutermostOnly) {
  // The grammar rejects serve: under another wrapper, and the wrapper
  // itself is not mergeable either.
  SummarizerConfig cfg;
  cfg.s = 16.0;
  auto builder = MakeSummarizer("serve:obliv", cfg);
  EXPECT_FALSE(builder->Mergeable());
  EXPECT_THROW(MakeSummarizer("sharded:2:serve:obliv", cfg),
               std::invalid_argument);
}

TEST(Servable, FinalizePublishesAndSummaryKeepsComposedKey) {
  Rng rng(21);
  const auto items = RandomItems(200, 1 << 10, &rng);
  SummarizerConfig cfg;
  cfg.s = 48.0;
  cfg.seed = 99;

  auto builder = MakeSummarizer("serve:obliv", cfg);
  ServableSummarizer* servable = builder->AsServable();
  ASSERT_NE(servable, nullptr);
  auto service = servable->service();
  EXPECT_FALSE(service->has_snapshot());

  builder->AddBatch(items);
  const auto summary = builder->Finalize();
  EXPECT_EQ(summary->Name(), "serve:obliv");
  ASSERT_TRUE(service->has_snapshot());

  // The published snapshot is the finalized sample, bit for bit.
  QueryService::Reader reader(*service);
  SnapshotHandle snap = reader.Acquire();
  const Sample& finalized = summary->AsSample()->sample();
  EXPECT_EQ(snap->TotalWeight(), finalized.EstimateTotal());
  ASSERT_EQ(snap->size(), finalized.size());
  for (std::size_t i = 0; i < finalized.size(); ++i) {
    EXPECT_EQ(snap->sample().entries()[i].id, finalized.entries()[i].id);
  }

  // The build is bit-identical to the unwrapped method under the same
  // seed: serving is pure observation.
  auto plain = MakeSummarizer("obliv", cfg);
  plain->AddBatch(items);
  const auto plain_summary = plain->Finalize();
  EXPECT_EQ(snap->TotalWeight(),
            plain_summary->AsSample()->sample().EstimateTotal());
}

TEST(Servable, NonSampleBackedInnerRejectedAtFinalize) {
  SummarizerConfig cfg;
  cfg.s = 16.0;
  cfg.bits_x = 8;
  cfg.bits_y = 8;
  auto builder = MakeSummarizer("serve:wavelet", cfg);
  builder->Add({0, 1.0, {1, 1}});
  auto service = builder->AsServable()->service();
  EXPECT_THROW(builder->Finalize(), std::invalid_argument);
  // Nothing was published by the failed finalize.
  EXPECT_FALSE(service->has_snapshot());
}

TEST(Servable, WindowedInnerRepublishesOnRingAdvance) {
  Rng rng(31);
  const auto items = RandomItems(600, 1 << 10, &rng);
  SummarizerConfig cfg;
  cfg.s = 64.0;

  auto builder = MakeSummarizer("serve:windowed:8:4:obliv", cfg);
  auto service = builder->AsServable()->service();
  WindowedSummarizer* win = builder->AsWindowed();
  ASSERT_NE(win, nullptr);

  // Stream across epoch boundaries (bucket width 2, so epochs 1..5 are
  // crossed): every ring advance republishes the merged window. Then one
  // explicit advance publishes the final, complete window.
  for (std::size_t i = 0; i < items.size(); ++i) {
    const double ts = 12.0 * static_cast<double>(i) /
                      static_cast<double>(items.size());
    win->AddTimed(ts, items[i]);
  }
  win->Advance(12.0);
  const std::uint64_t mid_publishes = service->publishes();
  EXPECT_GE(mid_publishes, 6u);
  ASSERT_TRUE(service->has_snapshot());

  // The published view is the merged window of that last advance: QueryAt
  // at the current clock reuses the same cached merge, bit-identically.
  QueryService::Reader reader(*service);
  {
    SnapshotHandle snap = reader.Acquire();
    const Sample& merged = win->QueryAt(win->now());
    EXPECT_EQ(service->publishes(), mid_publishes);  // no ring advance
    EXPECT_EQ(snap->TotalWeight(), merged.EstimateTotal());
    ASSERT_EQ(snap->size(), merged.size());
  }

  // An explicit advance far past the window republishes an empty view.
  win->Advance(1000.0);
  EXPECT_EQ(service->publishes(), mid_publishes + 1);
  SnapshotHandle empty = reader.Acquire();
  EXPECT_EQ(empty->size(), 0u);
}

TEST(Servable, IngestValidationAtTheWrapperSurface) {
  SummarizerConfig cfg;
  cfg.s = 16.0;
  auto strict = MakeSummarizer("serve:obliv", cfg);
  strict->Add({0, 1.0, {0, 0}});
  EXPECT_THROW(strict->Add({1, -1.0, {1, 1}}), std::invalid_argument);
  EXPECT_EQ(strict->Describe().accepted, 1u);

  cfg.ingest_policy = IngestPolicy::kQuarantine;
  auto lax = MakeSummarizer("serve:obliv", cfg);
  lax->Add({0, 1.0, {0, 0}});
  lax->Add({1, -1.0, {1, 1}});
  EXPECT_EQ(lax->Describe().accepted, 1u);
  EXPECT_EQ(lax->Describe().rejected_weight, 1u);
  EXPECT_EQ(lax->Finalize()->SizeInElements(), 1u);
}

TEST(Servable, FinalizedBuilderIsSpentUntilReset) {
  Rng rng(43);
  const auto items = RandomItems(100, 1 << 10, &rng);
  SummarizerConfig cfg;
  cfg.s = 24.0;
  cfg.seed = 7;
  for (const std::string key : {"serve:obliv", "serve:windowed:8:4:obliv"}) {
    auto builder = MakeSummarizer(key, cfg);
    auto service = builder->AsServable()->service();
    builder->AddBatch(items);
    (void)builder->Finalize();
    const std::uint64_t publishes = service->publishes();

    // Every ingest call and a second Finalize fail fast, and nothing is
    // republished.
    const Coord p[2] = {1, 2};
    EXPECT_THROW(builder->Add(items[0]), std::logic_error) << key;
    EXPECT_THROW(builder->AddBatch(items), std::logic_error) << key;
    EXPECT_THROW(builder->AddCoords(0, p, 2, 1.0), std::logic_error) << key;
    EXPECT_THROW(builder->Finalize(), std::logic_error) << key;
    EXPECT_EQ(service->publishes(), publishes) << key;

    // Reset recovers (both inner methods recycle), and the next build
    // publishes again.
    ASSERT_TRUE(builder->Reset(cfg.seed)) << key;
    builder->AddBatch(items);
    EXPECT_GT(builder->Finalize()->SizeInElements(), 0u) << key;
    EXPECT_EQ(service->publishes(), publishes + 1) << key;
  }
}

TEST(Servable, ResetRecyclesBuilderAndKeepsServing) {
  Rng rng(41);
  const auto items = RandomItems(100, 1 << 10, &rng);
  SummarizerConfig cfg;
  cfg.s = 24.0;
  cfg.seed = 7;

  auto builder = MakeSummarizer("serve:obliv", cfg);
  auto service = builder->AsServable()->service();
  builder->AddBatch(items);
  (void)builder->Finalize();
  const std::uint64_t first_publishes = service->publishes();

  // Reset recycles the builder; the last snapshot keeps serving meanwhile.
  ASSERT_TRUE(builder->Reset(7));
  EXPECT_TRUE(service->has_snapshot());
  EXPECT_EQ(service->publishes(), first_publishes);

  // The recycled build republishes and matches a fresh build bit for bit.
  builder->AddBatch(items);
  const auto again = builder->Finalize();
  EXPECT_EQ(service->publishes(), first_publishes + 1);

  auto fresh = MakeSummarizer("serve:obliv", cfg);
  fresh->AddBatch(items);
  const auto fresh_summary = fresh->Finalize();
  EXPECT_EQ(again->AsSample()->sample().EstimateTotal(),
            fresh_summary->AsSample()->sample().EstimateTotal());
}

}  // namespace
}  // namespace sas

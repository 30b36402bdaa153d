// Chaos tests for the serving tier's fault sites (runs in the chaos
// suite, `ctest -L chaos`, under TSan and ASan in CI):
//
//   * serve.publish (throwing, fires before the pointer swap) — a failed
//     publish must leave the previous snapshot serving, bit-stable, with
//     publish counters untouched: the strong guarantee of
//     QueryService::Publish.
//   * serve.reclaim (degrading, non-throwing) — a fired rule skips one
//     reclamation pass; the retired snapshots stay pending and the next
//     un-faulted publish drains them. Reclamation failure never fails a
//     publish.
//
// Schedules are deterministic (counter-based), so every scenario replays
// bit-for-bit; delay schedules widen the publish/acquire race window for
// the sanitizer jobs without changing semantics.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/registry.h"
#include "core/fault.h"
#include "core/sample.h"
#include "serve/query_service.h"
#include "serve/servable.h"
#include "../api/test_util.h"

namespace sas {
namespace {

using test::RandomItems;

std::shared_ptr<FaultInjector> Injector(const char* spec) {
  auto fi = std::make_shared<FaultInjector>();
  fi->Configure(spec);
  return fi;
}

Sample UnitSample(std::uint32_t n) {
  std::vector<WeightedKey> entries;
  entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) entries.push_back({i, 1.0, {i, i}});
  return Sample(0.0, std::move(entries));
}

TEST(ServeChaos, FailedPublishLeavesOldSnapshotServing) {
  // The 2nd publish dies before the swap; the 1st snapshot keeps serving.
  QueryService svc(
      QueryService::Options{Injector("serve.publish=fail@2")});
  svc.Publish(UnitSample(5));

  QueryService::Reader reader(svc);
  EXPECT_THROW(svc.Publish(UnitSample(9)), FaultInjectionError);

  EXPECT_EQ(svc.publishes(), 1u);  // the failed attempt never counted
  SnapshotHandle snap = reader.Acquire();
  EXPECT_EQ(snap->TotalWeight(), 5.0);
  EXPECT_EQ(snap->size(), 5u);
  snap.Release();

  // The service is not poisoned: the next publish succeeds and replaces
  // the view as if the faulted attempt never happened.
  svc.Publish(UnitSample(7));
  EXPECT_EQ(svc.publishes(), 2u);
  EXPECT_EQ(reader.Acquire()->TotalWeight(), 7.0);
}

TEST(ServeChaos, FailedPublishWithHeldHandleKeepsItValid) {
  QueryService svc(
      QueryService::Options{Injector("serve.publish=fail@2")});
  svc.Publish(UnitSample(5));

  QueryService::Reader reader(svc);
  SnapshotHandle held = reader.Acquire();
  EXPECT_THROW(svc.Publish(UnitSample(9)), FaultInjectionError);
  // Neither the swap nor the epoch advance happened: the held snapshot is
  // the published one, untouched.
  EXPECT_EQ(held->TotalWeight(), 5.0);
  EXPECT_EQ(svc.epoch(), 1u);
  EXPECT_EQ(svc.retired_pending(), 0u);
}

TEST(ServeChaos, PublishLaneNarrowsTheFaultToOneOrdinal) {
  // Lane = 0-based publish ordinal: fail only the 3rd publish (lane 2).
  QueryService svc(
      QueryService::Options{Injector("serve.publish#2=fail@1")});
  svc.Publish(UnitSample(1));
  svc.Publish(UnitSample(2));
  EXPECT_THROW(svc.Publish(UnitSample(3)), FaultInjectionError);
  // The ordinal did not move — the retry is still lane 2 and its rule
  // already fired once, so it goes through.
  svc.Publish(UnitSample(3));
  EXPECT_EQ(svc.publishes(), 3u);
}

TEST(ServeChaos, SkippedReclamationDegradesAndRecovers) {
  // Every reclamation pass from the 1st on is skipped... at first.
  QueryService svc(
      QueryService::Options{Injector("serve.reclaim=fail@1/1")});
  svc.Publish(UnitSample(1));  // nothing retired yet: no pass, no skip
  EXPECT_EQ(svc.reclaim_skipped(), 0u);

  for (std::uint32_t n = 2; n <= 5; ++n) svc.Publish(UnitSample(n));
  // Four passes all skipped: every displaced snapshot is still pending
  // even though no reader pins anything.
  EXPECT_EQ(svc.reclaim_skipped(), 4u);
  EXPECT_EQ(svc.retired_pending(), 4u);
  EXPECT_EQ(svc.reclaimed(), 0u);

  // Readers never noticed: the live snapshot is the last published one,
  // and skipped reclamation degrades memory, never correctness.
  QueryService::Reader reader(svc);
  EXPECT_EQ(reader.Acquire()->TotalWeight(), 5.0);
  svc.Publish(UnitSample(6));
  EXPECT_EQ(svc.reclaim_skipped(), 5u);  // the periodic rule keeps firing
  EXPECT_EQ(reader.Acquire()->TotalWeight(), 6.0);

  // A bounded schedule (fires once, then the schedule is exhausted) shows
  // the recovery half: one skipped pass, then the next publish's pass
  // drains the whole backlog (tags are monotone; with no reader pinned
  // everything is below min-active).
  QueryService bounded(
      QueryService::Options{Injector("serve.reclaim=fail@1")});
  bounded.Publish(UnitSample(1));
  bounded.Publish(UnitSample(2));  // first pass: skipped (the one firing)
  EXPECT_EQ(bounded.reclaim_skipped(), 1u);
  EXPECT_EQ(bounded.retired_pending(), 1u);
  bounded.Publish(UnitSample(3));  // next pass runs: backlog drains
  EXPECT_EQ(bounded.reclaim_skipped(), 1u);
  EXPECT_EQ(bounded.retired_pending(), 0u);
  EXPECT_EQ(bounded.reclaimed(), 2u);
}

TEST(ServeChaos, DelayedPublishWidensTheRaceWindowSafely) {
  // A 200us stall inside every publish (between build and swap) while four
  // readers hammer Acquire: the delay widens exactly the window the epoch
  // protocol must protect. Correctness assertions are the readers'
  // consistency checks; TSan (this suite runs under `-L chaos` in the
  // sanitizer matrix) turns any torn publication into a hard failure.
  QueryService svc(
      QueryService::Options{Injector("serve.publish=delay@1/1:200")});
  svc.Publish(UnitSample(1));

  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      QueryService::Reader reader(svc);
      while (!stop.load(std::memory_order_acquire)) {
        SnapshotHandle snap = reader.Acquire();
        if (snap->TotalWeight() != static_cast<double>(snap->size())) {
          torn.store(true, std::memory_order_release);
        }
      }
    });
  }
  for (std::uint32_t n = 2; n <= 40; ++n) svc.Publish(UnitSample(n));
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_FALSE(torn.load());
  EXPECT_EQ(svc.publishes(), 40u);
}

TEST(ServeChaos, ServableFinalizeSurfacesPublishFault) {
  // Through the registry surface: a serve-wrapped builder whose publish
  // site is armed fails Finalize, and the service stays unpublished — the
  // inner build succeeded, only publication was interrupted.
  Rng rng(99);
  const auto items = RandomItems(150, 1 << 10, &rng);
  SummarizerConfig cfg;
  cfg.s = 32.0;
  cfg.faults = Injector("serve.publish=fail@1");

  auto builder = MakeSummarizer("serve:obliv", cfg);
  auto service = builder->AsServable()->service();
  builder->AddBatch(items);
  EXPECT_THROW(builder->Finalize(), FaultInjectionError);
  EXPECT_FALSE(service->has_snapshot());
  EXPECT_EQ(service->publishes(), 0u);
}

}  // namespace
}  // namespace sas

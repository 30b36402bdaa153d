// Windowed backend tests: "windowed:<W>:<B>:<inner>" must cover exactly the
// last W time units at bucket granularity (items exactly W old are out),
// agree with a batch build of the inner method over the live window's items
// within Horvitz-Thompson tolerance, reproduce bit-identically for a fixed
// (seed, W, B, timestamped input), serve repeated queries from the cached
// merged sample, handle empty/partial rings and zero-entry bucket samples,
// compose with the sharded wrapper in either order, and reject
// non-mergeable inner methods. The key grammar itself is pinned in
// tests/api/composed_test.cc.

#include "window/windowed.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.h"
#include "core/fault.h"
#include "core/random.h"
#include "../api/test_util.h"

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

Weight ExactTotal(const std::vector<WeightedKey>& items) {
  Weight total = 0.0;
  for (const auto& it : items) total += it.weight;
  return total;
}

/// Builds the windowed wrapper and returns the WindowedSummarizer surface.
struct WindowedBuild {
  std::unique_ptr<Summarizer> builder;
  WindowedSummarizer* win = nullptr;
};

WindowedBuild MakeWindowed(const std::string& key,
                           const SummarizerConfig& cfg) {
  WindowedBuild b;
  b.builder = MakeSummarizer(key, cfg);
  b.win = b.builder->AsWindowed();
  EXPECT_NE(b.win, nullptr) << key;
  return b;
}

/// Timestamps items deterministically over [0, horizon) in item order.
std::vector<double> SpreadTimestamps(std::size_t n, double horizon) {
  std::vector<double> ts(n);
  for (std::size_t i = 0; i < n; ++i) {
    ts[i] = horizon * static_cast<double>(i) / static_cast<double>(n);
  }
  return ts;
}

TEST(WindowedKey, RegisteredWhenInnerIs) {
  EXPECT_TRUE(IsRegisteredSummarizer("windowed:60:4:obliv"));
  // The composed wrappers nest in either order.
  EXPECT_TRUE(IsRegisteredSummarizer("windowed:60:4:sharded:2:obliv"));
  EXPECT_TRUE(IsRegisteredSummarizer("sharded:2:windowed:60:4:obliv"));
  EXPECT_FALSE(IsRegisteredSummarizer("windowed:60:4:nope"));
  EXPECT_FALSE(IsRegisteredSummarizer("sharded:2:windowed:60:4:nope"));
}

TEST(WindowedKey, NonMergeableInnerRejected) {
  SummarizerConfig cfg;
  cfg.s = 50.0;
  for (const char* inner : {"wavelet", "qdigest", "sketch", "exact"}) {
    EXPECT_THROW(MakeSummarizer("windowed:60:4:" + std::string(inner), cfg),
                 std::invalid_argument)
        << inner;
  }
  cfg.structure = StructureSpec::Disjoint({0, 1}, 2);
  EXPECT_THROW(MakeSummarizer("windowed:60:4:disjoint", cfg),
               std::invalid_argument);
}

TEST(WindowedKey, NdInnerOverMoreThanTwoAxesRejected) {
  // The ring buffers 2-D WeightedKeys, so an nd inner method at dims > 2
  // could never seal a bucket: the key is refused up front, naming the
  // whole key, under every wrapper that can sit around the window.
  SummarizerConfig cfg;
  cfg.s = 50.0;
  cfg.structure = StructureSpec::Nd(3);
  for (const std::string& key :
       {std::string("windowed:60:4:nd"), std::string("serve:windowed:60:4:nd"),
        std::string("sharded:2:windowed:60:4:nd")}) {
    try {
      (void)MakeSummarizer(key, cfg);
      ADD_FAILURE() << key << " built at dims = 3";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("MakeSummarizer(\"" + key + "\")"),
                std::string::npos)
          << e.what();
    }
  }
  // At dims <= 2 every item fits the ring, and buckets seal.
  for (int dims : {1, 2}) {
    cfg.structure = StructureSpec::Nd(dims);
    for (const char* key : {"windowed:60:4:nd", "serve:windowed:60:4:nd"}) {
      SCOPED_TRACE(key);
      auto builder = MakeSummarizer(key, cfg);
      builder->Add({0, 1.0, {1, 2}});
      builder->AsWindowed()->Advance(16.0);
      builder->Add({1, 2.0, {3, 4}});
      EXPECT_EQ(builder->Finalize()->SizeInElements(), 2u);
    }
  }
}

TEST(Windowed, FractionalSizeRejected) {
  SummarizerConfig cfg;
  cfg.s = 0.5;  // merged window budget is integral
  EXPECT_THROW(MakeSummarizer("windowed:60:4:product", cfg),
               std::invalid_argument);
}

TEST(Windowed, UntimedUseActsAsOneBucket) {
  // Without Advance the wrapper is a single bucket at time 0: generic call
  // sites (harness, sharded workers) can treat the key like any other.
  Rng data_rng(51);
  const auto items = RandomItems(20000, 1 << 14, &data_rng);
  SummarizerConfig cfg;
  cfg.s = 500.0;
  cfg.seed = 9001;
  auto builder = MakeSummarizer("windowed:3600:60:obliv", cfg);
  builder->AddBatch(items);
  const auto summary = builder->Finalize();
  EXPECT_EQ(summary->Name(), "windowed:3600:60:obliv");
  ASSERT_NE(summary->AsSample(), nullptr);
  EXPECT_NEAR(summary->AsSample()->sample().EstimateTotal() /
                  ExactTotal(items),
              1.0, 1e-9);
  EXPECT_NEAR(static_cast<double>(summary->SizeInElements()), 500.0, 1.0);
}

TEST(Windowed, MatchesBatchBuildOverWindowWithinHtTolerance) {
  // The acceptance bar: a windowed build queried at time T and a batch
  // build of the inner method over exactly the live window's items are both
  // unbiased HT estimators of the same sub-stream; their seed-averaged box
  // estimates must agree with the exact value and each other (same bounds
  // as api/sharded_test's sharded-vs-unsharded comparison).
  Rng data_rng(52);
  const auto items = RandomItems(20000, 1 << 14, &data_rng);
  const double horizon = 10.0;
  const auto ts = SpreadTimestamps(items.size(), horizon);

  const double W = 8.0;
  const int B = 4;
  SummarizerConfig probe_cfg;
  probe_cfg.s = 1000.0;
  auto probe = MakeWindowed("windowed:8:4:obliv", probe_cfg);
  // Live window at `horizon`: items whose epoch survives the ring rule.
  const std::int64_t cur = probe.win->EpochOf(horizon);
  std::vector<WeightedKey> window_items;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (probe.win->EpochOf(ts[i]) > cur - B) window_items.push_back(items[i]);
  }
  ASSERT_GT(window_items.size(), items.size() / 3);
  ASSERT_LT(window_items.size(), items.size());
  (void)W;

  const Box box{{0, 1 << 13}, {0, 1 << 14}};  // ~half the domain
  const Weight exact = ExactBox(window_items, box);
  ASSERT_GT(exact, 0.0);

  for (const std::string& inner :
       {std::string("obliv"), std::string("product"), std::string("aware")}) {
    double windowed_mean = 0.0, batch_mean = 0.0;
    const int seeds = 10;
    for (int t = 0; t < seeds; ++t) {
      SummarizerConfig cfg;
      cfg.s = 1000.0;
      cfg.seed = 1234 + static_cast<std::uint64_t>(t);
      auto wb = MakeWindowed("windowed:8:4:" + inner, cfg);
      for (std::size_t i = 0; i < items.size(); ++i) {
        wb.win->AddTimed(ts[i], items[i]);
      }
      // Every inner here recycles its bucket builders through Reset.
      EXPECT_GT(wb.win->recycled_builders(), 0u) << inner;
      windowed_mean += wb.win->QueryAt(horizon).EstimateBox(box);

      auto batch = MakeSummarizer(inner, cfg);
      batch->AddBatch(window_items);
      batch_mean += batch->Finalize()->EstimateBox(box);
    }
    windowed_mean /= seeds;
    batch_mean /= seeds;
    EXPECT_NEAR(windowed_mean / exact, 1.0, 0.03) << inner;
    EXPECT_NEAR(batch_mean / exact, 1.0, 0.03) << inner;
    EXPECT_NEAR(windowed_mean / batch_mean, 1.0, 0.05) << inner;
  }
}

TEST(Windowed, WindowTotalIsExactForLiveItems) {
  // Every bucket sample preserves its bucket's total and the merge
  // preserves totals exactly, so the window-total estimate equals the sum
  // of live items' weights up to floating point.
  Rng data_rng(53);
  const auto items = RandomItems(8000, 1 << 12, &data_rng);
  const auto ts = SpreadTimestamps(items.size(), 16.0);
  SummarizerConfig cfg;
  cfg.s = 300.0;
  auto wb = MakeWindowed("windowed:8:4:obliv", cfg);
  for (std::size_t i = 0; i < items.size(); ++i) {
    wb.win->AddTimed(ts[i], items[i]);
  }
  const std::int64_t cur = wb.win->EpochOf(16.0);
  Weight live = 0.0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (wb.win->EpochOf(ts[i]) > cur - 4) live += items[i].weight;
  }
  const Sample& window = wb.win->QueryAt(16.0);
  EXPECT_NEAR(window.EstimateTotal() / live, 1.0, 1e-9);
}

TEST(Windowed, BucketExpiryBoundary) {
  // W=8, B=4 => span 2 (exact in floating point). An item exactly W old is
  // always outside the window; one inside the oldest live bucket survives
  // until its whole bucket leaves.
  SummarizerConfig cfg;
  cfg.s = 50.0;
  auto wb = MakeWindowed("windowed:8:4:obliv", cfg);
  wb.win->AddTimed(0.0, {0, 5.0, {1, 1}});
  wb.win->AddTimed(2.0, {1, 7.0, {2, 2}});

  // Just before the boundary both items are live.
  EXPECT_DOUBLE_EQ(wb.win->QueryAt(7.5).EstimateTotal(), 12.0);
  // At now=8 the ts=0 item is exactly W old: its epoch (0) has left the
  // ring (live epochs are 1..4); the ts=2 item remains.
  EXPECT_DOUBLE_EQ(wb.win->QueryAt(8.0).EstimateTotal(), 7.0);
  EXPECT_EQ(wb.win->live_buckets(), 1);
  // The ts=2 bucket (epoch 1) expires once the clock reaches 10.
  EXPECT_DOUBLE_EQ(wb.win->QueryAt(10.0).EstimateTotal(), 0.0);
  EXPECT_EQ(wb.win->live_buckets(), 0);
}

TEST(Windowed, LateItemsJoinCurrentBucketOrDrop) {
  SummarizerConfig cfg;
  cfg.s = 50.0;
  auto wb = MakeWindowed("windowed:8:4:obliv", cfg);
  wb.win->Advance(9.0);  // current epoch 4, live epochs 1..4

  // ts=3 (epoch 1) is late but inside the window: kept, in the current
  // bucket.
  wb.win->AddTimed(3.0, {0, 5.0, {1, 1}});
  EXPECT_EQ(wb.win->late_items(), 1u);
  EXPECT_DOUBLE_EQ(wb.win->QueryAt(9.0).EstimateTotal(), 5.0);

  // ts=1 (epoch 0) has left the window: dropped.
  wb.win->AddTimed(1.0, {1, 7.0, {2, 2}});
  EXPECT_EQ(wb.win->dropped_items(), 1u);
  EXPECT_DOUBLE_EQ(wb.win->QueryAt(9.0).EstimateTotal(), 5.0);

  // Because the late item sits in the epoch-4 bucket, it outlives its
  // timestamp's own bucket (documented: up to one span late).
  EXPECT_DOUBLE_EQ(wb.win->QueryAt(11.5).EstimateTotal(), 5.0);
  EXPECT_DOUBLE_EQ(wb.win->QueryAt(18.0).EstimateTotal(), 0.0);
}

TEST(Windowed, EmptyAndPartialRings) {
  SummarizerConfig cfg;
  cfg.s = 100.0;
  auto wb = MakeWindowed("windowed:8:4:obliv", cfg);

  // Query over a never-fed ring.
  const Sample& empty = wb.win->QueryAt(100.0);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_DOUBLE_EQ(empty.EstimateTotal(), 0.0);
  EXPECT_EQ(wb.win->live_buckets(), 0);

  // One mid-epoch bucket only (partial ring): the few items fit in the
  // budget, so the estimate is exact.
  wb.win->AddTimed(100.5, {0, 3.0, {1, 1}});
  wb.win->AddTimed(100.6, {1, 4.0, {5, 5}});
  EXPECT_DOUBLE_EQ(wb.win->QueryAt(100.7).EstimateTotal(), 7.0);
  EXPECT_EQ(wb.win->live_buckets(), 1);

  // Sealed + current buckets with gaps (empty epochs in between).
  wb.win->AddTimed(104.5, {2, 10.0, {9, 9}});
  EXPECT_DOUBLE_EQ(wb.win->QueryAt(104.5).EstimateTotal(), 17.0);
  EXPECT_EQ(wb.win->live_buckets(), 2);

  // Advancing far past everything empties the ring again.
  EXPECT_DOUBLE_EQ(wb.win->QueryAt(1000.0).EstimateTotal(), 0.0);
  EXPECT_EQ(wb.win->live_buckets(), 0);
}

TEST(Windowed, ZeroEntryBucketSamplesMerge) {
  // Buckets fed only non-positive weights finalize to zero-entry samples;
  // the window merge must carry them without disturbing live mass.
  SummarizerConfig cfg;
  cfg.s = 50.0;
  auto wb = MakeWindowed("windowed:8:4:obliv", cfg);
  wb.win->AddTimed(0.5, {0, 0.0, {1, 1}});   // zero-weight bucket
  wb.win->AddTimed(2.5, {1, 6.0, {2, 2}});   // real bucket
  wb.win->AddTimed(4.5, {2, 0.0, {3, 3}});   // zero-weight bucket
  const Sample& window = wb.win->QueryAt(6.0);
  EXPECT_DOUBLE_EQ(window.EstimateTotal(), 6.0);
  EXPECT_EQ(window.size(), 1u);
  // All three buckets are live (their buffers were non-empty), two of them
  // with zero-entry samples.
  EXPECT_EQ(wb.win->live_buckets(), 3);
}

TEST(Windowed, QueryAtReusesCachedMergeUntilRingAdvances) {
  Rng data_rng(54);
  const auto items = RandomItems(4000, 1 << 12, &data_rng);
  const auto ts = SpreadTimestamps(items.size(), 6.0);
  SummarizerConfig cfg;
  cfg.s = 200.0;
  auto wb = MakeWindowed("windowed:8:4:obliv", cfg);
  for (std::size_t i = 0; i < items.size(); ++i) {
    wb.win->AddTimed(ts[i], items[i]);
  }

  const Sample& first = wb.win->QueryAt(6.0);
  const std::size_t merges = wb.win->merges_performed();
  const double tau = first.tau();
  const std::vector<WeightedKey> entries = first.entries();

  // Repeated queries — including advances that stay inside the current
  // epoch — return the identical sample without re-merging.
  for (double t : {6.0, 6.2, 6.9, 7.999}) {
    const Sample& again = wb.win->QueryAt(t);
    EXPECT_EQ(wb.win->merges_performed(), merges) << t;
    EXPECT_DOUBLE_EQ(again.tau(), tau) << t;
    ASSERT_EQ(again.entries().size(), entries.size()) << t;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(again.entries()[i].id, entries[i].id);
    }
  }

  // New items invalidate the cache...
  wb.win->AddTimed(7.999, {99999, 1.0, {1, 1}});
  (void)wb.win->QueryAt(7.999);
  EXPECT_EQ(wb.win->merges_performed(), merges + 1);
  // ...and so does crossing an epoch boundary.
  (void)wb.win->QueryAt(8.0);
  EXPECT_EQ(wb.win->merges_performed(), merges + 2);
}

TEST(Windowed, DirectAdvanceAcrossEpochsInvalidatesCachedMerge) {
  // Coverage gap found in audit: the cache tests above invalidate via new
  // items or via QueryAt's own implicit advance — a *direct* Advance()
  // crossing an epoch (the ingest-thread path) must also invalidate, or a
  // subsequent query would serve expired buckets from the stale cache.
  Rng data_rng(61);
  const auto items = RandomItems(3000, 1 << 12, &data_rng);
  const auto ts = SpreadTimestamps(items.size(), 6.0);
  SummarizerConfig cfg;
  cfg.s = 150.0;
  auto wb = MakeWindowed("windowed:8:4:obliv", cfg);
  for (std::size_t i = 0; i < items.size(); ++i) {
    wb.win->AddTimed(ts[i], items[i]);
  }

  const Sample& first = wb.win->QueryAt(6.0);
  const std::size_t merges = wb.win->merges_performed();
  const double total_before = first.EstimateTotal();
  EXPECT_GT(total_before, 0.0);

  // Direct advance across an epoch boundary, no new items: the next query
  // must re-merge (one bucket started expiring from the ring).
  wb.win->Advance(10.0);
  const Sample& after = wb.win->QueryAt(10.0);
  EXPECT_EQ(wb.win->merges_performed(), merges + 1);
  EXPECT_LT(after.EstimateTotal(), total_before);

  // Full expiry: an advance far past the horizon leaves an empty window,
  // not a stale cached one.
  wb.win->Advance(1000.0);
  const Sample& empty = wb.win->QueryAt(1000.0);
  EXPECT_EQ(wb.win->merges_performed(), merges + 2);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_DOUBLE_EQ(empty.EstimateTotal(), 0.0);
}

TEST(Windowed, PublishHookFiresPerRingAdvanceWithTheMergedWindow) {
  Rng data_rng(62);
  const auto items = RandomItems(2000, 1 << 12, &data_rng);
  const auto ts = SpreadTimestamps(items.size(), 12.0);
  SummarizerConfig cfg;
  cfg.s = 100.0;

  // Without a hook the ring merges lazily: streaming alone performs none.
  auto plain = MakeWindowed("windowed:8:4:obliv", cfg);
  for (std::size_t i = 0; i < items.size(); ++i) {
    plain.win->AddTimed(ts[i], items[i]);
  }
  EXPECT_EQ(plain.win->merges_performed(), 0u);

  // With a hook, every ring advance publishes the merged window eagerly.
  auto wb = MakeWindowed("windowed:8:4:obliv", cfg);
  std::size_t fires = 0;
  double last_total = -1.0;
  std::size_t last_size = 0;
  wb.win->SetPublishHook([&](const Sample& merged) {
    ++fires;
    last_total = merged.EstimateTotal();
    last_size = merged.size();
  });
  for (std::size_t i = 0; i < items.size(); ++i) {
    wb.win->AddTimed(ts[i], items[i]);
  }
  // Bucket width 2, timestamps in [0, 12): epochs 1..5 were crossed.
  EXPECT_EQ(fires, 5u);

  // An advance with no trailing items: the hook's view IS the cached
  // merge, so querying at the same clock returns it bit-identically
  // without re-merging.
  wb.win->Advance(12.0);
  EXPECT_EQ(fires, 6u);
  const std::size_t merges = wb.win->merges_performed();
  const Sample& q = wb.win->QueryAt(12.0);
  EXPECT_EQ(wb.win->merges_performed(), merges);
  EXPECT_EQ(q.EstimateTotal(), last_total);
  EXPECT_EQ(q.size(), last_size);

  // A null hook uninstalls: further advances go back to lazy merging.
  wb.win->SetPublishHook(nullptr);
  wb.win->Advance(14.0);
  EXPECT_EQ(fires, 6u);
}

TEST(Windowed, DeterministicForFixedSeedWindowAndBuckets) {
  Rng data_rng(55);
  const auto items = RandomItems(12000, 1 << 13, &data_rng);
  const auto ts = SpreadTimestamps(items.size(), 20.0);

  auto run = [&](std::uint64_t seed) {
    SummarizerConfig cfg;
    cfg.s = 400.0;
    cfg.seed = seed;
    auto wb = MakeWindowed("windowed:8:4:obliv", cfg);
    for (std::size_t i = 0; i < items.size(); ++i) {
      wb.win->AddTimed(ts[i], items[i]);
      // Interleave queries: cache rebuilds must not perturb determinism.
      if (i % 3000 == 0) (void)wb.win->QueryAt(ts[i]);
    }
    // Many epochs were sealed, so the recycling path was exercised.
    EXPECT_GT(wb.win->recycled_builders(), 0u);
    Sample out = wb.win->QueryAt(20.0);
    return out;
  };

  const Sample a = run(77);
  const Sample b = run(77);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_DOUBLE_EQ(a.tau(), b.tau());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entries()[i].id, b.entries()[i].id) << i;
    EXPECT_DOUBLE_EQ(a.entries()[i].weight, b.entries()[i].weight) << i;
  }

  // A different seed is a different (still unbiased) draw.
  const Sample c = run(78);
  bool same = a.size() == c.size() && a.tau() == c.tau();
  if (same) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      same = same && a.entries()[i].id == c.entries()[i].id;
    }
  }
  EXPECT_FALSE(same);
}

TEST(Windowed, RecycledBuilderMatchesFreshBuilder) {
  // The Reset capability contract: a spent-then-Reset builder must behave
  // exactly like a fresh one with the same seed. (The windowed ring relies
  // on this for bucket-rebuild determinism.)
  Rng data_rng(56);
  const auto items = RandomItems(6000, 1 << 12, &data_rng);
  const std::vector<WeightedKey> first_half(items.begin(),
                                            items.begin() + 3000);
  const std::vector<WeightedKey> second_half(items.begin() + 3000,
                                             items.end());

  for (const std::string& inner :
       {std::string("obliv"), std::string("order"), std::string("product"),
        std::string("nd"), std::string("aware")}) {
    SummarizerConfig cfg;
    cfg.s = 100.0;
    cfg.seed = 5;
    if (inner == "nd") cfg.structure = StructureSpec::Nd(2);

    auto recycled = MakeSummarizer(inner, cfg);
    recycled->AddBatch(first_half);
    (void)recycled->Finalize();
    ASSERT_TRUE(recycled->Reset(4242)) << inner;
    recycled->AddBatch(second_half);
    const auto ra = recycled->Finalize();

    SummarizerConfig fresh_cfg = cfg;
    fresh_cfg.seed = 4242;
    auto fresh = MakeSummarizer(inner, fresh_cfg);
    fresh->AddBatch(second_half);
    const auto rb = fresh->Finalize();

    const Sample& sa = ra->AsSample()->sample();
    const Sample& sb = rb->AsSample()->sample();
    ASSERT_EQ(sa.size(), sb.size()) << inner;
    EXPECT_DOUBLE_EQ(sa.tau(), sb.tau()) << inner;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa.entries()[i].id, sb.entries()[i].id) << inner << " " << i;
    }
  }

  // Methods without the capability report false from Reset.
  SummarizerConfig cfg;
  cfg.s = 100.0;
  auto sketch = MakeSummarizer("sketch", cfg);
  EXPECT_FALSE(sketch->Reset(1));
}

TEST(Windowed, ComposesWithShardedInEitherOrder) {
  Rng data_rng(57);
  const auto items = RandomItems(12000, 1 << 12, &data_rng);
  const Weight exact_total = ExactTotal(items);

  // Outer sharded, inner windowed: worker threads each own a (untimed)
  // window ring; totals survive the two merge layers exactly.
  {
    SummarizerConfig cfg;
    cfg.s = 300.0;
    auto builder = MakeSummarizer("sharded:2:windowed:60:4:obliv", cfg);
    builder->AddBatch(items);
    const auto summary = builder->Finalize();
    EXPECT_EQ(summary->Name(), "sharded:2:windowed:60:4:obliv");
    EXPECT_NEAR(summary->AsSample()->sample().EstimateTotal() / exact_total,
                1.0, 1e-9);
  }

  // Outer windowed, inner sharded: every bucket rebuild runs the
  // worker-pool ingest; timed expiry still applies.
  {
    const auto ts = SpreadTimestamps(items.size(), 16.0);
    SummarizerConfig cfg;
    cfg.s = 300.0;
    auto wb = MakeWindowed("windowed:8:4:sharded:2:obliv", cfg);
    for (std::size_t i = 0; i < items.size(); ++i) {
      wb.win->AddTimed(ts[i], items[i]);
    }
    const std::int64_t cur = wb.win->EpochOf(16.0);
    Weight live = 0.0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (wb.win->EpochOf(ts[i]) > cur - 4) live += items[i].weight;
    }
    const Sample& window = wb.win->QueryAt(16.0);
    EXPECT_NEAR(window.EstimateTotal() / live, 1.0, 1e-9);
    EXPECT_LT(window.EstimateTotal(), exact_total);  // expiry really happened
  }
}

TEST(Windowed, SpentBuilderThrows) {
  SummarizerConfig cfg;
  cfg.s = 10.0;
  auto wb = MakeWindowed("windowed:8:4:obliv", cfg);
  wb.win->AddTimed(0.5, {0, 1.0, {0, 0}});
  (void)wb.builder->Finalize();
  EXPECT_THROW(wb.builder->Add({1, 1.0, {1, 0}}), std::logic_error);
  EXPECT_THROW(wb.win->AddTimed(1.0, {1, 1.0, {1, 0}}), std::logic_error);
  EXPECT_THROW(wb.win->Advance(2.0), std::logic_error);
  EXPECT_THROW(wb.win->QueryAt(2.0), std::logic_error);
  EXPECT_THROW(wb.builder->Finalize(), std::logic_error);
}

TEST(Windowed, NonFiniteTimesRejected) {
  SummarizerConfig cfg;
  cfg.s = 10.0;
  auto wb = MakeWindowed("windowed:8:4:obliv", cfg);
  const double nan = std::nan("");
  EXPECT_THROW(wb.win->Advance(nan), std::invalid_argument);
  EXPECT_THROW(wb.win->AddTimed(nan, {0, 1.0, {0, 0}}),
               std::invalid_argument);
  // The clock is monotone: a past time is a no-op, not an error.
  wb.win->Advance(5.0);
  wb.win->Advance(1.0);
  EXPECT_DOUBLE_EQ(wb.win->now(), 5.0);
}

TEST(Windowed, AstronomicalTimestampsClampInsteadOfOverflowing) {
  // Nanosecond-scale epoch timestamps against a sub-second bucket span push
  // ts/span past the int64 range; the epoch must clamp (keeping the wrapper
  // functional in the extreme regime) rather than hit undefined behavior.
  SummarizerConfig cfg;
  cfg.s = 10.0;
  auto wb = MakeWindowed("windowed:1:4096:obliv", cfg);
  const double ns_epoch = 1.7e18;
  wb.win->AddTimed(ns_epoch, {0, 3.0, {1, 1}});
  EXPECT_DOUBLE_EQ(wb.win->QueryAt(ns_epoch).EstimateTotal(), 3.0);
  // All clamped times share the extreme epoch, so the item stays current.
  EXPECT_DOUBLE_EQ(wb.win->QueryAt(1.8e18).EstimateTotal(), 3.0);
  EXPECT_GT(wb.win->EpochOf(ns_epoch), 0);
  EXPECT_LT(wb.win->EpochOf(-ns_epoch), 0);
}

TEST(Windowed, AddCoordsUnsupported) {
  SummarizerConfig cfg;
  cfg.s = 50.0;
  cfg.structure = StructureSpec::Nd(2);
  auto builder = MakeSummarizer("windowed:8:4:nd", cfg);
  const Coord coords[2] = {1, 2};
  EXPECT_THROW(builder->AddCoords(0, coords, 2, 1.0), std::logic_error);
  builder->Add({0, 1.0, {1, 2}});  // the Add path works
  EXPECT_EQ(builder->Finalize()->SizeInElements(), 1u);
}

// --- Two-stack aggregation (front suffix aggregates, back running merge,
// flips) -------------------------------------------------------------------

void ExpectSameSample(const Sample& a, const Sample& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.tau(), b.tau());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entries()[i].id, b.entries()[i].id) << i;
    EXPECT_EQ(a.entries()[i].weight, b.entries()[i].weight) << i;
  }
}

TEST(WindowedStacks, RandomClockSchedulesKeepTotalsSizesAndRingRule) {
  // Clock jumps of 0..2B epochs drive every stack path: steady pushes and
  // pops, flips of a full back stack, flips that drop expired back samples,
  // and jumps that expire both stacks at once. After every step the window
  // must preserve the exact live weight, hold at most s entries, and count
  // exactly the epochs the ring rule keeps.
  const double s = 20.0;
  for (const int B : {1, 2, 3, 60}) {
    SummarizerConfig cfg;
    cfg.s = s;
    cfg.seed = 300 + static_cast<std::uint64_t>(B);
    // Span 1: epoch e covers [e, e+1).
    auto wb = MakeWindowed(
        "windowed:" + std::to_string(B) + ":" + std::to_string(B) + ":obliv",
        cfg);
    Rng rng(400 + static_cast<std::uint64_t>(B));
    struct Fed {
      std::int64_t epoch;
      Weight weight;
    };
    std::vector<Fed> fed;
    double now = 0.0;
    KeyId id = 0;
    for (int step = 0; step < 600; ++step) {
      // Mostly short hops (the flip cadence), sometimes a long jump.
      const std::uint64_t jump = rng.NextBounded(5) == 0
                                     ? rng.NextBounded(2 * B + 1)
                                     : rng.NextBounded(3);
      now += static_cast<double>(jump) + 0.5 * rng.NextDouble();
      const std::size_t n = rng.NextBounded(40);
      for (std::size_t i = 0; i < n; ++i) {
        const WeightedKey item{id++, rng.NextPareto(1.3),
                               {static_cast<Coord>(rng.NextBounded(1024)),
                                static_cast<Coord>(rng.NextBounded(1024))}};
        wb.win->AddTimed(now, item);
        fed.push_back({wb.win->EpochOf(now), item.weight});
      }
      const Sample& window = wb.win->QueryAt(now);
      const std::int64_t cur = wb.win->EpochOf(now);
      Weight live = 0.0;
      std::vector<std::int64_t> live_epochs;
      for (const Fed& f : fed) {
        if (f.epoch <= cur - B) continue;
        live += f.weight;
        if (live_epochs.empty() || live_epochs.back() != f.epoch) {
          live_epochs.push_back(f.epoch);
        }
      }
      ASSERT_NEAR(window.EstimateTotal(), live, 1e-9 * live)
          << "B=" << B << " step " << step;
      ASSERT_LE(window.size(), static_cast<std::size_t>(s))
          << "B=" << B << " step " << step;
      ASSERT_EQ(wb.win->live_buckets(), static_cast<int>(live_epochs.size()))
          << "B=" << B << " step " << step;
    }
  }
}

TEST(WindowedStacks, SixtyBucketWindowMatchesBatchBuildWithinHtTolerance) {
  // The B=60 counterpart of MatchesBatchBuildOverWindowWithinHtTolerance.
  // Timestamps run to 119.5 with span 1: the flip at epoch 60 folds epochs
  // 1..59 into the front, whose aggregates then expire one per crossing,
  // so at the query the whole live window (epochs 60..119) sits on the back
  // stack — a running merge 58 two-way merges deep, plus the partial bucket.
  Rng data_rng(58);
  const auto items = RandomItems(20000, 1 << 14, &data_rng);
  const double horizon = 119.5;
  const auto ts = SpreadTimestamps(items.size(), horizon);
  const int B = 60;

  SummarizerConfig probe_cfg;
  probe_cfg.s = 1000.0;
  auto probe = MakeWindowed("windowed:60:60:obliv", probe_cfg);
  const std::int64_t cur = probe.win->EpochOf(horizon);
  std::vector<WeightedKey> window_items;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (probe.win->EpochOf(ts[i]) > cur - B) window_items.push_back(items[i]);
  }
  ASSERT_GT(window_items.size(), items.size() / 3);
  ASSERT_LT(window_items.size(), items.size());

  // RandomItems come out sorted by x, so the live window (the later half
  // of the stream) is the upper half of x: the box takes half of it.
  const Box box{{0, 3 << 12}, {0, 1 << 14}};
  const Weight exact = ExactBox(window_items, box);
  ASSERT_GT(exact, 0.0);

  for (const std::string& inner :
       {std::string("obliv"), std::string("product"), std::string("aware")}) {
    double windowed_mean = 0.0, batch_mean = 0.0;
    const int seeds = 10;
    for (int t = 0; t < seeds; ++t) {
      SummarizerConfig cfg;
      cfg.s = 1000.0;
      cfg.seed = 1234 + static_cast<std::uint64_t>(t);
      auto wb = MakeWindowed("windowed:60:60:" + inner, cfg);
      for (std::size_t i = 0; i < items.size(); ++i) {
        wb.win->AddTimed(ts[i], items[i]);
      }
      EXPECT_EQ(wb.win->live_buckets(), B) << inner;
      windowed_mean += wb.win->QueryAt(horizon).EstimateBox(box);

      auto batch = MakeSummarizer(inner, cfg);
      batch->AddBatch(window_items);
      batch_mean += batch->Finalize()->EstimateBox(box);
    }
    windowed_mean /= seeds;
    batch_mean /= seeds;
    EXPECT_NEAR(windowed_mean / exact, 1.0, 0.03) << inner;
    EXPECT_NEAR(batch_mean / exact, 1.0, 0.03) << inner;
    EXPECT_NEAR(windowed_mean / batch_mean, 1.0, 0.05) << inner;
  }
}

/// Streams items over [0, horizon) into "windowed:16:8:obliv" with a
/// publish hook and returns every published sample; with `query_each`,
/// QueryAt runs after every item.
std::vector<Sample> PublishedSamples(const std::vector<WeightedKey>& items,
                                     double horizon, bool query_each) {
  SummarizerConfig cfg;
  cfg.s = 150.0;
  cfg.seed = 4711;
  auto wb = MakeWindowed("windowed:16:8:obliv", cfg);
  std::vector<Sample> published;
  wb.win->SetPublishHook(
      [&](const Sample& merged) { published.push_back(merged); });
  const auto ts = SpreadTimestamps(items.size(), horizon);
  for (std::size_t i = 0; i < items.size(); ++i) {
    wb.win->AddTimed(ts[i], items[i]);
    if (query_each) (void)wb.win->QueryAt(ts[i]);
  }
  wb.win->Advance(horizon + 1.0);
  return published;
}

TEST(WindowedStacks, QueriesNeverChangeLaterSamples) {
  // Queries build the partial bucket and merge the window, but never touch
  // the stacks: a run queried after every item publishes exactly what a
  // never-queried run publishes, through several flips (B=8, 40 epochs).
  Rng data_rng(59);
  const auto items = RandomItems(4000, 1 << 12, &data_rng);
  const std::vector<Sample> plain = PublishedSamples(items, 40.0, false);
  const std::vector<Sample> queried = PublishedSamples(items, 40.0, true);
  ASSERT_EQ(plain.size(), 20u);
  ASSERT_EQ(queried.size(), plain.size());
  for (std::size_t p = 0; p < plain.size(); ++p) {
    SCOPED_TRACE(p);
    ExpectSameSample(plain[p], queried[p]);
  }
}

TEST(WindowedStacks, MergeFaultDuringFlipPoisonsAndResetReproducesFresh) {
  // W=8, B=4, span 2, timestamps rising through [0, 16): the crossings into
  // epochs 2 and 3 each fold their new bucket into the back stack's running
  // merge (hits 1, 2), the crossing into epoch 4 does too (hit 3) and then
  // flips the back, expiring epoch 0 and folding epochs 3, 2, 1 — its first
  // two-way fold is hit 4.
  Rng data_rng(60);
  const auto items = RandomItems(4000, 1 << 12, &data_rng);
  const auto ts = SpreadTimestamps(items.size(), 16.0);
  SummarizerConfig cfg;
  cfg.s = 64.0;
  cfg.seed = 8080;
  cfg.faults = std::make_shared<FaultInjector>();
  cfg.faults->Configure("window.query.merge=fail@4");
  auto wb = MakeWindowed("windowed:8:4:obliv", cfg);

  std::size_t failed_at = items.size();
  for (std::size_t i = 0; i < items.size(); ++i) {
    try {
      wb.win->AddTimed(ts[i], items[i]);
    } catch (const FaultInjectionError&) {
      failed_at = i;
      break;
    }
  }
  ASSERT_LT(failed_at, items.size());
  EXPECT_EQ(wb.win->EpochOf(ts[failed_at]), 4);  // the flip crossing
  EXPECT_TRUE(wb.win->poisoned());
  EXPECT_THROW(wb.win->QueryAt(16.0), std::runtime_error);
  EXPECT_THROW(wb.builder->Finalize(), std::runtime_error);

  cfg.faults->Clear();
  const std::uint64_t recovery_seed = 9090;
  ASSERT_TRUE(wb.builder->Reset(recovery_seed));
  EXPECT_FALSE(wb.win->poisoned());

  SummarizerConfig fresh_cfg;
  fresh_cfg.s = cfg.s;
  fresh_cfg.seed = recovery_seed;
  auto fresh = MakeWindowed("windowed:8:4:obliv", fresh_cfg);
  for (std::size_t i = 0; i < items.size(); ++i) {
    wb.win->AddTimed(ts[i], items[i]);
    fresh.win->AddTimed(ts[i], items[i]);
    if (i % 500 == 0) {
      SCOPED_TRACE(i);
      ExpectSameSample(wb.win->QueryAt(ts[i]), fresh.win->QueryAt(ts[i]));
    }
  }
  ExpectSameSample(wb.win->QueryAt(16.0), fresh.win->QueryAt(16.0));
}

TEST(WindowedStacks, BudgetHalvingMidWindowResamplesOldAggregates) {
  // s=256, span 1, B=8. Each held sample is budgeted at s * 64 bytes = 16
  // KiB; an 80 KiB budget fits (back samples + back merge + new bucket) up
  // to the fourth seal and halves s at the fifth, when the back stack's raw
  // samples and running merge still hold 256 entries each. The window
  // merge must bring them down to the new s without losing total weight.
  Rng data_rng(61);
  const auto items = RandomItems(6000, 1 << 12, &data_rng);
  const auto ts = SpreadTimestamps(items.size(), 5.0);  // epochs 0..4
  SummarizerConfig cfg;
  cfg.s = 256.0;
  cfg.seed = 77;
  cfg.max_bytes = 80 * 1024;
  auto wb = MakeWindowed("windowed:8:8:obliv", cfg);
  for (std::size_t i = 0; i < items.size(); ++i) {
    wb.win->AddTimed(ts[i], items[i]);
  }
  EXPECT_EQ(wb.win->effective_s(), 256.0);
  EXPECT_EQ(wb.builder->Describe().degradations, 0u);
  wb.win->Advance(5.0);  // fifth seal: the back holds 4 samples + merge
  EXPECT_EQ(wb.win->effective_s(), 128.0);
  EXPECT_EQ(wb.builder->Describe().degradations, 1u);

  const Sample& window = wb.win->QueryAt(5.0);
  EXPECT_LE(window.size(), 128u);
  EXPECT_GT(window.size(), 0u);
  EXPECT_NEAR(window.EstimateTotal() / ExactTotal(items), 1.0, 1e-9);
}

}  // namespace
}  // namespace sas

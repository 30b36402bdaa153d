// QueryService: the lock-free serving tier. One ingest/publisher thread
// streams into a builder and republishes finalized snapshots; any number of
// reader threads answer queries against the latest ServingSnapshot without
// ever taking a lock, blocking the publisher, or seeing a torn snapshot.
//
//   QueryService svc;
//   // publisher thread:
//   svc.Publish(sample);                   // atomically replaces the view
//   // each reader thread:
//   QueryService::Reader reader(svc);      // registers an epoch slot once
//   {
//     SnapshotHandle snap = reader.Acquire();           // pin, no lock
//     Weight w = snap->sample().EstimateBox(box);
//   }                                      // handle drops -> unpin
//
// Publication protocol (docs/serving.md walks through the memory-ordering
// argument):
//
//   1. Build the new ServingSnapshot outside any reader-visible state — a
//      build failure (or an armed `serve.publish` fault) leaves the old
//      snapshot serving, untouched.
//   2. seq_cst-exchange the published pointer; tag the displaced snapshot
//      with the current epoch and push it on the retired list.
//   3. Advance the epoch domain, then reclaim every retired snapshot whose
//      tag is below the minimum epoch any reader still pins.
//
// Readers pin an epoch (core/epoch.h) before loading the pointer and unpin
// when the handle drops; a handle held across any number of republishes
// stays valid and bit-stable, because its snapshot cannot be reclaimed
// while the epoch it was loaded under is still pinned.
//
// The read path is lock-free end to end: Acquire is one epoch pin (two
// seq_cst accesses and a validation load) plus one atomic pointer load.
// The publisher side serializes Publish calls with a mutex — publishing is
// single-writer by contract, the mutex just makes misuse safe — and that
// mutex is never touched by readers. This is the only file outside
// src/serve/ infrastructure allowed to publish raw std::atomic pointers
// (sas-lint rule `atomic-publication` enforces the confinement).
//
// Fault sites: `serve.publish` (throwing — a failed publish aborts step 2
// before the swap, old snapshot keeps serving) and `serve.reclaim`
// (degrading — a fired rule skips one reclamation pass; the garbage stays
// pending and the next publish retries).
//
// Telemetry (when armed): sas.serve.publishes / reclaimed /
// reclaim_skipped counters, sas.serve.epoch + sas.serve.active_readers
// gauges, the sas.serve.publish_ns histogram. active_readers counts live
// Readers armed or not, so an arming toggle cannot skew it.

#ifndef SAS_SERVE_QUERY_SERVICE_H_
#define SAS_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/epoch.h"
#include "core/fault.h"
#include "core/sample.h"
#include "serve/snapshot.h"

namespace sas {

namespace telemetry {
class Counter;
class Gauge;
class Histogram;
}  // namespace telemetry

class QueryService;

/// RAII read-side pin over one published snapshot. Obtained from
/// QueryService::Reader; while alive, the snapshot it points at is
/// guaranteed not to be reclaimed — across any number of republishes.
/// Movable, not copyable; at most one live handle per Reader.
class SnapshotHandle {
 public:
  SnapshotHandle() = default;
  SnapshotHandle(SnapshotHandle&& other) noexcept;
  SnapshotHandle& operator=(SnapshotHandle&& other) noexcept;
  SnapshotHandle(const SnapshotHandle&) = delete;
  SnapshotHandle& operator=(const SnapshotHandle&) = delete;
  ~SnapshotHandle();

  /// True when a snapshot is held (TryAcquire before any publish yields an
  /// empty handle).
  explicit operator bool() const { return snap_ != nullptr; }

  const ServingSnapshot* get() const { return snap_; }
  const ServingSnapshot* operator->() const { return snap_; }
  const ServingSnapshot& operator*() const { return *snap_; }

  /// Drops the pin early (idempotent; the destructor calls it).
  void Release();

 private:
  friend class QueryService;
  SnapshotHandle(const ServingSnapshot* snap, EpochDomain* epochs, int slot,
                 bool* live_flag)
      : snap_(snap), epochs_(epochs), slot_(slot), live_flag_(live_flag) {}

  const ServingSnapshot* snap_ = nullptr;
  EpochDomain* epochs_ = nullptr;
  int slot_ = -1;
  bool* live_flag_ = nullptr;  // Reader's "a handle is live" latch
};

class QueryService {
 public:
  struct Options {
    /// Fault injector for the serve.* sites; null falls back to the global
    /// injector (the FaultPoint resolution rule).
    std::shared_ptr<FaultInjector> faults;
  };

  QueryService();  // default Options
  explicit QueryService(Options opts);
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Frees the published snapshot and all retired ones. Every Reader (and
  /// handle) must be destroyed first — the epoch domain cannot outlive its
  /// readers' pins.
  ~QueryService();

  /// Per-reader-thread registration: claims an epoch slot for the thread's
  /// lifetime (throws std::runtime_error past EpochDomain::kMaxReaders).
  /// One Reader per thread; a Reader must not outlive its QueryService.
  class Reader {
   public:
    explicit Reader(QueryService& svc);
    Reader(const Reader&) = delete;
    Reader& operator=(const Reader&) = delete;
    ~Reader();

    /// Pins the current epoch and returns a handle on the latest published
    /// snapshot. Lock-free; never blocks the publisher. Throws
    /// std::logic_error when nothing has been published yet, or when this
    /// Reader already holds a live handle (pins are single-depth — drop
    /// the old handle first).
    SnapshotHandle Acquire();

    /// Like Acquire, but an unpublished service yields an empty handle
    /// instead of throwing. Still throws on a doubled Acquire.
    SnapshotHandle TryAcquire();

    /// An empty QueryScratch. Kept only because perfbench/ (the end-to-end
    /// benchmark) passes it to ServingSnapshot::EstimateQuery, and
    /// perfbench/ changes only together with a benchmark re-baseline.
    QueryScratch& scratch() { return scratch_; }

   private:
    friend class QueryService;
    QueryService& svc_;
    int slot_ = -1;
    bool handle_live_ = false;
    QueryScratch scratch_;
  };

  /// Publishes a snapshot of `sample` (single publisher; concurrent calls
  /// are serialized by an internal writer-side mutex that readers never
  /// touch). Strong guarantee: on any throw — snapshot build failure or an
  /// armed `serve.publish` fault — the previously published snapshot keeps
  /// serving and no state is lost.
  void Publish(const Sample& sample);

  /// True once any snapshot has been published.
  bool has_snapshot() const {
    return current_.load(std::memory_order_acquire) != nullptr;
  }

  /// Successful publishes so far.
  std::uint64_t publishes() const {
    return publishes_count_.load(std::memory_order_acquire);
  }

  /// Retired snapshots actually freed / reclamation passes skipped by an
  /// armed `serve.reclaim` fault.
  std::uint64_t reclaimed() const {
    return reclaimed_count_.load(std::memory_order_acquire);
  }
  std::uint64_t reclaim_skipped() const {
    return reclaim_skipped_count_.load(std::memory_order_acquire);
  }

  /// Retired snapshots not yet freed (waiting on readers or on a skipped
  /// pass). Writer-side bookkeeping; takes the publish mutex.
  std::size_t retired_pending() const;

  /// The epoch domain's current global epoch (one bump per publish).
  std::uint64_t epoch() const { return epochs_.current_epoch(); }

  /// Readers currently inside a read-side critical section (diagnostic).
  int pinned_readers() const { return epochs_.PinnedReaders(); }

 private:
  struct Retired {
    const ServingSnapshot* snap = nullptr;
    std::uint64_t tag = 0;  // epoch at retirement; free when min pinned > tag
  };

  /// Frees every retired snapshot no pinned reader can still reference.
  /// Caller holds publish_mu_.
  void ReclaimLocked();

  Options opts_;
  EpochDomain epochs_;
  std::atomic<const ServingSnapshot*> current_{nullptr};

  // Writer-side state: the publish mutex serializes Publish/reclaim and
  // guards retired_; readers never acquire it.
  mutable std::mutex publish_mu_;
  std::vector<Retired> retired_;

  std::atomic<std::uint64_t> publishes_count_{0};
  std::atomic<std::uint64_t> reclaimed_count_{0};
  std::atomic<std::uint64_t> reclaim_skipped_count_{0};

  // Telemetry instruments (core/telemetry.h), resolved once at
  // construction.
  telemetry::Counter* publishes_ = nullptr;
  telemetry::Counter* reclaimed_ = nullptr;
  telemetry::Counter* reclaim_skipped_ = nullptr;
  telemetry::Gauge* epoch_gauge_ = nullptr;
  telemetry::Gauge* active_readers_ = nullptr;
  telemetry::Histogram* publish_ns_ = nullptr;
};

}  // namespace sas

#endif  // SAS_SERVE_QUERY_SERVICE_H_

// Shard-parallel ingest behind the registry: the composed key
// "sharded:<N>:<inner-key>" wraps N independent <inner-key> summarizers,
// hash-partitions the stream across them by key id, feeds each from its own
// worker thread, and VarOpt-merges the N shard samples (core/merge.h) into
// one summary at Finalize. Because it hides behind the uniform
// Add/AddBatch/Finalize surface, every mergeable sample-backed method gains
// a parallel backend with zero call-site changes:
//
//   auto builder = MakeSummarizer("sharded:4:obliv", cfg);
//   builder->AddBatch(items);                 // workers ingest in parallel
//   auto summary = builder->Finalize();       // shards merged to size s
//
// Ingest path: the caller thread only hashes ids and appends to per-shard
// accumulation buffers; full buffers are handed to the shard's bounded
// queue (double-buffered — drained buffers are recycled back to the
// producer, and a full queue applies back-pressure). Each worker drains its
// queue into the inner summarizer one buffer per AddBatch and finalizes
// its shard in parallel.
//
// Determinism: the partition is a seed-salted hash of the key id (the salt
// keeps nested wrappers' partitions independent), shard i's summarizer is
// seeded with ForkSeed(cfg.seed, i), and the merge RNG with
// ForkSeed(cfg.seed, N) — so a fixed (seed, N, input) triple reproduces the
// summary exactly, regardless of thread scheduling.
//
// The key grammar (N in [1, 64]), the lifecycle and the inner-builder
// factory are the shared ones of api/composed.h; this file is only the
// worker-pool engine. A failed worker poisons the builder: ingest throws at
// once, since the input already routed can no longer produce a complete
// summary, and Finalize reports every failed shard.

#ifndef SAS_API_SHARDED_H_
#define SAS_API_SHARDED_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/composed.h"

namespace sas {

namespace telemetry {
class Histogram;
}  // namespace telemetry

/// One failed shard, as reported by ShardedIngestError: the shard index and
/// the worker's error message (already prefixed with the shard index and
/// inner key).
struct ShardFailure {
  int shard = 0;
  std::string message;
};

/// What ShardedSummarizer::Finalize throws when workers failed: every
/// failed shard is listed (index + inner key + message), not just the first
/// one — under back-pressure several workers can die independently, and
/// retry logic needs to see all of them.
class ShardedIngestError : public std::runtime_error {
 public:
  ShardedIngestError(const std::string& key,
                     std::vector<ShardFailure> failures, int num_shards);

  const std::vector<ShardFailure>& failures() const { return failures_; }

 private:
  std::vector<ShardFailure> failures_;
};

/// The wrapper's partition policy: the shard (in [0, num_shards)) that key
/// `id` is routed to under config seed `seed`. The hash is salted with the
/// seed so that nested wrappers — whose inner seeds are forked from the
/// outer one — partition independently even when their shard counts share
/// a factor. Exposed so tests (and external routers) can pin the policy.
std::size_t ShardIndex(KeyId id, std::uint64_t seed, int num_shards);

/// The wrapper itself. Construct through MakeSummarizer; exposed for tests.
class ShardedSummarizer final : public WrapperSummarizer {
 public:
  /// Builds the N inner builders and spawns one worker thread per shard,
  /// returning once every worker is running, so the first batch meets a live
  /// pool rather than racing the threads' start-up. Throws
  /// std::invalid_argument if the inner method is unknown, its config
  /// invalid, or it is not Mergeable.
  ShardedSummarizer(const ComposedKey& key, const SummarizerConfig& cfg);
  ~ShardedSummarizer() override;

  /// Routes the admitted records of the batch to their shards' buffers:
  /// the caller-side work is a hash and an append per item, and the heavy
  /// lifting happens on the workers. The lifecycle guard of api/composed.h
  /// runs before the batch and after it; a buffer hand-off that finds a
  /// worker dead stops the batch there, counting only the records routed
  /// so far, and throws.
  void AddBatch(std::span<const WeightedKey> items) override;

  /// Routes one d-dimensional point: hash-routes on the caller's id like
  /// AddBatch and replays the point into the shard's builder via its AddCoords,
  /// so a sampled point carries the id its caller gave it, as it would in
  /// an unsharded "nd" builder. Inner methods without coordinate support
  /// throw on the worker thread; Finalize rethrows.
  void AddCoords(KeyId id, const Coord* coords, int dims, Weight w) override;

  /// Flushes, joins the workers, finalizes every shard, and merges the
  /// shard samples into one of (expected) size cfg.s. If any workers
  /// failed, throws one ShardedIngestError listing every failed shard
  /// (index, inner key, message), on every call until Reset.
  std::unique_ptr<RangeSummary> Finalize() override;

  /// The merged output is itself a VarOpt sample, so sharded summarizers
  /// nest ("sharded:2:sharded:2:obliv" type compositions).
  bool Mergeable() const override { return true; }

  /// Full recovery, including from the poisoned and finalized states:
  /// joins any workers, resets every inner builder under ForkSeed(seed, i),
  /// clears errors/results/counters, and respawns the worker pool (waiting,
  /// as the constructor does, until every worker is running). After a
  /// successful Reset the builder is bit-identical to a freshly constructed
  /// one with cfg.seed = seed. Returns false (leaving the builder spent)
  /// when the inner method is not recyclable.
  bool Reset(std::uint64_t seed) override;

  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct Shard;
  struct Batch;

  Shard& ShardOf(KeyId id);
  /// Routes a prefix of `run`, stopping after a hand-off that finds a
  /// worker dead; returns the records routed (AdmitBatch's sink).
  std::size_t Route(std::span<const WeightedKey> run);
  void FlushPending(Shard& sh);
  void Enqueue(Shard& sh, Batch batch);
  void WorkerLoop(Shard* sh);
  void RecordWorkerError(Shard* sh, const std::string& what);
  void SpawnWorkers();
  void CloseAndJoin();

  std::uint64_t salt_ = 0;  // partition-hash salt derived from cfg.seed
  std::vector<std::unique_ptr<Shard>> shards_;
  bool joined_ = false;
  std::uint64_t degrade_steps_ = 0;  // max_bytes halvings of the inner s
  // Start latch: each worker bumps it on entering WorkerLoop, and
  // SpawnWorkers waits until all of the pool has (see SpawnWorkers).
  std::atomic<int> workers_started_{0};

  // Telemetry instruments (core/telemetry.h), resolved once at
  // construction (registry pointers are process-stable). Per-shard
  // instruments live on the Shard structs.
  telemetry::Histogram* backpressure_wait_ns_ = nullptr;
  telemetry::Histogram* merge_ns_ = nullptr;
};

}  // namespace sas

#endif  // SAS_API_SHARDED_H_

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
// queue with the inner summarizer's batched AddBatch fast path and
// finalizes its shard in parallel.
//
// Determinism: the partition is a seed-salted hash of the key id (the salt
// keeps nested wrappers' partitions independent), shard i's summarizer is
// seeded with ForkSeed(cfg.seed, i), and the merge RNG with
// ForkSeed(cfg.seed, N) — so a fixed (seed, N, input) triple reproduces the
// summary exactly, regardless of thread scheduling.

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

#include "api/summarizer.h"

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

/// Parsed form of a composed "sharded:<N>:<inner-key>" key.
struct ShardedKeySpec {
  int shards = 0;
  std::string inner;
};

/// True when `key` starts with the sharded prefix (it may still be
/// malformed; ParseShardedKey reports why).
bool IsShardedKey(const std::string& key);

/// Parses "sharded:<N>:<inner-key>". Throws std::invalid_argument with a
/// specific reason for malformed keys: missing/non-numeric/out-of-range
/// shard count (valid range [1, 64]) or an empty inner key. Does not check
/// that the inner key is registered — MakeSummarizer does.
ShardedKeySpec ParseShardedKey(const std::string& key);

/// The wrapper's partition policy: the shard (in [0, num_shards)) that key
/// `id` is routed to under config seed `seed`. The hash is salted with the
/// seed so that nested wrappers — whose inner seeds are forked from the
/// outer one — partition independently even when their shard counts share
/// a factor. Exposed so tests (and external routers) can pin the policy.
std::size_t ShardIndex(KeyId id, std::uint64_t seed, int num_shards);

/// Factory used by MakeSummarizer for sharded keys: parses the key, builds
/// the N inner summarizers (validating the inner config), and rejects
/// non-mergeable inner methods with std::invalid_argument.
std::unique_ptr<Summarizer> MakeShardedSummarizer(const std::string& key,
                                                  const SummarizerConfig& cfg);

/// The wrapper itself. Construct through MakeSummarizer; exposed for tests.
class ShardedSummarizer : public Summarizer {
 public:
  /// `key` is the composed key reported by the finalized summary's Name().
  /// Spawns one worker thread per shard and returns once every worker is
  /// running, so the first Add meets a live pool rather than racing the
  /// threads' start-up. Throws std::invalid_argument if the inner method
  /// is unknown, its config invalid, or it is not Mergeable.
  ShardedSummarizer(std::string key, const ShardedKeySpec& spec,
                    const SummarizerConfig& cfg);
  ~ShardedSummarizer() override;

  /// Routes the item to its shard's buffer (throws std::logic_error once
  /// the builder is finalized/spent, std::runtime_error once it is
  /// poisoned). The caller-side work is just the hash and a buffer append;
  /// the heavy lifting happens on the workers.
  void Add(const WeightedKey& item) override;

  /// Routes a whole batch in one pass: one health check up front and one
  /// after each buffer hand-off (so a failed worker still stops the
  /// producer at the next hand-off), one bulk IngestStats bump, then a
  /// hash and an append per item. A batch holding any non-finite or
  /// negative weight falls back to the per-item Add loop, so strict and
  /// quarantine ingest behave exactly as they do item by item. Routing is
  /// the same ShardIndex partition as Add, so the summary is bit-identical
  /// to adding the items one at a time.
  void AddBatch(std::span<const WeightedKey> items) override;

  /// Routes one d-dimensional point. AddCoords assigns the point an id
  /// from a wrapper-global insertion counter (so ids are unique across
  /// shards, exactly as an unsharded "nd" builder would number the whole
  /// stream) and forwards to AddCoordsKeyed, which hash-routes on the id
  /// like Add and replays into the shard's builder via its AddCoordsKeyed.
  /// Inner methods without coordinate support throw on the worker thread;
  /// Finalize rethrows.
  void AddCoords(const Coord* coords, int dims, Weight w) override;
  void AddCoordsKeyed(KeyId id, const Coord* coords, int dims,
                      Weight w) override;

  /// Flushes, joins the workers, finalizes every shard, and merges the
  /// shard samples into one of (expected) size cfg.s. If any workers
  /// failed, throws one ShardedIngestError listing every failed shard
  /// (index, inner key, message).
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

  /// True once any worker has failed: Add/AddCoords throw immediately (the
  /// already-ingested input can no longer produce a complete summary);
  /// Finalize() reports the failures; Reset(seed) recovers.
  bool poisoned() const {
    return poisoned_.load(std::memory_order_acquire);
  }

 private:
  struct Shard;
  struct Batch;

  Shard& ShardOf(KeyId id);
  void RequireHealthy(const char* call) const;
  void FlushPending(Shard& sh);
  void Enqueue(Shard& sh, Batch batch);
  void WorkerLoop(Shard* sh);
  void RecordWorkerError(Shard* sh, const std::string& what);
  void SpawnWorkers();
  void CloseAndJoin();

  std::string key_;
  std::string inner_key_;   // inner method key, for error messages
  std::uint64_t salt_ = 0;  // partition-hash salt derived from cfg.seed
  std::vector<std::unique_ptr<Shard>> shards_;
  KeyId next_coord_id_ = 0;  // global ids handed out by AddCoords
  bool joined_ = false;
  bool finalized_ = false;  // a summary was produced; Finalize re-entry throws
  std::uint32_t degrade_steps_ = 0;  // max_bytes halvings of the inner s
  std::atomic<bool> poisoned_{false};
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

#include "api/sharded.h"

#include <cstddef>
#include <exception>
#include <stdexcept>
#include <utility>

#include "api/summary.h"
#include "core/fault.h"
#include "core/merge.h"
#include "core/random.h"
#include "core/telemetry.h"

namespace sas {

namespace {

/// Items accumulated on the caller thread before hand-off to a worker.
constexpr std::size_t kBatchSize = 4096;
/// Bounded queue depth per shard; a full queue back-pressures the producer.
constexpr std::size_t kMaxQueueDepth = 4;

constexpr std::uint64_t kPartitionSaltTag = 0x5A5DED5A17E1F00DULL;

std::string BuildShardedErrorMessage(
    const std::string& key, const std::vector<ShardFailure>& failures,
    int num_shards) {
  std::string msg = "MakeSummarizer(\"" + key + "\"): ingest failed in " +
                    std::to_string(failures.size()) + " of " +
                    std::to_string(num_shards) + " shard(s): ";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) msg += "; ";
    msg += "[" + failures[i].message + "]";
  }
  return msg;
}

}  // namespace

ShardedIngestError::ShardedIngestError(const std::string& key,
                                       std::vector<ShardFailure> failures,
                                       int num_shards)
    : std::runtime_error(BuildShardedErrorMessage(key, failures, num_shards)),
      failures_(std::move(failures)) {}

namespace {
std::size_t IndexWithSalt(KeyId id, std::uint64_t salt,
                          std::uint64_t num_shards) {
  return Mix64(static_cast<std::uint64_t>(id) ^ salt) % num_shards;
}
}  // namespace

std::size_t ShardIndex(KeyId id, std::uint64_t seed, int num_shards) {
  return IndexWithSalt(id, Mix64(seed ^ kPartitionSaltTag),
                       static_cast<std::uint64_t>(num_shards));
}

// ---------------------------------------------------------------------------

/// One hand-off unit: 2-D items plus keyed d-dimensional points. The worker
/// feeds a batch's items before its points, so each surface keeps its
/// per-shard arrival order but the two do not interleave; no inner method
/// takes both (the nd builder rejects mixing them). Points are flat and
/// aligned: point j occupies coords[j*dims .. j*dims+dims) with id
/// coord_ids[j] and weight coord_weights[j].
struct ShardedSummarizer::Batch {
  std::vector<WeightedKey> items;
  std::vector<Coord> coords;
  std::vector<KeyId> coord_ids;
  std::vector<Weight> coord_weights;
  int dims = 0;

  std::size_t size() const { return items.size() + coord_ids.size(); }
  bool empty() const { return items.empty() && coord_ids.empty(); }
  void clear() {
    items.clear();
    coords.clear();
    coord_ids.clear();
    coord_weights.clear();
    dims = 0;
  }
};

struct ShardedSummarizer::Shard {
  int index = 0;
  std::unique_ptr<Summarizer> inner;

  // Producer side: accumulation buffer filled by the caller thread.
  Batch pending;

  // Hand-off queue (guarded by mu). `spare` recycles drained buffers back
  // to the producer so steady-state ingest allocates nothing.
  std::mutex mu;
  std::condition_variable can_push;
  std::condition_variable can_pop;
  std::deque<Batch> queue;
  std::vector<Batch> spare;
  bool closed = false;
  std::exception_ptr error;
  std::string error_what;  // shard-index-prefixed message for aggregation

  // Worker side.
  std::thread worker;
  std::unique_ptr<RangeSummary> result;

  // Telemetry instruments for this shard lane (resolved at construction;
  // updates are guarded by telemetry::Enabled()).
  telemetry::Gauge* queue_depth = nullptr;
  telemetry::Counter* batches = nullptr;
  telemetry::Counter* items = nullptr;
};

ShardedSummarizer::ShardedSummarizer(const ComposedKey& key,
                                     const SummarizerConfig& cfg)
    : WrapperSummarizer(key, cfg) {
  const int num_shards = static_cast<int>(key.fields[0]);
  // Each worker retains a sample of expected size inner s.
  const double inner_s =
      FitToBudget(cfg.s, static_cast<std::size_t>(num_shards));
  degrade_steps_ = stats_.degradations;
  // Cached salt of the ShardIndex partition hash (see its doc for why the
  // partition is seed-salted).
  salt_ = Mix64(cfg.seed ^ kPartitionSaltTag);
  // Cold registry lookups; the hot paths only touch the cached pointers.
  backpressure_wait_ns_ =
      telemetry::GetHistogram("sas.shard.backpressure_wait_ns");
  merge_ns_ = telemetry::GetHistogram("sas.shard.merge_ns");
  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    auto sh = std::make_unique<Shard>();
    sh->index = i;
    const std::string lane = std::to_string(i);
    sh->queue_depth = telemetry::GetGauge("sas.shard.queue_depth." + lane);
    sh->batches = telemetry::GetCounter("sas.shard.batches." + lane);
    sh->items = telemetry::GetCounter("sas.shard.items." + lane);
    sh->inner = MakeInner(ForkSeed(cfg.seed, static_cast<std::uint64_t>(i)),
                          inner_s, cfg.max_bytes);
    sh->pending.items.reserve(kBatchSize);
    shards_.push_back(std::move(sh));
  }
  SpawnWorkers();
}

ShardedSummarizer::~ShardedSummarizer() { CloseAndJoin(); }

void ShardedSummarizer::SpawnWorkers() {
  workers_started_.store(0, std::memory_order_relaxed);
  try {
    for (auto& sh : shards_) {
      sh->worker = std::thread(&ShardedSummarizer::WorkerLoop, this,
                               sh.get());
    }
    // sas-lint: allow(catch-all): thread spawn can fail with non-standard
    // exceptions; workers already running must be joined before the Shard
    // structs are destroyed, then the original error propagates.
  } catch (...) {
    // Thread creation failed partway (e.g. RLIMIT_NPROC): close and join
    // the workers already running before the Shard structs are destroyed.
    // No start-latch wait here: the workers that never started would
    // never bump it.
    CloseAndJoin();
    throw;
  }
  // Start latch: return only once every worker is inside WorkerLoop, so a
  // caller's first batches (and its clock) never absorb thread start-up.
  const int n = static_cast<int>(shards_.size());
  for (int started = workers_started_.load(std::memory_order_acquire);
       started < n;
       started = workers_started_.load(std::memory_order_acquire)) {
    workers_started_.wait(started, std::memory_order_acquire);
  }
}

ShardedSummarizer::Shard& ShardedSummarizer::ShardOf(KeyId id) {
  return *shards_[IndexWithSalt(id, salt_, shards_.size())];
}

void ShardedSummarizer::AddBatch(std::span<const WeightedKey> items) {
  RequireLive("AddBatch");
  AdmitBatch(items, [this](std::span<const WeightedKey> run) {
    // A record-by-record batch meets the guard before each record, so one
    // hand-off that finds a worker dead stops the records behind it.
    RequireLive("AddBatch");
    return Route(run);
  });
  RequireLive("AddBatch");
}

std::size_t ShardedSummarizer::Route(std::span<const WeightedKey> run) {
  for (std::size_t i = 0; i < run.size(); ++i) {
    Shard& sh = ShardOf(run[i].id);
    sh.pending.items.push_back(run[i]);
    if (sh.pending.size() >= kBatchSize) {
      FlushPending(sh);
      if (poisoned()) return i + 1;
    }
  }
  return run.size();
}

void ShardedSummarizer::AddCoords(KeyId id, const Coord* coords, int dims,
                                  Weight w) {
  RequireLive("AddCoords");
  if (!AdmitWeight(w)) return;
  Shard& sh = ShardOf(id);
  // The flat coord layout needs one dims per batch; a (pathological) dims
  // change mid-stream just cuts the current batch short. The inner builder
  // is the one that validates dims against the structure.
  if (sh.pending.dims != 0 && sh.pending.dims != dims) FlushPending(sh);
  sh.pending.dims = dims;
  sh.pending.coord_ids.push_back(id);
  sh.pending.coord_weights.push_back(w);
  sh.pending.coords.insert(sh.pending.coords.end(), coords, coords + dims);
  if (sh.pending.size() >= kBatchSize) FlushPending(sh);
}

void ShardedSummarizer::FlushPending(Shard& sh) {
  if (sh.pending.empty()) return;
  Batch next;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    if (!sh.spare.empty()) {
      next = std::move(sh.spare.back());
      sh.spare.pop_back();
    }
  }
  next.items.reserve(kBatchSize);
  Enqueue(sh, std::exchange(sh.pending, std::move(next)));
}

void ShardedSummarizer::Enqueue(Shard& sh, Batch batch) {
  // shard.queue.push fires only on producer-path pushes, not on the final
  // flush inside CloseAndJoin — a throw there would escape Finalize (or
  // the destructor) after teardown already began.
  if (!joined_) {
    FaultPoint(cfg_.faults.get(), fault_sites::kShardQueuePush, sh.index);
  }
  std::unique_lock<std::mutex> lock(sh.mu);
  const auto can_proceed = [&] {
    return sh.queue.size() < kMaxQueueDepth || sh.error != nullptr ||
           sh.closed;
  };
  // Back-pressure visibility: when the producer actually blocks on a full
  // queue, the wall time spent waiting lands in the wait histogram —
  // unblocked pushes record nothing, so the metric measures stalls only.
  if (!can_proceed() && telemetry::Enabled()) {
    const std::uint64_t t0 = telemetry::NowNs();
    sh.can_push.wait(lock, can_proceed);
    backpressure_wait_ns_->Observe(telemetry::NowNs() - t0);
  } else {
    sh.can_push.wait(lock, can_proceed);
  }
  // A dead worker (error) or a closed queue drains nothing; drop the batch
  // rather than blocking forever — Finalize rethrows worker errors.
  if (sh.error != nullptr || sh.closed) return;
  sh.queue.push_back(std::move(batch));
  if (telemetry::Enabled()) {
    sh.queue_depth->Set(static_cast<std::int64_t>(sh.queue.size()));
  }
  sh.can_pop.notify_one();
}

void ShardedSummarizer::WorkerLoop(Shard* sh) {
  workers_started_.fetch_add(1, std::memory_order_release);
  workers_started_.notify_all();
  try {
    for (;;) {
      Batch batch;
      {
        std::unique_lock<std::mutex> lock(sh->mu);
        sh->can_pop.wait(lock,
                         [&] { return !sh->queue.empty() || sh->closed; });
        if (sh->queue.empty()) break;  // closed and fully drained
        batch = std::move(sh->queue.front());
        sh->queue.pop_front();
        if (telemetry::Enabled()) {
          sh->queue_depth->Set(static_cast<std::int64_t>(sh->queue.size()));
        }
        sh->can_push.notify_one();
      }
      FaultPoint(cfg_.faults.get(), fault_sites::kShardWorkerBatch,
                 sh->index);
      if (telemetry::Enabled()) {
        sh->batches->Inc();
        sh->items->Inc(batch.size());
      }
      if (!batch.items.empty()) sh->inner->AddBatch(batch.items);
      const std::size_t ud = static_cast<std::size_t>(batch.dims);
      for (std::size_t j = 0; j < batch.coord_ids.size(); ++j) {
        sh->inner->AddCoords(batch.coord_ids[j],
                             batch.coords.data() + j * ud, batch.dims,
                             batch.coord_weights[j]);
      }
      batch.clear();
      {
        std::lock_guard<std::mutex> lock(sh->mu);
        if (sh->spare.size() < kMaxQueueDepth) {
          sh->spare.push_back(std::move(batch));
        }
      }
    }
    FaultPoint(cfg_.faults.get(), fault_sites::kShardWorkerFinalize,
               sh->index);
    sh->result = sh->inner->Finalize();
  } catch (const std::exception& e) {
    RecordWorkerError(sh, e.what());
    // sas-lint: allow(catch-all): worker threads must never let an
    // exception escape (std::terminate); non-standard exceptions are
    // recorded with a placeholder message and reported from Finalize.
  } catch (...) {
    RecordWorkerError(sh, "non-standard exception");
  }
}

void ShardedSummarizer::RecordWorkerError(Shard* sh,
                                          const std::string& what) {
  // Poison first (release pairs with the acquire in the lifecycle guard) so
  // a producer seeing an unblocked queue also sees the failure.
  Poison();
  std::lock_guard<std::mutex> lock(sh->mu);
  sh->error = std::current_exception();
  sh->error_what = "shard " + std::to_string(sh->index) + " (inner \"" +
                   inner_key_ + "\"): " + what;
  // A dead worker drains nothing more: drop queued batches and unblock a
  // producer waiting on back-pressure (Enqueue rechecks error and bails).
  sh->queue.clear();
  sh->can_push.notify_all();
}

void ShardedSummarizer::CloseAndJoin() {
  if (joined_) return;
  joined_ = true;
  for (auto& sh : shards_) FlushPending(*sh);
  for (auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    sh->closed = true;
    sh->can_pop.notify_one();
  }
  for (auto& sh : shards_) {
    if (sh->worker.joinable()) sh->worker.join();
  }
}

std::unique_ptr<RangeSummary> ShardedSummarizer::Finalize() {
  // Re-entry guard: a successful Finalize moves the shard samples into the
  // merge, so a second call would silently merge moved-from (empty) shards.
  // A *failed* Finalize (poisoned builder) stays callable — its contract is
  // to report the full failure list on every call until Reset.
  if (finalized()) ThrowNotLive("Finalize");
  CloseAndJoin();
  std::vector<ShardFailure> failures;
  for (auto& sh : shards_) {
    if (sh->error != nullptr) {
      failures.push_back({sh->index, sh->error_what});
    }
  }
  if (!failures.empty()) {
    throw ShardedIngestError(key_, std::move(failures), num_shards());
  }
  // The workers are joined, so the builder is spent whatever happens below.
  MarkFinalized();

  std::vector<Sample> parts;
  parts.reserve(shards_.size());
  for (auto& sh : shards_) {
    // We own the result: move the sample, not copy it.
    parts.push_back(InnerSample(*sh->result).TakeSample());
  }

  Rng merge_rng(ForkSeed(cfg_.seed, shards_.size()));
  telemetry::Span merge_span("shard.merge", merge_ns_);
  Sample merged =
      MergeAllSamples(parts, static_cast<std::size_t>(cfg_.s), &merge_rng);
  return std::make_unique<SampleSummary>(key_, std::move(merged));
}

bool ShardedSummarizer::Reset(std::uint64_t seed) {
  CloseAndJoin();
  // All-or-nothing probe: shard inners are instances of one method, so the
  // first refusal means none of them recycle — bail before touching state
  // (the builder stays spent, as after any Finalize).
  for (auto& sh : shards_) {
    if (!sh->inner->Reset(ForkSeed(seed, static_cast<std::uint64_t>(
                                             sh->index)))) {
      return Refuse();
    }
  }
  for (auto& sh : shards_) {
    sh->pending.clear();
    sh->queue.clear();
    sh->closed = false;
    sh->error = nullptr;
    sh->error_what.clear();
    sh->result.reset();
  }
  salt_ = Mix64(seed ^ kPartitionSaltTag);
  joined_ = false;
  Restart(seed);
  stats_.degradations = degrade_steps_;
  SpawnWorkers();
  return true;
}

}  // namespace sas

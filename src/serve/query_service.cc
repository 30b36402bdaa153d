#include "serve/query_service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/telemetry.h"

namespace sas {

// --- SnapshotHandle ----------------------------------------------------------

SnapshotHandle::SnapshotHandle(SnapshotHandle&& other) noexcept
    : snap_(std::exchange(other.snap_, nullptr)),
      epochs_(std::exchange(other.epochs_, nullptr)),
      slot_(std::exchange(other.slot_, -1)),
      live_flag_(std::exchange(other.live_flag_, nullptr)) {}

SnapshotHandle& SnapshotHandle::operator=(SnapshotHandle&& other) noexcept {
  if (this != &other) {
    Release();
    snap_ = std::exchange(other.snap_, nullptr);
    epochs_ = std::exchange(other.epochs_, nullptr);
    slot_ = std::exchange(other.slot_, -1);
    live_flag_ = std::exchange(other.live_flag_, nullptr);
  }
  return *this;
}

SnapshotHandle::~SnapshotHandle() { Release(); }

void SnapshotHandle::Release() {
  if (epochs_ != nullptr && slot_ >= 0) {
    epochs_->Unpin(slot_);
    if (live_flag_ != nullptr) *live_flag_ = false;
  }
  snap_ = nullptr;
  epochs_ = nullptr;
  slot_ = -1;
  live_flag_ = nullptr;
}

// --- QueryService::Reader ----------------------------------------------------

QueryService::Reader::Reader(QueryService& svc) : svc_(svc) {
  slot_ = svc_.epochs_.RegisterReader();
  svc_.active_readers_->Add(1);
}

QueryService::Reader::~Reader() {
  svc_.epochs_.UnregisterReader(slot_);
  svc_.active_readers_->Sub(1);
}

SnapshotHandle QueryService::Reader::TryAcquire() {
  if (handle_live_) {
    throw std::logic_error(
        "QueryService::Reader: Acquire with a live handle (pins are "
        "single-depth; drop the previous SnapshotHandle first)");
  }
  // Pin first, then load: any snapshot displaced after the pin is tagged
  // with an epoch >= ours, so it cannot be reclaimed under our feet.
  svc_.epochs_.Pin(slot_);
  const ServingSnapshot* snap =
      svc_.current_.load(std::memory_order_seq_cst);
  if (snap == nullptr) {
    svc_.epochs_.Unpin(slot_);
    return SnapshotHandle{};
  }
  handle_live_ = true;
  return SnapshotHandle(snap, &svc_.epochs_, slot_, &handle_live_);
}

SnapshotHandle QueryService::Reader::Acquire() {
  SnapshotHandle handle = TryAcquire();
  if (!handle) {
    throw std::logic_error(
        "QueryService: no snapshot published yet (publish — e.g. Finalize "
        "the serve-wrapped builder — before querying)");
  }
  return handle;
}

// --- QueryService ------------------------------------------------------------

QueryService::QueryService() : QueryService(Options{}) {}

QueryService::QueryService(Options opts)
    : opts_(std::move(opts)),
      publishes_(telemetry::GetCounter("sas.serve.publishes")),
      reclaimed_(telemetry::GetCounter("sas.serve.reclaimed")),
      reclaim_skipped_(telemetry::GetCounter("sas.serve.reclaim_skipped")),
      epoch_gauge_(telemetry::GetGauge("sas.serve.epoch")),
      active_readers_(telemetry::GetGauge("sas.serve.active_readers")),
      publish_ns_(telemetry::GetHistogram("sas.serve.publish_ns")) {}

QueryService::~QueryService() {
  // The Reader contract guarantees no pins remain; everything is writer-
  // owned garbage now.
  delete current_.exchange(nullptr, std::memory_order_seq_cst);
  for (const Retired& r : retired_) delete r.snap;
}

void QueryService::Publish(const Sample& sample) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  telemetry::Span span("serve.publish", publish_ns_);

  // Step 1: build off to the side. A throw here (allocation, or the armed
  // serve.publish fault below) leaves current_ untouched — the previous
  // snapshot keeps serving.
  auto built = std::make_unique<ServingSnapshot>(sample);
  FaultPoint(opts_.faults.get(), fault_sites::kServePublish,
             static_cast<std::int64_t>(
                 publishes_count_.load(std::memory_order_relaxed)));

  // Step 2: swap the published pointer and tag the displaced snapshot with
  // the pre-advance epoch — any reader that could have loaded it pinned an
  // epoch <= this tag.
  const ServingSnapshot* old =
      current_.exchange(built.release(), std::memory_order_seq_cst);
  const std::uint64_t tag = epochs_.current_epoch();
  if (old != nullptr) retired_.push_back({old, tag});

  // Step 3: advance, then collect whatever no reader can reference.
  const std::uint64_t now_epoch = epochs_.Advance();
  publishes_count_.fetch_add(1, std::memory_order_acq_rel);
  if (telemetry::Enabled()) {
    publishes_->Inc();
    epoch_gauge_->Set(static_cast<std::int64_t>(now_epoch));
  }
  ReclaimLocked();
}

void QueryService::ReclaimLocked() {
  if (retired_.empty()) return;
  // Degrading fault site: a fired serve.reclaim rule skips this pass. The
  // retired snapshots stay pending (memory, not correctness) and the next
  // publish retries — reclamation failure must never fail a publish.
  FaultInjector& fi =
      opts_.faults != nullptr ? *opts_.faults : FaultInjector::Global();
  if (fi.armed() && fi.Poll(fault_sites::kServeReclaim,
                            static_cast<std::int64_t>(retired_.size()))) {
    reclaim_skipped_count_.fetch_add(1, std::memory_order_acq_rel);
    if (telemetry::Enabled()) reclaim_skipped_->Inc();
    return;
  }
  const std::uint64_t min_pinned = epochs_.MinActiveEpoch();
  auto it = retired_.begin();
  std::uint64_t freed = 0;
  while (it != retired_.end() && it->tag < min_pinned) {
    delete it->snap;
    ++it;
    ++freed;
  }
  retired_.erase(retired_.begin(), it);
  if (freed > 0) {
    reclaimed_count_.fetch_add(freed, std::memory_order_acq_rel);
    if (telemetry::Enabled()) reclaimed_->Inc(freed);
  }
}

std::size_t QueryService::retired_pending() const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  return retired_.size();
}

}  // namespace sas

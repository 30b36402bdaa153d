// The serving capability behind the registry: the composed key
// "serve:<inner-key>" wraps any sample-backed registered method (including
// the sharded: and windowed: wrappers) in a QueryService. Finalize
// publishes the finalized sample as an immutable ServingSnapshot; when the
// inner method is windowed, every ring advance republishes the merged
// window too — so reader threads keep answering against a fresh,
// consistent view while one ingest thread streams:
//
//   auto builder = MakeSummarizer("serve:windowed:3600:60:obliv", cfg);
//   auto service = builder->AsServable()->service();  // shared_ptr: readers
//                                                     // outlive the builder
//   std::thread reader([service] {
//     QueryService::Reader r(*service);
//     auto snap = r.Acquire();
//     Weight w = snap->sample().EstimateBox(box);
//   });
//   builder->AsWindowed()->AddTimed(ts, item);        // ingest + republish
//
// Layering: the wrapper forwards the stream unchanged to the inner builder,
// which admits and counts every record (so Describe() reports the inner
// builder's counters, and records fed through the AsWindowed() pass-through
// are counted exactly like records fed through Add). The inner method never
// knows it is being served. The windowed republish rides the generic
// WindowedSummarizer::SetPublishHook — the window layer has no serve
// dependency.
//
// The key grammar, the lifecycle and the inner-builder factory are the
// shared ones of api/composed.h. Serving is an outermost concern: the
// grammar rejects "serve:" under any other wrapper ("sharded:2:serve:obliv",
// "serve:serve:obliv"), and the wrapper is not Mergeable. After Finalize
// every ingest call and a second Finalize throw std::logic_error. Reset(seed)
// recycles the *builder* (forwarding to the inner method's Reset) but
// deliberately does not unpublish: readers keep the last published snapshot
// until the recycled builder publishes a new one.

#ifndef SAS_SERVE_SERVABLE_H_
#define SAS_SERVE_SERVABLE_H_

#include <memory>
#include <string>

#include "api/composed.h"
#include "serve/query_service.h"

namespace sas {

/// The wrapper itself. Construct through MakeSummarizer; reach it via
/// Summarizer::AsServable().
class ServableSummarizer final : public WrapperSummarizer {
 public:
  /// Builds the inner builder eagerly (unknown/invalid inner keys throw
  /// std::invalid_argument here). Sample-backedness of the inner *summary*
  /// is an instance property, checked at Finalize.
  ServableSummarizer(const ComposedKey& key, const SummarizerConfig& cfg);

  void AddBatch(std::span<const WeightedKey> items) override;
  void AddCoords(KeyId id, const Coord* coords, int dims, Weight w) override;

  /// Finalizes the inner builder, publishes its sample to the service, and
  /// returns the summary under the composed key. Throws
  /// std::invalid_argument when the inner summary is not sample-backed
  /// (the deterministic baselines) — nothing is published then. The
  /// builder is spent once the inner builder has finalized.
  std::unique_ptr<RangeSummary> Finalize() override;

  /// Serving is an outermost concern; the wrapper does not merge.
  bool Mergeable() const override { return false; }

  /// Forwards to the inner builder's Reset. The service keeps serving the
  /// last published snapshot (readers are not torn down by a builder
  /// recycle); the next Finalize/ring advance republishes.
  bool Reset(std::uint64_t seed) override;

  /// The inner builder's counters: it admits every record.
  const IngestStats& Describe() const override { return inner_->Describe(); }

  /// Passes through to the inner windowed wrapper (when the inner key is
  /// windowed:), whose ring advances republish through this wrapper's
  /// service.
  WindowedSummarizer* AsWindowed() override { return inner_->AsWindowed(); }

  ServableSummarizer* AsServable() override { return this; }

  /// The query service reader threads share. A shared_ptr so readers can
  /// outlive the builder that spawned the service.
  std::shared_ptr<QueryService> service() { return service_; }

 private:
  std::unique_ptr<Summarizer> inner_;
  std::shared_ptr<QueryService> service_;
};

}  // namespace sas

#endif  // SAS_SERVE_SERVABLE_H_

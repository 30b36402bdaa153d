#include "serve/servable.h"

#include <stdexcept>
#include <utility>
#include <vector>

#include "api/summary.h"
#include "window/windowed.h"

namespace sas {

ServableSummarizer::ServableSummarizer(const ComposedKey& key,
                                       const SummarizerConfig& cfg)
    : WrapperSummarizer(key, cfg),
      inner_(MakeInner(cfg.seed, cfg.s, cfg.max_bytes)),
      service_(std::make_shared<QueryService>(
          QueryService::Options{cfg.faults})) {
  if (WindowedSummarizer* win = inner_->AsWindowed()) {
    // Ring advances republish the merged window; the hook keeps a strong
    // reference so the service survives even if this wrapper is destroyed
    // first (readers hold their own shared_ptr).
    win->SetPublishHook([svc = service_](const Sample& window) {
      svc->Publish(window);
    });
  }
}

void ServableSummarizer::AddBatch(std::span<const WeightedKey> items) {
  RequireLive("AddBatch");
  inner_->AddBatch(items);
}

void ServableSummarizer::AddCoords(KeyId id, const Coord* coords, int dims,
                                   Weight w) {
  RequireLive("AddCoords");
  inner_->AddCoords(id, coords, dims, w);
}

std::unique_ptr<RangeSummary> ServableSummarizer::Finalize() {
  RequireLive("Finalize");
  std::unique_ptr<RangeSummary> summary = inner_->Finalize();
  MarkFinalized();  // the inner builder is spent, whatever happens below
  SampleSummary& sample_summary = InnerSample(*summary);
  service_->Publish(sample_summary.sample());
  std::vector<double> probs = sample_summary.probs();
  return std::make_unique<SampleSummary>(key_, sample_summary.TakeSample(),
                                         std::move(probs));
}

bool ServableSummarizer::Reset(std::uint64_t seed) {
  if (!inner_->Reset(seed)) return Refuse();
  Restart(seed);
  return true;
}

}  // namespace sas

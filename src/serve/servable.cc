#include "serve/servable.h"

#include <stdexcept>
#include <utility>
#include <vector>

#include "api/keys.h"
#include "api/registry.h"
#include "api/summary.h"
#include "window/windowed.h"

namespace sas {

bool IsServeKey(const std::string& key) {
  return key.rfind(keys::kServePrefix, 0) == 0;
}

std::string ParseServeKey(const std::string& key) {
  if (!IsServeKey(key)) {
    throw std::invalid_argument("serve key \"" + key +
                                "\": not a serve key (grammar: "
                                "serve:<inner-key>)");
  }
  std::string inner = key.substr(std::string(keys::kServePrefix).size());
  if (inner.empty()) {
    throw std::invalid_argument("serve key \"" + key +
                                "\": missing inner method key (grammar: "
                                "serve:<inner-key>)");
  }
  return inner;
}

std::unique_ptr<Summarizer> MakeServableSummarizer(
    const std::string& key, const SummarizerConfig& cfg) {
  return std::make_unique<ServableSummarizer>(key, ParseServeKey(key), cfg);
}

ServableSummarizer::ServableSummarizer(std::string key,
                                       const std::string& inner_key,
                                       const SummarizerConfig& cfg)
    : Summarizer(cfg),
      key_(std::move(key)),
      inner_(MakeSummarizer(inner_key, cfg)),
      service_(std::make_shared<QueryService>(
          QueryService::Options{cfg.faults, cfg.telemetry})) {
  if (WindowedSummarizer* win = inner_->AsWindowed()) {
    // Ring advances republish the merged window; the hook keeps a strong
    // reference so the service survives even if this wrapper is destroyed
    // first (readers hold their own shared_ptr).
    win->SetPublishHook([svc = service_](const Sample& window) {
      svc->Publish(window);
    });
  }
}

void ServableSummarizer::Add(const WeightedKey& item) {
  if (!AdmitWeight(item.weight)) return;
  inner_->Add(item);
}

void ServableSummarizer::AddBatch(std::span<const WeightedKey> items) {
  if (AllFinite(items)) {
    CountAccepted(items.size());
    inner_->AddBatch(items);
    return;
  }
  for (const WeightedKey& it : items) Add(it);
}

void ServableSummarizer::AddCoords(const Coord* coords, int dims, Weight w) {
  if (!AdmitWeight(w)) return;
  inner_->AddCoords(coords, dims, w);
}

void ServableSummarizer::AddCoordsKeyed(KeyId id, const Coord* coords,
                                        int dims, Weight w) {
  if (!AdmitWeight(w)) return;
  inner_->AddCoordsKeyed(id, coords, dims, w);
}

std::unique_ptr<RangeSummary> ServableSummarizer::Finalize() {
  std::unique_ptr<RangeSummary> summary = inner_->Finalize();
  auto* sample_summary = dynamic_cast<SampleSummary*>(summary.get());
  if (sample_summary == nullptr) {
    throw std::invalid_argument(
        "serve wrapper \"" + key_ + "\": inner summary \"" + summary->Name() +
        "\" is not sample-backed — the serving tier snapshots samples; wrap "
        "a sampling method (order/hierarchy/obliv/..., or a sharded:/"
        "windowed: composition over one)");
  }
  service_->Publish(sample_summary->sample());
  std::vector<double> probs = sample_summary->probs();
  return std::make_unique<SampleSummary>(key_, sample_summary->TakeSample(),
                                         std::move(probs));
}

bool ServableSummarizer::Reset(std::uint64_t seed) {
  if (!inner_->Reset(seed)) return false;
  cfg_.seed = seed;
  stats_ = IngestStats{};
  return true;
}

}  // namespace sas

#include "api/summarizer.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/telemetry.h"

namespace sas {

namespace {

// The process-wide ingest-boundary counters every builder mirrors its
// IngestStats into. Resolved once (cold registry lookup), shared across
// builders — the registry aggregates where Describe() stays per-builder.
struct IngestInstruments {
  telemetry::Counter* accepted;
  telemetry::Counter* rejected_weight;
  telemetry::Counter* rejected_coord;
  telemetry::Counter* degradations;
};

const IngestInstruments& IngestCounters() {
  static const IngestInstruments instruments = {
      telemetry::GetCounter("sas.ingest.accepted"),
      telemetry::GetCounter("sas.ingest.rejected_weight"),
      telemetry::GetCounter("sas.ingest.rejected_coord"),
      telemetry::GetCounter("sas.ingest.degradations"),
  };
  return instruments;
}

}  // namespace

void Summarizer::CountAccepted(std::uint64_t n) {
  stats_.accepted += n;
  if (mirror_ingest_ && telemetry::Enabled()) {
    IngestCounters().accepted->Inc(n);
  }
}

void Summarizer::CountRejectedWeight(std::uint64_t n) {
  stats_.rejected_weight += n;
  if (mirror_ingest_ && telemetry::Enabled()) {
    IngestCounters().rejected_weight->Inc(n);
  }
}

void Summarizer::CountRejectedCoord(std::uint64_t n) {
  stats_.rejected_coord += n;
  if (mirror_ingest_ && telemetry::Enabled()) {
    IngestCounters().rejected_coord->Inc(n);
  }
}

void Summarizer::CountDegradation(std::uint64_t n) {
  stats_.degradations += n;
  if (mirror_ingest_ && telemetry::Enabled()) {
    IngestCounters().degradations->Inc(n);
  }
}

telemetry::TelemetrySnapshot Summarizer::DescribeTelemetry() const {
  return telemetry::CaptureSnapshot(cfg_.faults.get());
}

void Summarizer::AddCoords(KeyId /*id*/, const Coord* /*coords*/,
                           int /*dims*/, Weight /*w*/) {
  throw std::logic_error(
      "AddCoords is only supported by the \"nd\" summarizer; use Add for "
      "2-D methods");
}

bool Summarizer::AdmitWeight(Weight w) {
  if (std::isfinite(w) && w >= 0.0) {
    CountAccepted();
    return true;
  }
  if (cfg_.ingest_policy == IngestPolicy::kStrict) {
    throw std::invalid_argument(
        "ingest rejected: weight must be finite and non-negative, got " +
        std::to_string(w));
  }
  CountRejectedWeight();
  return false;
}

bool Summarizer::AllFinite(std::span<const WeightedKey> items) {
  // Summing is branch-free per element: any NaN/Inf poisons the total, and
  // a negative weight can only drag a non-negative running minimum below
  // zero. One pass, no early exits to mispredict on clean input.
  Weight sum = 0.0;
  Weight min = 0.0;
  for (const WeightedKey& it : items) {
    sum += it.weight;
    min = it.weight < min ? it.weight : min;
  }
  return std::isfinite(sum) && min >= 0.0;
}

}  // namespace sas

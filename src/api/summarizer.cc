#include "api/summarizer.h"

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
      "AddCoords is only supported by the \"nd\" summarizer and the "
      "sharded:/serve: wrappers over it; use Add for 2-D methods and "
      "windowed: keys");
}

void Summarizer::RejectWeight(Weight w) {
  if (cfg_.ingest_policy == IngestPolicy::kStrict) {
    throw std::invalid_argument(
        "ingest rejected: weight must be finite and non-negative, got " +
        std::to_string(w));
  }
  CountRejectedWeight();
}

}  // namespace sas

#include "api/summary.h"

#include <cstdio>

#include "core/telemetry.h"

namespace sas {

namespace {

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

SummaryInfo RangeSummary::Describe() const {
  SummaryInfo info;
  info.method = Name();
  info.family = "deterministic";
  info.size_elements = SizeInElements();
  return info;
}

Weight SampleSummary::EstimateQuery(const MultiRangeQuery& q) const {
  static telemetry::Histogram* const estimate_ns =
      telemetry::GetHistogram("sas.query.estimate_ns");
  telemetry::Span span("query.estimate", estimate_ns);
  return sample_.EstimateQuery(q);
}

SummaryInfo SampleSummary::Describe() const {
  SummaryInfo info;
  info.method = Name();
  info.family = "sample";
  info.size_elements = SizeInElements();
  info.params.emplace_back("tau", FormatDouble(tau()));
  info.params.emplace_back("has_probs", probs_.empty() ? "false" : "true");
  return info;
}

}  // namespace sas

// Experiment harness: builds each summary method at a target size over a
// dataset (with wall-clock timing) and evaluates it on query batteries.
// Every per-figure bench binary is a thin driver over these helpers.
//
// All summaries are constructed through the registry (api/registry.h);
// methods are named by their canonical keys, so adding a method to a bench
// is adding one string.

#ifndef SAS_EVAL_HARNESS_H_
#define SAS_EVAL_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/summary.h"
#include "core/telemetry.h"
#include "data/dataset.h"
#include "data/nd_gen.h"
#include "data/query_gen.h"
#include "eval/metrics.h"

namespace sas {

/// Simple wall-clock stopwatch over the telemetry monotonic clock (the
/// library's single sanctioned ambient-clock call site — sas-lint rule
/// timing-confined).
class Stopwatch {
 public:
  Stopwatch() : start_ns_(telemetry::NowNs()) {}
  void Reset() { start_ns_ = telemetry::NowNs(); }
  double Seconds() const {
    return static_cast<double>(telemetry::NowNs() - start_ns_) * 1e-9;
  }

 private:
  std::uint64_t start_ns_;
};

/// A summary plus how long it took to build.
struct BuiltSummary {
  std::unique_ptr<RangeSummary> summary;
  double build_seconds = 0.0;
};

/// The methods the paper's figures compare: aware (two-pass product
/// sampler), obliv (streaming VarOpt), wavelet, qdigest, and optionally the
/// dyadic sketch (off by default in accuracy figures, matching the paper
/// which drops it as "off the scale").
std::vector<std::string> DefaultMethods(bool include_sketch = false);

/// Builds every listed method (canonical registry keys, including the
/// composed "sharded:<N>:<key>" and "windowed:<W>:<B>:<key>" wrapper keys,
/// nested in either order) at summary size `s` over the dataset, in order,
/// deriving one deterministic sub-seed per method from `seed`. Windowed
/// keys ingest the batch dataset untimed (a single bucket at time 0).
std::vector<BuiltSummary> BuildMethods(const Dataset2D& ds, std::size_t s,
                                       const std::vector<std::string>& methods,
                                       std::uint64_t seed);

/// d-dimensional counterpart of BuildMethods: builds every listed method
/// over a DatasetNd with structure = StructureSpec::Nd(ds.dims). Methods
/// that ingest coordinates (the "nd" key's AddCoords) receive all dims
/// axes; methods without an AddCoords path fall back to the ordinary Add
/// path over ds.AsWeightedKeys() (pt = the first two axes) — valid for
/// weight-only methods like "obliv", whose estimates are id-keyed, while
/// 2-D structure methods would see only a projection. Either way a
/// point's id is its index.
std::vector<BuiltSummary> BuildMethodsNd(
    const DatasetNd& ds, std::size_t s,
    const std::vector<std::string>& methods, std::uint64_t seed);

/// Evaluates one summary over a battery; also reports query time.
struct BatteryResult {
  std::string method;
  std::size_t size_elements = 0;
  ErrorStats errors;
  double build_seconds = 0.0;
  double query_seconds = 0.0;
};

BatteryResult EvaluateOnBattery(const BuiltSummary& built,
                                const QueryBattery& battery);

/// Evaluates one summary over a d-dimensional box battery. Queries run as
/// id-keyed subset estimates against the dataset's coordinates, so the
/// summary must be sample-backed (AsSample() != nullptr); throws
/// std::invalid_argument otherwise.
BatteryResult EvaluateOnBatteryNd(const BuiltSummary& built,
                                  const NdQueryBattery& battery,
                                  const DatasetNd& ds);

}  // namespace sas

#endif  // SAS_EVAL_HARNESS_H_

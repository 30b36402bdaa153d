#include "eval/harness.h"

#include <stdexcept>

#include "api/keys.h"
#include "core/random.h"
#include "core/types.h"

namespace sas {

std::vector<std::string> DefaultMethods(bool include_sketch) {
  std::vector<std::string> methods{keys::kAware, keys::kObliv,
                                   keys::kWavelet, keys::kQDigest};
  if (include_sketch) methods.push_back(keys::kSketch);
  return methods;
}

std::vector<BuiltSummary> BuildMethods(const Dataset2D& ds, std::size_t s,
                                       const std::vector<std::string>& methods,
                                       std::uint64_t seed) {
  std::vector<BuiltSummary> out;
  out.reserve(methods.size());
  Rng rng(seed);

  for (const std::string& method : methods) {
    SummarizerConfig cfg;
    cfg.s = static_cast<double>(s);
    cfg.seed = rng.Next();
    cfg.structure = StructureSpec::Product();
    cfg.bits_x = ds.domain.x.bits;
    cfg.bits_y = ds.domain.y.bits;

    Stopwatch sw;
    BuiltSummary b;
    b.summary = BuildSummary(method, cfg, ds.items);
    b.build_seconds = sw.Seconds();
    out.push_back(std::move(b));
  }
  return out;
}

std::vector<BuiltSummary> BuildMethodsNd(
    const DatasetNd& ds, std::size_t s,
    const std::vector<std::string>& methods, std::uint64_t seed) {
  std::vector<BuiltSummary> out;
  out.reserve(methods.size());
  Rng rng(seed);
  // Keyed view of the dataset, materialized once on the first method that
  // needs the fallback path — outside the per-method stopwatch, so the
  // O(n) copy does not inflate fallback methods' build times.
  std::vector<WeightedKey> keyed;

  for (const std::string& method : methods) {
    SummarizerConfig cfg;
    cfg.s = static_cast<double>(s);
    cfg.seed = rng.Next();
    cfg.structure = StructureSpec::Nd(ds.dims);
    cfg.bits_x = ds.axis_bits;
    cfg.bits_y = ds.axis_bits;

    Stopwatch sw;
    BuiltSummary b;
    auto builder = MakeSummarizer(method, cfg);
    // Prefer the coordinate path (all dims axes reach the method, each point
    // under its index); builders without one throw std::logic_error on the
    // first point, before any state changes, and take the keyed Add path.
    bool coords_path = ds.num_points() > 0;
    if (coords_path) {
      try {
        builder->AddCoords(0, ds.point(0), ds.dims, ds.weights[0]);
      } catch (const std::logic_error&) {
        coords_path = false;
      }
    }
    if (coords_path) {
      for (std::size_t i = 1; i < ds.num_points(); ++i) {
        builder->AddCoords(static_cast<KeyId>(i), ds.point(i), ds.dims,
                           ds.weights[i]);
      }
    } else {
      if (keyed.size() != ds.num_points()) {
        keyed = ds.AsWeightedKeys();
        sw.Reset();
      }
      builder->AddBatch(keyed);
    }
    b.summary = builder->Finalize();
    b.build_seconds = sw.Seconds();
    out.push_back(std::move(b));
  }
  return out;
}

BatteryResult EvaluateOnBattery(const BuiltSummary& built,
                                const QueryBattery& battery) {
  BatteryResult result;
  result.method = built.summary->Name();
  result.size_elements = built.summary->SizeInElements();
  result.build_seconds = built.build_seconds;

  std::vector<Weight> estimates, exacts;
  estimates.reserve(battery.queries.size());
  exacts.reserve(battery.queries.size());
  Stopwatch sw;
  for (const auto& q : battery.queries) {
    estimates.push_back(built.summary->EstimateQuery(q));
  }
  result.query_seconds = sw.Seconds();
  for (const auto& q : battery.queries) exacts.push_back(q.exact);
  result.errors = ComputeErrors(estimates, exacts, battery.data_total);
  return result;
}

BatteryResult EvaluateOnBatteryNd(const BuiltSummary& built,
                                  const NdQueryBattery& battery,
                                  const DatasetNd& ds) {
  const SampleSummary* sample = built.summary->AsSample();
  if (sample == nullptr) {
    throw std::invalid_argument(
        "EvaluateOnBatteryNd: method \"" + built.summary->Name() +
        "\" is not sample-backed; d-dimensional box queries run as subset "
        "estimates over the sample entries");
  }
  BatteryResult result;
  result.method = built.summary->Name();
  result.size_elements = built.summary->SizeInElements();
  result.build_seconds = built.build_seconds;

  std::vector<Weight> estimates, exacts;
  estimates.reserve(battery.queries.size());
  exacts.reserve(battery.queries.size());
  Stopwatch sw;
  for (const auto& q : battery.queries) {
    estimates.push_back(
        sample->sample().EstimateSubset([&](const WeightedKey& k) {
          return k.id < ds.num_points() &&
                 BoxNContains(q.box, ds.point(k.id));
        }));
  }
  result.query_seconds = sw.Seconds();
  for (const auto& q : battery.queries) exacts.push_back(q.exact);
  result.errors = ComputeErrors(estimates, exacts, battery.data_total);
  return result;
}

}  // namespace sas

// Seeded inputs of the benchmark workloads, built only from the library's
// data/ layer: the Network dataset (data/network_gen), uniform-weight
// multi-range query batteries with exact answers (data/query_gen), and, for
// the streaming workload, a timestamped CSV trace for data/trace_reader.
// The same seed always gives the same inputs.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"
#include "data/dataset.h"
#include "data/query_gen.h"

namespace perfbench {

/// The sliding window of the streaming workload: W = 3600 s in B = 60
/// buckets, so every epoch crossing merges the 59 sealed buckets.
inline constexpr double kWindowSeconds = 3600.0;
inline constexpr int kWindowBuckets = 60;

struct BatchInputs {
  sas::Dataset2D data;
  /// Uniform-weight battery (8 disjoint cells of ~1/64 of the weight each)
  /// with exact answers over the whole dataset.
  sas::QueryBattery battery;
};

BatchInputs MakeBatchInputs(std::uint64_t seed);

/// An accuracy checkpoint of the stream: the battery is drawn over, and
/// answered exactly against, the rows the live buckets hold at publish
/// number `publish` (late rows counted in the bucket they joined).
struct Checkpoint {
  std::size_t publish = 0;
  sas::QueryBattery battery;
};

struct StreamInputs {
  /// The trace as CSV text: "timestamp,key,weight,x,y" rows in arrival
  /// order, a header line first. Timestamps are multiples of 1/64 s and
  /// weights multiples of 1/8, so the text round-trips exactly.
  std::string csv;
  std::size_t rows = 0;
  /// Per row: 1 when its AddTimed crosses an epoch boundary (one publish).
  std::vector<std::uint8_t> crosses;
  /// Per publish, in order: total weight of the live window it publishes.
  std::vector<double> window_total;
  /// Sorted by publish index.
  std::vector<Checkpoint> checkpoints;
  /// What reader threads ask: every checkpoint battery's queries.
  std::vector<sas::MultiRangeQuery> reader_queries;
  /// Rows the window takes late (joining the current bucket) / drops.
  std::size_t late = 0;
  std::size_t dropped = 0;
};

StreamInputs MakeStreamInputs(std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_

// The benchmark workloads. Each runs for opt.seconds and fills `metrics`
// with the end-to-end metrics (untraced run) or the per-layer metrics of
// the layers it exercises (traced run), `samples` with the sample counts
// behind them, and `ledger` with every operation it attempted, output
// checks included.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "common.h"

namespace perfbench {

/// "sharded:3:<inner>" offline build of the Network dataset, then the
/// query battery on the finalized summary. The traced run adds a
/// single-thread replay of the same build through public calls.
void RunBatch(const Options& opt, const std::string& inner, Metrics* metrics,
              Metrics* samples, Ledger* ledger);

/// CSV trace -> TraceReader -> "serve:windowed:3600:60:product", with two
/// closed-loop reader threads on the published snapshots.
void RunStream(const Options& opt, Metrics* metrics, Metrics* samples,
               Ledger* ledger);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

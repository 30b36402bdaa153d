// End-to-end pipeline benchmark program.
//
//   pipeline --workload <batch_product|batch_obliv|stream_serve>
//            --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints a context stamp line ("# context: {...}": nproc, CPU model, build
// type, SIMD level), with --trace 0 a line of latency tails ("# tails:"),
// then, as its last line, one JSON object {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. Per-layer metrics of layers a workload
// does not run read 0. With --out-dir it also writes result.json there
// (stamp, sample counts, the host's CPU steal during the run, tails,
// result), and for a traced run the Chrome trace as trace.json.
// Exits 1 when any output check failed, 2 on a usage error or when an
// untraced run finds SAS_FAULTS or SAS_TELEMETRY set (armed faults change
// samples; armed telemetry changes timing).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <string>

#include "common.h"
#include "core/telemetry.h"
#include "workloads.h"

namespace {

using perfbench::Metrics;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"items_per_s", "1/s"},
    {"query_us_p50", "us"},   {"queries_per_s", "1/s"},
    {"publish_ms_p50", "ms"}, {"range_err", "ratio"},
    {"peak_heap_mb", "MiB"},
};

// Latency tails of the untraced run: printed on their own line and kept in
// result.json, but not in the result line. On a shared VM they track the
// host's CPU steal during the run (a 9% steal run read 3x the p99 of a
// 0.5% one), so they are not steady enough to gate a change on.
constexpr MetricSpec kTails[] = {
    {"query_us_p99", "us"},
    {"publish_ms_p99", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    // Batch: armed sharded builds.
    {"sharded.add_ns_per_item", "ns"},
    {"sharded.backpressure_ms", "ms"},
    {"sharded.finalize_ms", "ms"},
    {"core.merge_ms", "ms"},
    {"shard.skew", "ratio"},
    // Batch: single-thread replay.
    {"sharded.route_ns_per_item", "ns"},
    {"inner.add_ns_per_item", "ns"},
    {"inner.finalize_ms", "ms"},
    {"replay.merge_ms", "ms"},
    {"replay.coverage", "ratio"},
    {"core.query_ns", "ns"},
    // Stream.
    {"data.parse_ns_per_row", "ns"},
    {"window.append_ns_per_item", "ns"},
    {"window.seal_ms", "ms"},
    {"window.merge_ms", "ms"},
    {"window.merge_fanin", "count"},
    {"window.bucket_items", "count"},
    {"serve.publish_ms", "ms"},
    {"serve.retired_pending_max", "count"},
    {"serve.acquire_ns", "ns"},
    {"serve.estimate_ns", "ns"},
    {"serve.empty_acquires", "count"},
    {"window.late_items", "count"},
    {"window.dropped_items", "count"},
    {"ingest.coverage", "ratio"},
    // All workloads.
    {"trace.overhead_pct", "%"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "pipeline: %s\nusage: pipeline --workload <batch_product|"
               "batch_obliv|stream_serve> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\n",
               why);
  return 2;
}

bool EnvSet(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0';
}

/// {"name": {"value": v, "unit": "u"}, ...} over `specs`, in table order.
/// A metric the workload did not report reads 0.
std::string MetricsJson(std::span<const MetricSpec> specs, const Metrics& m) {
  std::string out = "{";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = m.find(specs[i].name);
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  it == m.end() || !std::isfinite(it->second) ? 0.0
                                                               : it->second);
    if (i > 0) out += ", ";
    out += perfbench::JsonString(specs[i].name) + ": {\"value\": " + value +
           ", \"unit\": " + perfbench::JsonString(specs[i].unit) + "}";
  }
  return out + "}";
}

bool Listed(std::span<const MetricSpec> specs, const std::string& name) {
  for (const MetricSpec& s : specs) {
    if (name == s.name) return true;
  }
  return false;
}

/// Every reported name is in one of the tables (a misspelt metric is a
/// bug the run must not hide); with `require_all`, every metric of both
/// tables was reported.
void CheckNames(const Metrics& m, std::span<const MetricSpec> a,
                std::span<const MetricSpec> b, bool require_all,
                perfbench::Ledger* ledger) {
  for (const auto& [name, value] : m) {
    ledger->Op(Listed(a, name) || Listed(b, name),
               "metric \"" + name + "\" is not in the metric tables");
  }
  if (!require_all) return;
  for (std::span<const MetricSpec> specs : {a, b}) {
    for (const MetricSpec& s : specs) {
      ledger->Op(m.count(s.name) == 1,
                 std::string("metric \"") + s.name + "\" was not measured");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && opt.seconds > 0.0;
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "1") == 0;
      have_trace = opt.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("every flag takes one value");
  if (opt.workload != "batch_product" && opt.workload != "batch_obliv" &&
      opt.workload != "stream_serve") {
    return Usage("unknown --workload");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  if (!opt.trace && (EnvSet("SAS_FAULTS") || EnvSet("SAS_TELEMETRY"))) {
    std::fprintf(stderr,
                 "pipeline: refusing an untraced run with SAS_FAULTS or "
                 "SAS_TELEMETRY set (faults change samples, telemetry "
                 "changes timing); unset them\n");
    return 2;
  }

  const std::string context = perfbench::ContextJson(opt);
  std::printf("# context: %s\n", context.c_str());
  std::fflush(stdout);

  Metrics metrics, samples;
  perfbench::Ledger ledger;
  const perfbench::CpuTimes cpu0 = perfbench::ReadCpuTimes();
  try {
    if (opt.workload == "stream_serve") {
      perfbench::RunStream(opt, &metrics, &samples, &ledger);
    } else {
      perfbench::RunBatch(opt, opt.workload == "batch_product" ? "product"
                                                               : "obliv",
                          &metrics, &samples, &ledger);
    }
  } catch (const std::exception& e) {
    ledger.Op(false, std::string("run threw: ") + e.what());
  }
  const double steal_pct =
      perfbench::StealPercent(cpu0, perfbench::ReadCpuTimes());
  std::string metrics_json, tails_json = "{}";
  if (opt.trace) {
    CheckNames(metrics, kPerLayer, {}, false, &ledger);
    metrics_json = MetricsJson(kPerLayer, metrics);
  } else {
    CheckNames(metrics, kEndToEnd, kTails, true, &ledger);
    metrics_json = MetricsJson(kEndToEnd, metrics);
    tails_json = MetricsJson(kTails, metrics);
    std::printf("# tails: %s\n", tails_json.c_str());
  }

  const bool correct = ledger.failed() == 0;
  for (const std::string& m : ledger.messages()) {
    std::fprintf(stderr, "FAIL: %s\n", m.c_str());
  }
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(ledger.attempted()) +
      ", \"failed\": " + std::to_string(ledger.failed()) +
      ", \"metrics\": " + metrics_json + "}";
  if (!opt.out_dir.empty()) {
    std::string counts = "{";
    for (const auto& [name, n] : samples) {
      counts += (counts.size() > 1 ? ", " : "") + perfbench::JsonString(name) +
                ": " + std::to_string(static_cast<long long>(n));
    }
    std::ofstream(opt.out_dir + "/result.json")
        << "{\"context\": " << context << ", \"samples\": " << counts
        << "}, \"host_steal_pct\": " << steal_pct
        << ", \"tails\": " << tails_json << ", \"result\": " << result << "}\n";
    if (opt.trace) {
      std::ofstream(opt.out_dir + "/trace.json")
          << sas::telemetry::ChromeTraceJson() << "\n";
    }
  }
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}

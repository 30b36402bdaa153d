// Shared setup for the per-figure bench binaries: scaled-down default
// workloads (so the full suite runs in minutes on a laptop) and a tiny
// key=value argument parser for overriding scale; plus the main() of the
// google-benchmark micro_* drivers (SAS_BENCHMARK_MAIN).
//
// Every binary prints the series of one figure of the paper; absolute
// numbers differ from the paper (synthetic data, C++ vs Python, 2026
// hardware) but the relative ordering and trends are the reproduction
// target (see EXPERIMENTS.md).

#ifndef SAS_BENCH_BENCH_COMMON_H_
#define SAS_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/simd.h"
#include "data/network_gen.h"
#include "data/techticket_gen.h"

namespace sas::bench {

/// key=value command-line arguments, e.g. `./fig2a pairs=100000 bits=20`.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const char* eq = std::strchr(argv[i], '=');
      if (eq != nullptr) {
        kv_.emplace_back(std::string(argv[i], eq - argv[i]),
                         std::string(eq + 1));
      }
    }
  }

  long Get(const std::string& key, long fallback) const {
    for (const auto& [k, v] : kv_) {
      if (k == key) return std::atol(v.c_str());
    }
    return fallback;
  }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

/// Bench-scale Network dataset: same shape as the paper's (hierarchically
/// clustered 2-D IP space, Zipf endpoints, Pareto flow sizes), sized to
/// keep the wavelet/sketch baselines tractable per run.
inline Dataset2D BenchNetwork(const Args& args) {
  NetworkConfig cfg;
  cfg.num_sources = static_cast<std::size_t>(args.Get("sources", 8000));
  cfg.num_dests = static_cast<std::size_t>(args.Get("dests", 6000));
  cfg.num_pairs = static_cast<std::size_t>(args.Get("pairs", 40000));
  cfg.bits = static_cast<int>(args.Get("bits", 16));
  cfg.seed = static_cast<std::uint64_t>(args.Get("seed", 42));
  return GenerateNetwork(cfg);
}

/// Bench-scale Tech Ticket dataset.
inline Dataset2D BenchTechTicket(const Args& args) {
  TechTicketConfig cfg;
  cfg.num_codes = static_cast<std::size_t>(args.Get("codes", 1000));
  cfg.num_locations = static_cast<std::size_t>(args.Get("locations", 8000));
  cfg.num_pairs = static_cast<std::size_t>(args.Get("pairs", 50000));
  cfg.bits = static_cast<int>(args.Get("bits", 16));
  cfg.seed = static_cast<std::uint64_t>(args.Get("seed", 7));
  return GenerateTechTicket(cfg);
}

/// Standard summary-size sweep (paper: 100 .. 100K; scaled to the bench
/// dataset sizes here).
inline std::vector<std::size_t> SizeSweep(const Args& args) {
  std::vector<std::size_t> sizes{100, 300, 1000, 3000, 10000};
  const long max_size = args.Get("max_size", 10000);
  while (!sizes.empty() && static_cast<long>(sizes.back()) > max_size) {
    sizes.pop_back();
  }
  return sizes;
}

/// Single-binary SIMD A/B: SAS_SIMD_LEVEL=scalar pins the core/simd
/// dispatcher to the scalar reference (SAS_SIMD_LEVEL=avx2 asks for AVX2
/// and silently keeps the best supported level when unavailable); unset,
/// the dispatcher stays at simd::DetectLevel(), the fastest level this
/// binary and host have.
inline void ApplySimdLevelFromEnv() {
  if (const char* level = std::getenv("SAS_SIMD_LEVEL")) {
    simd::SetLevel(std::string_view(level) == "scalar" ? simd::Level::kScalar
                                                       : simd::Level::kAvx2);
  }
}

}  // namespace sas::bench

/// main() of the google-benchmark micro_* drivers, used in place of
/// BENCHMARK_MAIN(): applies SAS_SIMD_LEVEL before any benchmark runs.
#define SAS_BENCHMARK_MAIN()                                          \
  int main(int argc, char** argv) {                                   \
    sas::bench::ApplySimdLevelFromEnv();                              \
    benchmark::Initialize(&argc, argv);                               \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    benchmark::RunSpecifiedBenchmarks();                              \
    benchmark::Shutdown();                                            \
    return 0;                                                         \
  }

#endif  // SAS_BENCH_BENCH_COMMON_H_

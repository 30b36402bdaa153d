#include "common.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <thread>

#include "core/simd.h"

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

void LatencyRecorder::Add(std::uint64_t ns) {
  chunk_.push_back(static_cast<double>(ns));
  ++count_;
  if (chunk_.size() % kSlice == 0) CloseSlice(kSlice);
  if (chunk_.size() == kChunk) {
    p99_.push_back(Quantile(chunk_, 0.99));
    chunk_.clear();
  }
}

void LatencyRecorder::CloseSlice(std::size_t n) {
  const std::vector<double> slice(chunk_.end() - static_cast<std::ptrdiff_t>(n),
                                  chunk_.end());
  p50_.push_back(Quantile(slice, 0.5));
  rate_.push_back(static_cast<double>(n) * 1e9 /
                  std::accumulate(slice.begin(), slice.end(), 0.0));
}

void LatencyRecorder::Finish() {
  if (p50_.empty() && !chunk_.empty()) CloseSlice(chunk_.size());
  if (p99_.empty() && !chunk_.empty()) p99_.push_back(Quantile(chunk_, 0.99));
  chunk_.clear();
}

void LatencyRecorder::Absorb(const LatencyRecorder& other) {
  p50_.insert(p50_.end(), other.p50_.begin(), other.p50_.end());
  rate_.insert(rate_.end(), other.rate_.begin(), other.rate_.end());
  p99_.insert(p99_.end(), other.p99_.begin(), other.p99_.end());
  count_ += other.count_;
}

void SetupTimer::Add(double seconds) {
  if (!setup_s_.empty()) paused_s_ += seconds;
  setup_s_.push_back(seconds);
}

bool SetupTimer::Due(double measured_s) const {
  return !Done() && measured_s >= static_cast<double>(setup_s_.size()) *
                                      run_seconds_ / (kSetups - 1);
}

bool Ledger::Op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (messages_.size() < 16) messages_.push_back(what);
  }
  return ok;
}

void Ledger::Ops(std::uint64_t n, std::uint64_t failed,
                 const std::string& what) {
  attempted_ += n;
  failed_ += failed;
  if (failed > 0 && messages_.size() < 16) {
    messages_.push_back(what + " (" + std::to_string(failed) + " of " +
                        std::to_string(n) + ")");
  }
}

bool SameTotal(double got, double want) {
  return std::fabs(got - want) <= 1e-9 * std::fabs(want);
}

bool BitEqual(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  CpuTimes t;
  std::uint64_t v = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealPercent(const CpuTimes& before, const CpuTimes& after) {
  const std::uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string ContextJson(const Options& opt) {
  return std::string("{\"workload\": ") + JsonString(opt.workload) +
         ", \"seed\": " + std::to_string(opt.seed) +
         ", \"seconds\": " + std::to_string(opt.seconds) +
         ", \"trace\": " + (opt.trace ? "true" : "false") +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": " + JsonString(CpuModel()) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
         ", \"simd\": " +
         JsonString(sas::simd::LevelName(sas::simd::ActiveLevel())) + "}";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace perfbench

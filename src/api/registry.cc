#include "api/registry.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "api/sharded.h"
#include "serve/servable.h"
#include "window/windowed.h"

namespace sas {

namespace internal {
// Defined in api/builders.cc; the factories of every built-in method.
std::vector<std::pair<std::string, SummarizerFactory>> BuiltinSummarizers();
}  // namespace internal

namespace {

std::map<std::string, SummarizerFactory>& Registry() {
  static std::map<std::string, SummarizerFactory> registry;
  return registry;
}

std::mutex& RegistryMutex() {
  static std::mutex mu;
  return mu;
}

void EnsureBuiltins() {
  static std::once_flag once;
  std::call_once(once, [] {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    for (auto& [key, factory] : internal::BuiltinSummarizers()) {
      Registry().emplace(key, std::move(factory));
    }
  });
}

/// Checks the method-independent part of the config.
void ValidateCommon(const std::string& key, const SummarizerConfig& cfg) {
  if (!(cfg.s > 0.0) || !std::isfinite(cfg.s)) {
    throw std::invalid_argument("MakeSummarizer(\"" + key +
                                "\"): summary size s must be positive and "
                                "finite");
  }
  if (!(cfg.sprime_factor >= 1.0) || !std::isfinite(cfg.sprime_factor)) {
    throw std::invalid_argument("MakeSummarizer(\"" + key +
                                "\"): sprime_factor must be >= 1");
  }
}

}  // namespace

bool RegisterSummarizer(const std::string& key, SummarizerFactory factory) {
  EnsureBuiltins();
  std::lock_guard<std::mutex> lock(RegistryMutex());
  return Registry().emplace(key, std::move(factory)).second;
}

std::unique_ptr<Summarizer> MakeSummarizer(const std::string& key,
                                           const SummarizerConfig& cfg) {
  EnsureBuiltins();
  // Composed keys: "sharded:<N>:<inner-key>" wraps any mergeable registered
  // method in the shard-parallel ingest backend (api/sharded.h);
  // "windowed:<W>:<B>:<inner-key>" wraps it in the sliding-window ring
  // (window/windowed.h). The wrappers nest through this same entry point,
  // so they compose with each other in either order.
  if (IsShardedKey(key)) {
    ValidateCommon(key, cfg);
    return MakeShardedSummarizer(key, cfg);
  }
  if (IsWindowedKey(key)) {
    ValidateCommon(key, cfg);
    return MakeWindowedSummarizer(key, cfg);
  }
  // "serve:<inner-key>" wraps any sample-backed method in the lock-free
  // serving tier (serve/servable.h): outermost-only (not mergeable), so it
  // wraps the other composed keys but never nests under them.
  if (IsServeKey(key)) {
    ValidateCommon(key, cfg);
    return MakeServableSummarizer(key, cfg);
  }
  SummarizerFactory factory;
  {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    const auto it = Registry().find(key);
    if (it == Registry().end()) {
      throw std::invalid_argument("MakeSummarizer: unknown method key \"" +
                                  key + "\"");
    }
    factory = it->second;
  }
  ValidateCommon(key, cfg);
  return factory(cfg);
}

std::unique_ptr<RangeSummary> BuildSummary(const std::string& key,
                                           const SummarizerConfig& cfg,
                                           std::span<const WeightedKey> items) {
  auto builder = MakeSummarizer(key, cfg);
  builder->AddBatch(items);
  return builder->Finalize();
}

std::vector<std::string> RegisteredSummarizers() {
  EnsureBuiltins();
  std::lock_guard<std::mutex> lock(RegistryMutex());
  std::vector<std::string> out;
  out.reserve(Registry().size());
  for (const auto& [key, factory] : Registry()) out.push_back(key);
  return out;
}

bool IsRegisteredSummarizer(const std::string& key) {
  EnsureBuiltins();
  if (IsShardedKey(key) || IsWindowedKey(key) || IsServeKey(key)) {
    // A composed key is "registered" when it parses and its inner key is.
    // As with any registered key, MakeSummarizer can still reject it for
    // config-dependent reasons — a non-mergeable inner method under
    // sharded:, just like "hierarchy" without cfg.structure.hierarchy set
    // (mergeability is an instance capability, only known once a builder
    // exists).
    try {
      return IsRegisteredSummarizer(
          IsShardedKey(key)    ? ParseShardedKey(key).inner
          : IsWindowedKey(key) ? ParseWindowedKey(key).inner
                               : ParseServeKey(key));
    } catch (const std::invalid_argument&) {
      return false;
    }
  }
  std::lock_guard<std::mutex> lock(RegistryMutex());
  return Registry().contains(key);
}

}  // namespace sas

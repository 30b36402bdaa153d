#include "api/registry.h"

#include <cmath>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "api/composed.h"

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

/// The factory of `key`'s method: the key itself, or for a composed key the
/// innermost key under its layers, which the wrapper grammar table parses
/// into `*composed` first. Throws std::invalid_argument naming `key`.
SummarizerFactory Resolve(const std::string& key,
                          std::optional<ComposedKey>* composed) {
  *composed = ParseComposedKey(key);
  const std::string& method = *composed ? (*composed)->innermost : key;
  std::lock_guard<std::mutex> lock(RegistryMutex());
  const auto it = Registry().find(method);
  if (it == Registry().end()) {
    throw std::invalid_argument("MakeSummarizer(\"" + key +
                                "\"): unknown method key \"" + method + "\"");
  }
  return it->second;
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
  std::optional<ComposedKey> composed;
  const SummarizerFactory factory = Resolve(key, &composed);
  ValidateCommon(key, cfg);
  return composed ? composed->grammar->make(*composed, cfg) : factory(cfg);
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
  std::optional<ComposedKey> composed;
  try {
    Resolve(key, &composed);
  } catch (const std::invalid_argument&) {
    return false;
  }
  return true;
}

}  // namespace sas

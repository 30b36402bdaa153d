// String-keyed factory over every summarization method in the library.
//
// MakeSummarizer(key, cfg) returns a fresh builder for the method
// registered under `key` (canonical keys in api/keys.h; full reference in
// docs/keys.md), validating the configuration eagerly — unknown keys and
// invalid configs throw std::invalid_argument at construction. Errors only
// detectable once the input is known (e.g. an item count that does not
// match the hierarchy or range_of) throw std::invalid_argument from
// Finalize.
//
// The registry is the single place summaries are constructed: the eval
// harness, every bench driver, and the examples go through it, so new
// methods become available to all of them by registering one factory.
// Composed keys are not entries: MakeSummarizer and IsRegisteredSummarizer
// both resolve them through one table of wrapper grammars (api/composed.h),
// then look up the innermost key here.
//
// Thread-safety: the registry itself is internally synchronized — all five
// functions below may be called concurrently from any thread (built-ins
// are registered once, lazily). The *builders* they return are not: a
// Summarizer must be driven by one thread at a time (see
// api/summarizer.h); wrappers like "sharded:" thread internally behind
// that single-caller surface.

#ifndef SAS_API_REGISTRY_H_
#define SAS_API_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/keys.h"
#include "api/summarizer.h"

namespace sas {

/// Factory signature of a registered method: builds a fresh Summarizer for
/// a validated config. Factories must be safe to invoke concurrently (they
/// are called outside the registry lock and may be copied per call site).
using SummarizerFactory =
    std::function<std::unique_ptr<Summarizer>(const SummarizerConfig&)>;

/// Registers a method under `key`. Returns false (and leaves the registry
/// unchanged) if the key is already taken — built-ins cannot be clobbered.
/// Built-in methods are registered on first use of the registry.
/// Thread-safe.
bool RegisterSummarizer(const std::string& key, SummarizerFactory factory);

/// Creates a builder for the method registered under `key`, or for a
/// composed key ("sharded:", "windowed:", "serve:") the wrapper its
/// outermost prefix names, resolved through the wrapper grammar table of
/// api/composed.h. Throws std::invalid_argument naming `key` for an unknown
/// or malformed key or an invalid config (non-positive size, missing
/// hierarchy, bad dimension/bits, a non-mergeable method under a merging
/// wrapper, ...). Thread-safe; the returned builder is single-caller
/// (api/summarizer.h).
std::unique_ptr<Summarizer> MakeSummarizer(const std::string& key,
                                           const SummarizerConfig& cfg);

/// Convenience one-shot build: MakeSummarizer + AddBatch + Finalize.
/// Thread-safe (each call uses its own builder); throws exactly as
/// MakeSummarizer/Finalize do.
std::unique_ptr<RangeSummary> BuildSummary(const std::string& key,
                                           const SummarizerConfig& cfg,
                                           std::span<const WeightedKey> items);

/// All registered keys, sorted (a snapshot; concurrent registrations may
/// land after it is taken). Composed wrapper keys are a grammar, not
/// entries, so they do not appear here. Thread-safe.
std::vector<std::string> RegisteredSummarizers();

/// True when `key` would resolve in MakeSummarizer's lookup: a registered
/// plain key, or a composed key whose every layer parses under the wrapper
/// grammar table and whose innermost key is registered. A registered key
/// can still be rejected at MakeSummarizer time for config-dependent
/// reasons (missing structure descriptor, non-mergeable inner method).
/// Thread-safe.
bool IsRegisteredSummarizer(const std::string& key);

}  // namespace sas

#endif  // SAS_API_REGISTRY_H_

// Composed keys: one grammar table and one wrapper lifecycle behind the key
// wrappers "sharded:<N>:<inner-key>" (api/sharded.h),
// "windowed:<W>:<B>:<inner-key>" (window/windowed.h) and "serve:<inner-key>"
// (serve/servable.h).
//
// A composed key is a wrapper prefix, the wrapper's numeric fields (each
// followed by ':') and the key it wraps, which may be composed again.
// WrapperGrammars() lists each wrapper once; MakeSummarizer and
// IsRegisteredSummarizer (api/registry.h) both resolve composed keys
// through ParseComposedKey, which walks that table, so every key is judged
// in one place and every rejection reads
//   MakeSummarizer("<the whole composed key>"): <reason>
//
// WrapperSummarizer is the base of the three wrappers. It owns what they
// share — the live / poisoned / finalized lifecycle and its guards, Reset's
// bookkeeping, the s >= 1 and mergeable-inner checks, the inner-builder
// factory and the sample-backed check at Finalize — so each wrapper keeps
// only its engine.

#ifndef SAS_API_COMPOSED_H_
#define SAS_API_COMPOSED_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/summarizer.h"

namespace sas {

class SampleSummary;
struct ComposedKey;

/// A numeric field: an integer in [lo, hi] written as plain digits, or
/// (hi == 0) a positive finite decimal of digits and at most one '.'.
struct KeyField {
  const char* name;
  int lo = 0;
  int hi = 0;
};

/// One row of the wrapper grammar table.
struct WrapperGrammar {
  const char* prefix;  // "sharded:"
  const char* form;    // "sharded:<N>:<inner-key>", quoted in errors
  std::vector<KeyField> fields;
  /// Splits the stream across inner builders and VarOpt-merges their
  /// samples (sharded:, windowed:): needs s >= 1 and a mergeable inner
  /// method, and admits records itself, so its inner builders do not count
  /// them again. A non-merging wrapper (serve:) forwards the stream
  /// unchanged to one inner builder, which admits and counts it.
  bool merges;
  /// May not sit under another wrapper (serve:).
  bool outermost_only;
  std::unique_ptr<Summarizer> (*make)(const ComposedKey& key,
                                      const SummarizerConfig& cfg);
};

/// The wrapper grammar table: sharded:, windowed:, serve:.
const std::vector<WrapperGrammar>& WrapperGrammars();

/// The outermost layer of a parsed composed key.
struct ComposedKey {
  const WrapperGrammar* grammar = nullptr;
  std::string key;             // the whole key
  std::vector<double> fields;  // this layer's fields, in grammar order
  std::string inner;           // the key this layer wraps
  std::string innermost;       // the plain method key under every layer
};

/// Parses every layer of `key`, or returns std::nullopt for a plain method
/// key. Throws std::invalid_argument naming the whole key for a malformed
/// layer at any depth, or an outermost-only wrapper below another wrapper.
/// Whether the innermost key is registered is the registry's check.
std::optional<ComposedKey> ParseComposedKey(const std::string& key);

/// The shared base of the key wrappers. Construct through MakeSummarizer.
class WrapperSummarizer : public Summarizer {
 public:
  /// True once the engine failed mid-update (a shard worker, a bucket seal,
  /// a merge): ingest and queries throw std::runtime_error until
  /// Reset(seed) recovers. Safe to read from any thread.
  bool poisoned() const { return state() == State::kPoisoned; }

 protected:
  /// Throws std::invalid_argument for s < 1 under a merging wrapper (the
  /// merged sample budget is integral).
  WrapperSummarizer(const ComposedKey& key, const SummarizerConfig& cfg);

  /// Throws std::invalid_argument "MakeSummarizer(\"<key>\"): <why>".
  [[noreturn]] void BadKey(const std::string& why) const;

  /// The guard of every ingest and query call, a plain load while live:
  /// throws std::logic_error once finalized (or spent by a refused Reset),
  /// std::runtime_error once poisoned.
  void RequireLive(const char* call) const {
    if (state() != State::kLive) [[unlikely]] ThrowNotLive(call);
  }
  [[noreturn]] void ThrowNotLive(const char* call) const;
  bool finalized() const { return state() == State::kFinalized; }
  void Poison() { state_.store(State::kPoisoned, std::memory_order_release); }
  void MarkFinalized() {
    state_.store(State::kFinalized, std::memory_order_release);
  }

  /// Reset's bookkeeping once the engine has recycled: live again, counters
  /// cleared, config seed `seed`.
  void Restart(std::uint64_t seed);
  /// Reset's refusal when the inner method does not recycle: the builder
  /// stays spent. Returns false.
  bool Refuse() {
    MarkFinalized();
    return false;
  }

  /// The one memory-budget model (SummarizerConfig::max_bytes) of the
  /// merging wrappers, which hold `parts` samples of size s at
  /// kBytesPerSampleEntry bytes per entry: halves s while that exceeds
  /// max_bytes and s >= 2, counts each halving in IngestStats::degradations,
  /// logs any step to stderr once, and returns the fitted s. max_bytes = 0
  /// is unbounded.
  double FitToBudget(double s, std::size_t parts);

  /// The inner-builder factory: the inner key under this config with
  /// `seed`, `s` and `max_bytes` swapped in, its std::invalid_argument
  /// rethrown naming this key. A merging wrapper's inner builders must be
  /// mergeable and do not mirror their ingest counters.
  std::unique_ptr<Summarizer> MakeInner(std::uint64_t seed, double s,
                                        std::size_t max_bytes) const;

  /// The sample of a finalized inner summary. One that is not sample-backed
  /// throws std::logic_error under a merging wrapper (its method claimed
  /// Mergeable()) and std::invalid_argument otherwise.
  SampleSummary& InnerSample(RangeSummary& summary) const;

  const std::string key_;        // the composed key, the summary's Name()
  const std::string inner_key_;  // the key this wrapper wraps

 private:
  enum class State : std::uint8_t { kLive, kPoisoned, kFinalized };
  State state() const { return state_.load(std::memory_order_acquire); }

  const WrapperGrammar* grammar_;
  std::atomic<State> state_{State::kLive};
};

}  // namespace sas

#endif  // SAS_API_COMPOSED_H_

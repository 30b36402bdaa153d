#include "api/composed.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "api/keys.h"
#include "api/registry.h"
#include "api/sharded.h"
#include "api/summary.h"
#include "serve/servable.h"
#include "window/windowed.h"

namespace sas {

namespace {

[[noreturn]] void BadKey(const std::string& key, const std::string& why) {
  throw std::invalid_argument("MakeSummarizer(\"" + key + "\"): " + why);
}

template <class Wrapper>
std::unique_ptr<Summarizer> Make(const ComposedKey& key,
                                 const SummarizerConfig& cfg) {
  return std::make_unique<Wrapper>(key, cfg);
}

const WrapperGrammar* GrammarOf(std::string_view key) {
  for (const WrapperGrammar& g : WrapperGrammars()) {
    if (key.starts_with(g.prefix)) return &g;
  }
  return nullptr;
}

/// Parses field `f` from `text`; `key` is the whole key, for the error.
double ParseField(const std::string& key, const KeyField& f,
                  std::string_view text) {
  const bool decimal = f.hi == 0;
  const std::string what =
      std::string(f.name) + " \"" + std::string(text) + "\"";
  if (text.find_first_of("0123456789") == std::string_view::npos ||
      text.find_first_not_of("0123456789.") != std::string_view::npos ||
      std::count(text.begin(), text.end(), '.') > (decimal ? 1 : 0)) {
    BadKey(key, what + (decimal ? " is not a positive number"
                                : " is not a positive integer"));
  }
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end ||
      !(decimal ? v > 0.0 && std::isfinite(v) : v >= f.lo && v <= f.hi)) {
    BadKey(key, what + (decimal ? " must be positive and finite"
                                : " must be in [" + std::to_string(f.lo) +
                                      ", " + std::to_string(f.hi) + "]"));
  }
  return v;
}

}  // namespace

const std::vector<WrapperGrammar>& WrapperGrammars() {
  static const std::vector<WrapperGrammar> table = {
      {keys::kShardedPrefix, "sharded:<N>:<inner-key>",
       {{"shard count", 1, 64}}, /*merges=*/true, /*outermost_only=*/false,
       &Make<ShardedSummarizer>},
      {keys::kWindowedPrefix, "windowed:<W>:<B>:<inner-key>",
       {{"window span"}, {"bucket count", 1, 4096}}, /*merges=*/true,
       /*outermost_only=*/false, &Make<WindowedSummarizer>},
      {keys::kServePrefix, "serve:<inner-key>", {}, /*merges=*/false,
       /*outermost_only=*/true, &Make<ServableSummarizer>},
  };
  return table;
}

std::optional<ComposedKey> ParseComposedKey(const std::string& key) {
  const WrapperGrammar* g = GrammarOf(key);
  if (g == nullptr) return std::nullopt;
  ComposedKey out;
  out.grammar = g;
  out.key = key;
  std::string_view rest = key;
  for (bool outer = true; g != nullptr; outer = false, g = GrammarOf(rest)) {
    if (g->outermost_only && !outer) {
      BadKey(key, std::string(g->prefix) +
                      " must be the outermost wrapper (expected \"" +
                      g->form + "\" around every other layer)");
    }
    rest.remove_prefix(std::strlen(g->prefix));
    for (const KeyField& f : g->fields) {
      const std::size_t colon = rest.find(':');
      if (colon == std::string_view::npos) {
        BadKey(key, std::string("missing inner key (expected \"") + g->form +
                        "\")");
      }
      const double v = ParseField(key, f, rest.substr(0, colon));
      if (outer) out.fields.push_back(v);
      rest.remove_prefix(colon + 1);
    }
    if (rest.empty()) {
      BadKey(key, std::string("empty inner key (expected \"") + g->form +
                      "\")");
    }
    if (outer) out.inner = rest;
  }
  out.innermost = rest;
  return out;
}

WrapperSummarizer::WrapperSummarizer(const ComposedKey& key,
                                     const SummarizerConfig& cfg)
    : Summarizer(cfg),
      key_(key.key),
      inner_key_(key.inner),
      grammar_(key.grammar) {
  if (grammar_->merges && cfg.s < 1.0) {
    BadKey("summary size s must be >= 1 for a merging wrapper (the merged "
           "sample budget is integral)");
  }
}

void WrapperSummarizer::BadKey(const std::string& why) const {
  sas::BadKey(key_, why);
}

void WrapperSummarizer::ThrowNotLive(const char* call) const {
  const std::string who = "\"" + key_ + "\": " + call;
  if (finalized()) {
    throw std::logic_error(who + " after Finalize (builders are spent once "
                                 "finalized; Reset(seed) builds another)");
  }
  throw std::runtime_error(
      who + " on a poisoned builder (a worker, bucket seal or merge failed "
            "mid-update; Finalize reports the failure, Reset(seed) "
            "recovers)");
}

void WrapperSummarizer::Restart(std::uint64_t seed) {
  cfg_.seed = seed;
  stats_ = IngestStats{};
  state_.store(State::kLive, std::memory_order_release);
}

double WrapperSummarizer::FitToBudget(double s, std::size_t parts) {
  const std::size_t budget = cfg_.max_bytes;
  const double before = s;
  while (budget > 0 && s >= 2.0 &&
         parts * static_cast<std::size_t>(s) * kBytesPerSampleEntry > budget) {
    s /= 2.0;
    CountDegradation();
  }
  if (s != before) {
    std::fprintf(stderr,
                 "sas: %s: max_bytes=%zu: degraded s %g -> %g (%zu samples "
                 "held)\n",
                 key_.c_str(), budget, before, s, parts);
  }
  return s;
}

std::unique_ptr<Summarizer> WrapperSummarizer::MakeInner(
    std::uint64_t seed, double s, std::size_t max_bytes) const {
  SummarizerConfig inner_cfg = cfg_;
  inner_cfg.seed = seed;
  inner_cfg.s = s;
  inner_cfg.max_bytes = max_bytes;
  std::unique_ptr<Summarizer> inner;
  try {
    inner = MakeSummarizer(inner_key_, inner_cfg);
  } catch (const std::invalid_argument& e) {
    BadKey(e.what());
  }
  if (grammar_->merges) {
    if (!inner->Mergeable()) {
      BadKey("inner method \"" + inner_key_ +
             "\" is not mergeable (its summary is not a partition-tolerant "
             "VarOpt sample)");
    }
    inner->mirror_ingest_ = false;
  }
  return inner;
}

SampleSummary& WrapperSummarizer::InnerSample(RangeSummary& summary) const {
  if (auto* sample = dynamic_cast<SampleSummary*>(&summary)) return *sample;
  const std::string why = "\"" + key_ + "\": inner summary \"" +
                          summary.Name() + "\" is not sample-backed";
  if (grammar_->merges) {
    // Mergeable() promised a sample-backed summary; a custom method that
    // lies about the capability is a programming error.
    throw std::logic_error(why + ", although its method is Mergeable()");
  }
  throw std::invalid_argument(
      why + " (the serving tier snapshots samples; wrap a sampling method "
            "or a sharded:/windowed: composition over one)");
}

}  // namespace sas

// Composed-key tests: the wrapper grammar table (api/composed.h) is the one
// parser of "sharded:", "windowed:" and "serve:" keys. Pins the accepted
// edge forms and the fields they parse to, rejects every malformed form
// with a std::invalid_argument naming the whole key, keeps MakeSummarizer
// and IsRegisteredSummarizer in agreement under a seeded key mutator, and
// checks that each record is counted once in sas.ingest.* whatever the
// composition. Also pins the edges of the wrappers' one max_bytes budget
// model (WrapperSummarizer::FitToBudget).

#include "api/composed.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.h"
#include "core/random.h"
#include "core/telemetry.h"
#include "window/windowed.h"
#include "test_util.h"

namespace sas {
namespace {

using test::RandomItems;

struct WellFormed {
  std::string key;
  std::string prefix;
  std::vector<double> fields;
  std::string inner;
  std::string innermost;
};

const std::vector<WellFormed>& WellFormedKeys() {
  static const std::vector<WellFormed> keys = {
      {"sharded:4:obliv", "sharded:", {4}, "obliv", "obliv"},
      // Nested composition parses one level at a time.
      {"sharded:2:sharded:3:aware", "sharded:", {2}, "sharded:3:aware",
       "aware"},
      {"sharded:04:obliv", "sharded:", {4}, "obliv", "obliv"},
      {"windowed:3600:60:obliv", "windowed:", {3600, 60}, "obliv", "obliv"},
      // Decimal window spans and composed inner keys parse.
      {"windowed:2.5:5:product", "windowed:", {2.5, 5}, "product", "product"},
      {"windowed:60:4:sharded:2:obliv", "windowed:", {60, 4},
       "sharded:2:obliv", "obliv"},
      {"windowed:60:4:windowed:10:2:obliv", "windowed:", {60, 4},
       "windowed:10:2:obliv", "obliv"},
      {"windowed:.5:4:obliv", "windowed:", {0.5, 4}, "obliv", "obliv"},
      {"windowed:5.:4:obliv", "windowed:", {5, 4}, "obliv", "obliv"},
      {"windowed:60:004:obliv", "windowed:", {60, 4}, "obliv", "obliv"},
      {"sharded:2:windowed:60:4:obliv", "sharded:", {2},
       "windowed:60:4:obliv", "obliv"},
      {"serve:obliv", "serve:", {}, "obliv", "obliv"},
      {"serve:windowed:10:2:obliv", "serve:", {}, "windowed:10:2:obliv",
       "obliv"},
      {"serve:sharded:2:windowed:60:4:obliv", "serve:", {},
       "sharded:2:windowed:60:4:obliv", "obliv"},
  };
  return keys;
}

std::vector<std::string> MalformedKeys() {
  std::vector<std::string> keys = {
      // sharded:
      "sharded:", "sharded:4", "sharded::obliv", "sharded:0:obliv",
      "sharded:-1:obliv", "sharded:abc:obliv", "sharded:4:",
      "sharded:65:obliv", "sharded:99999999999999999999:obliv",
      "sharded:4:no-such-method", "sharded:4.:obliv", "sharded:2:nope",
      // windowed:
      "windowed:", "windowed:60", "windowed:60:4", "windowed::4:obliv",
      "windowed:0:4:obliv", "windowed:-1:4:obliv", "windowed:1e3:4:obliv",
      "windowed:abc:4:obliv", "windowed:6.0.0:4:obliv", "windowed:.:4:obliv",
      "windowed:60:0:obliv", "windowed:60:-2:obliv", "windowed:60:abc:obliv",
      "windowed:60:4097:obliv", "windowed:60:99999999999999999999:obliv",
      "windowed:60:4:", "windowed:60:4:no-such-method",
      // A span overflowing double's range, and one underflowing to zero.
      "windowed:" + std::string(310, '9') + ":8:obliv",
      "windowed:0." + std::string(330, '0') + "1:8:obliv",
      // serve:, including the outermost-only rule.
      "serve:", "serve:no-such-method", "sharded:2:serve:obliv",
      "windowed:60:4:serve:obliv", "serve:serve:obliv",
      // A malformed layer below a well-formed one.
      "sharded:2:windowed:abc:4:obliv", "windowed:60:4:sharded:0:obliv",
      "serve:sharded:2:windowed:60:4:nope",
  };
  return keys;
}

/// MakeSummarizer's verdict on `key`: true when it builds, false when it
/// throws std::invalid_argument, whose message must name the whole key.
/// Any other exception fails the test.
bool Builds(const std::string& key, const SummarizerConfig& cfg) {
  try {
    (void)MakeSummarizer(key, cfg);
    return true;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("\"" + key + "\""),
              std::string::npos)
        << e.what();
    return false;
  }
}

TEST(ComposedKey, ParsesWellFormedKeysToTheirFields) {
  SummarizerConfig cfg;
  cfg.s = 16.0;
  for (const WellFormed& w : WellFormedKeys()) {
    const std::optional<ComposedKey> parsed = ParseComposedKey(w.key);
    ASSERT_TRUE(parsed.has_value()) << w.key;
    EXPECT_EQ(parsed->key, w.key);
    EXPECT_EQ(parsed->grammar->prefix, w.prefix) << w.key;
    EXPECT_EQ(parsed->fields, w.fields) << w.key;
    EXPECT_EQ(parsed->inner, w.inner) << w.key;
    EXPECT_EQ(parsed->innermost, w.innermost) << w.key;
    EXPECT_TRUE(IsRegisteredSummarizer(w.key)) << w.key;
    EXPECT_TRUE(Builds(w.key, cfg)) << w.key;
  }
  // Plain method keys are not composed.
  for (const char* plain : {"obliv", "product", "order-2p", ""}) {
    EXPECT_FALSE(ParseComposedKey(plain).has_value()) << plain;
  }
}

TEST(ComposedKey, MalformedKeysThrowNamingTheWholeKey) {
  SummarizerConfig cfg;
  cfg.s = 16.0;
  for (const std::string& bad : MalformedKeys()) {
    EXPECT_FALSE(IsRegisteredSummarizer(bad)) << bad;
    EXPECT_FALSE(Builds(bad, cfg)) << bad;
  }
}

TEST(ComposedKey, InnerConfigErrorsNameTheWholeKey) {
  // Config-dependent rejections raised while building an inner layer (a
  // non-mergeable method, a fractional s) still name the outer key.
  SummarizerConfig cfg;
  cfg.s = 16.0;
  for (const std::string key :
       {"sharded:2:wavelet", "windowed:60:4:sharded:2:wavelet",
        "serve:sharded:2:windowed:60:4:qdigest"}) {
    EXPECT_TRUE(IsRegisteredSummarizer(key)) << key;
    EXPECT_FALSE(Builds(key, cfg)) << key;
  }
  cfg.s = 0.5;
  EXPECT_FALSE(Builds("serve:sharded:2:obliv", cfg));
}

TEST(ComposedKey, MutatedKeysBuildOrThrowInvalidArgument) {
  // Seeded mutator: 1-3 layers over an inner key. Each layer usually takes
  // a real prefix with its own number of fields, each field usually a
  // valid form; otherwise a misspelt prefix, a wrong field count, or an
  // edge-case field. Valid shard counts are at most 4, so no key spawns
  // more than 64 workers.
  struct Layer {
    std::string prefix;
    std::vector<std::vector<std::string>> valid;  // valid forms per field
  };
  const std::vector<Layer> layers = {
      {"sharded", {{"1", "2", "3", "04"}}},
      {"windowed", {{"1", "60", ".5", "5."}, {"1", "2", "004"}}},
      {"serve", {}},
  };
  const std::vector<std::string> bad_prefixes = {"shard", "Sharded", "",
                                                 "serve ", "windowed:"};
  const std::vector<std::string> bad_fields = {
      "0",   "65", "-1",    "abc", "",   "1e3", "6.0.0", "4097",
      "99999999999999999999", " 2",  ".",  "+1",  "0x2"};
  const std::vector<std::string> inners = {"obliv", "product", "obliv",
                                           "no-such-method", "", "obliv:"};
  Rng rng(20261017);
  const auto pick = [&rng](const std::vector<std::string>& v) {
    return v[rng.NextBounded(v.size())];
  };
  SummarizerConfig cfg;
  cfg.s = 16.0;
  int built = 0;
  constexpr int kKeys = 600;
  for (int iter = 0; iter < kKeys; ++iter) {
    std::string key;
    const std::uint64_t depth = 1 + rng.NextBounded(3);
    for (std::uint64_t d = 0; d < depth; ++d) {
      const Layer& layer = layers[rng.NextBounded(layers.size())];
      key += (rng.NextBounded(8) == 0 ? pick(bad_prefixes) : layer.prefix) +
             ":";
      std::size_t n = layer.valid.size();
      if (rng.NextBounded(8) == 0) n = rng.NextBounded(3);
      for (std::size_t f = 0; f < n; ++f) {
        const bool valid = f < layer.valid.size() && rng.NextBounded(8) != 0;
        key += (valid ? pick(layer.valid[f]) : pick(bad_fields)) + ":";
      }
    }
    key += pick(inners);
    const bool registered = IsRegisteredSummarizer(key);
    EXPECT_EQ(Builds(key, cfg), registered) << key;
    built += registered ? 1 : 0;
  }
  // The mutator must reach both verdicts often to test anything.
  EXPECT_GT(built, kKeys / 10);
  EXPECT_LT(built, kKeys * 9 / 10);
}

// --- Ingest counting -------------------------------------------------------

class ScopedTelemetry {
 public:
  ScopedTelemetry() : was_(telemetry::Enabled()) {
    telemetry::SetEnabled(true);
  }
  ~ScopedTelemetry() { telemetry::SetEnabled(was_); }

 private:
  bool was_;
};

const std::vector<std::string>& CountingKeys() {
  static const std::vector<std::string> keys = {
      "sharded:2:obliv",
      "serve:obliv",
      "windowed:60:4:obliv",
      "serve:windowed:60:4:obliv",
      "sharded:2:sharded:2:obliv",
      "windowed:60:4:sharded:2:obliv",
      "sharded:2:windowed:60:4:obliv",
  };
  return keys;
}

TEST(ComposedIngest, EachRecordIsCountedOnce) {
  ScopedTelemetry armed;
  telemetry::Counter* accepted = telemetry::GetCounter("sas.ingest.accepted");
  Rng rng(61);
  const auto items = RandomItems(1000, 1 << 12, &rng);
  const std::size_t half = items.size() / 2;
  for (const std::string& key : CountingKeys()) {
    SummarizerConfig cfg;
    cfg.s = 50.0;
    auto builder = MakeSummarizer(key, cfg);
    const std::uint64_t before = accepted->value();
    builder->AddBatch(std::span(items).first(half));
    for (std::size_t i = half; i < items.size(); ++i) builder->Add(items[i]);
    // Inner builders count on worker threads and at bucket seals, so read
    // the counter once the build is complete.
    (void)builder->Finalize();
    EXPECT_EQ(accepted->value() - before, items.size()) << key;
    EXPECT_EQ(builder->Describe().accepted, items.size()) << key;
  }
}

TEST(ComposedIngest, TimedIngestIsCountedOnce) {
  // Timestamped ingest through AsWindowed() — for serve:windowed, the
  // pass-through to the inner ring — is counted exactly like Add.
  ScopedTelemetry armed;
  telemetry::Counter* accepted = telemetry::GetCounter("sas.ingest.accepted");
  Rng rng(62);
  const auto items = RandomItems(1000, 1 << 12, &rng);
  for (const std::string key :
       {"windowed:60:4:obliv", "serve:windowed:60:4:obliv",
        "windowed:60:4:sharded:2:obliv"}) {
    SummarizerConfig cfg;
    cfg.s = 50.0;
    auto builder = MakeSummarizer(key, cfg);
    WindowedSummarizer* win = builder->AsWindowed();
    ASSERT_NE(win, nullptr) << key;
    const std::uint64_t before = accepted->value();
    for (std::size_t i = 0; i < items.size(); ++i) {
      win->AddTimed(static_cast<double>(i % 50), items[i]);
    }
    (void)builder->Finalize();
    EXPECT_EQ(accepted->value() - before, items.size()) << key;
    EXPECT_EQ(builder->Describe().accepted, items.size()) << key;
  }
}

TEST(ComposedIngest, QuarantinedRecordsAreCountedOnce) {
  ScopedTelemetry armed;
  telemetry::Counter* accepted = telemetry::GetCounter("sas.ingest.accepted");
  telemetry::Counter* rejected =
      telemetry::GetCounter("sas.ingest.rejected_weight");
  Rng rng(63);
  auto items = RandomItems(1000, 1 << 12, &rng);
  const Weight bad[] = {-1.0, std::numeric_limits<Weight>::quiet_NaN(),
                        std::numeric_limits<Weight>::infinity(), -0.5,
                        -std::numeric_limits<Weight>::infinity()};
  const std::size_t k = std::size(bad);
  for (std::size_t j = 0; j < k; ++j) items[37 * j + 11].weight = bad[j];
  for (const std::string& key : CountingKeys()) {
    SummarizerConfig cfg;
    cfg.s = 50.0;
    cfg.ingest_policy = IngestPolicy::kQuarantine;
    auto builder = MakeSummarizer(key, cfg);
    const std::uint64_t accepted_before = accepted->value();
    const std::uint64_t rejected_before = rejected->value();
    builder->AddBatch(items);
    (void)builder->Finalize();
    EXPECT_EQ(rejected->value() - rejected_before, k) << key;
    EXPECT_EQ(accepted->value() - accepted_before, items.size() - k) << key;
    EXPECT_EQ(builder->Describe().rejected_weight, k) << key;
    EXPECT_EQ(builder->Describe().accepted, items.size() - k) << key;
  }
}

/// A bare merging wrapper under a max_bytes budget, to call the budget
/// model directly.
class BudgetProbe final : public WrapperSummarizer {
 public:
  explicit BudgetProbe(std::size_t max_bytes)
      : WrapperSummarizer(*ParseComposedKey("sharded:2:obliv"),
                          Config(max_bytes)) {}
  void AddBatch(std::span<const WeightedKey> /*items*/) override {}
  std::unique_ptr<RangeSummary> Finalize() override { return nullptr; }
  using WrapperSummarizer::FitToBudget;

 private:
  static SummarizerConfig Config(std::size_t max_bytes) {
    SummarizerConfig cfg;
    cfg.max_bytes = max_bytes;
    return cfg;
  }
};

TEST(WrapperBudget, ZeroMaxBytesIsUnbounded) {
  BudgetProbe probe(0);
  EXPECT_EQ(probe.FitToBudget(1e6, 64), 1e6);
  EXPECT_EQ(probe.Describe().degradations, 0u);
}

TEST(WrapperBudget, ExactFitDoesNotHalve) {
  BudgetProbe exact(4 * 100 * kBytesPerSampleEntry);
  EXPECT_EQ(exact.FitToBudget(100.0, 4), 100.0);
  EXPECT_EQ(exact.Describe().degradations, 0u);
  // One byte less halves once.
  BudgetProbe short_by_one(4 * 100 * kBytesPerSampleEntry - 1);
  EXPECT_EQ(short_by_one.FitToBudget(100.0, 4), 50.0);
  EXPECT_EQ(short_by_one.Describe().degradations, 1u);
}

TEST(WrapperBudget, HalvingStopsOnceSIsBelowTwo) {
  // Nothing fits one byte: 12 -> 6 -> 3 -> 1.5, then stop.
  BudgetProbe probe(1);
  EXPECT_EQ(probe.FitToBudget(12.0, 3), 1.5);
  EXPECT_EQ(probe.Describe().degradations, 3u);
  BudgetProbe at_floor(1);
  EXPECT_EQ(at_floor.FitToBudget(1.0, 3), 1.0);
  EXPECT_EQ(at_floor.Describe().degradations, 0u);
}

}  // namespace
}  // namespace sas

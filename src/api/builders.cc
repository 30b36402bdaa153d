// Built-in Summarizer implementations: adapters that put every method in
// the library — the in-memory structure-aware samplers, the Section 5
// two-pass constructions, and the Section 6 baselines — behind the uniform
// AddBatch/Finalize surface of api/summarizer.h. The registry
// (api/registry.cc) pulls its built-in factory table from here.
//
// Determinism contract: a builder seeded with cfg.seed produces exactly the
// sample a direct call of the underlying function produces with
// Rng rng(cfg.seed) — the registry equivalence tests pin this.

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/adapters.h"
#include "api/keys.h"
#include "api/registry.h"
#include "api/summarizer.h"
#include "aware/disjoint_summarizer.h"
#include "aware/hierarchy_summarizer.h"
#include "aware/order_summarizer.h"
#include "aware/product_summarizer.h"
#include "aware/summarize_scratch.h"
#include "aware/two_pass.h"
#include "core/random.h"
#include "sampling/stream_varopt.h"
#include "structure/hierarchy.h"

namespace sas {
namespace {

[[noreturn]] void InvalidConfig(const char* key, const std::string& why) {
  throw std::invalid_argument(std::string("MakeSummarizer(\"") + key +
                              "\"): " + why);
}

/// Base for methods that need the whole input before building.
class BufferingSummarizer : public Summarizer {
 public:
  using Summarizer::Summarizer;

  void AddBatch(std::span<const WeightedKey> items) override {
    AdmitBatch(items, [this](std::span<const WeightedKey> run) {
      items_.insert(items_.end(), run.begin(), run.end());
      return run.size();
    });
  }

  /// Buffering methods recycle trivially: drop the buffer (keeping its
  /// capacity) and reseed. All of their randomness is drawn at Finalize
  /// from Rng(cfg_.seed), so a recycled builder is indistinguishable from
  /// a fresh one.
  bool Reset(std::uint64_t seed) override {
    items_.clear();
    stats_ = IngestStats{};
    cfg_.seed = seed;
    return true;
  }

 protected:
  std::vector<WeightedKey> items_;
};

/// Converts an index-based SummarizeOutput into the SampleSummary the
/// builder returns. The probs vector is moved into the summary (the summary
/// owns its storage); the scratch and the rest of `out` keep their capacity
/// for the next Reset cycle.
std::unique_ptr<SampleSummary> TakeSampleSummary(
    const char* key, const std::vector<WeightedKey>& items,
    SummarizeOutput* out) {
  std::vector<WeightedKey> entries;
  entries.reserve(out->chosen.size());
  for (std::uint32_t i : out->chosen) entries.push_back(items[i]);
  return std::make_unique<SampleSummary>(
      key, Sample(out->tau, std::move(entries)), std::move(out->probs));
}

// ---------------------------------------------------------------------------
// Structure-aware samplers over a buffered stream: in memory (Sections 3
// and 4) through a private scratch, or, for the `*-2p` keys and `aware`,
// the Section 5 two-pass construction replaying the buffer.

class StructureBuilder : public BufferingSummarizer {
 public:
  StructureBuilder(SummarizerConfig cfg, bool two_pass)
      : BufferingSummarizer(std::move(cfg)), two_pass_(two_pass) {}

 protected:
  TwoPassConfig two_pass_config() const { return {cfg_.sprime_factor}; }

  const bool two_pass_;
  SummarizeScratch scratch_;
  SummarizeOutput out_;
};

class OrderBuilder : public StructureBuilder {
 public:
  using StructureBuilder::StructureBuilder;
  bool Mergeable() const override { return true; }
  std::unique_ptr<RangeSummary> Finalize() override {
    Rng rng(cfg_.seed);
    if (two_pass_) {
      return std::make_unique<SampleSummary>(
          keys::kOrderTwoPass,
          TwoPassOrderSample(items_, cfg_.s, two_pass_config(), &rng));
    }
    OrderSummarizeInto(items_, cfg_.s, &rng, &scratch_, &out_);
    return TakeSampleSummary(keys::kOrder, items_, &out_);
  }
};

class HierarchyBuilder : public StructureBuilder {
 public:
  using StructureBuilder::StructureBuilder;
  std::unique_ptr<RangeSummary> Finalize() override {
    const char* key = two_pass_ ? keys::kHierarchyTwoPass : keys::kHierarchy;
    const Hierarchy* h = cfg_.structure.hierarchy;
    if (h->num_keys() != items_.size()) {
      InvalidConfig(key, "hierarchy has " + std::to_string(h->num_keys()) +
                             " keys but " + std::to_string(items_.size()) +
                             " items were added");
    }
    Rng rng(cfg_.seed);
    if (two_pass_) {
      return std::make_unique<SampleSummary>(
          key, TwoPassHierarchySample(items_, *h, cfg_.s, two_pass_config(),
                                      cfg_.hierarchy_partition, &rng));
    }
    HierarchySummarizeInto(items_, *h, cfg_.s, &rng, &scratch_, &out_);
    return TakeSampleSummary(key, items_, &out_);
  }
};

class DisjointBuilder : public StructureBuilder {
 public:
  using StructureBuilder::StructureBuilder;
  std::unique_ptr<RangeSummary> Finalize() override {
    const char* key = two_pass_ ? keys::kDisjointTwoPass : keys::kDisjoint;
    const StructureSpec& spec = cfg_.structure;
    if (spec.range_of.size() != items_.size()) {
      InvalidConfig(key,
                    "range_of must have exactly one entry per added item");
    }
    Rng rng(cfg_.seed);
    if (two_pass_) {
      return std::make_unique<SampleSummary>(
          key, TwoPassDisjointSample(items_, spec.range_of, spec.num_ranges,
                                     cfg_.s, two_pass_config(), &rng));
    }
    DisjointSummarizeInto(items_, spec.range_of, spec.num_ranges, cfg_.s,
                          &rng, &scratch_, &out_);
    return TakeSampleSummary(key, items_, &out_);
  }
};

/// `product`, `nd` and `aware`: one buffered product-space builder, in
/// memory (Section 4) or, for `aware`, the two-pass construction (2-D).
/// Every ingest path stores a WeightedKey. A coordinate point becomes an
/// item under the caller's id whose pt is its first two axes; at dims > 2
/// its full coordinates also go to coords_. `product` is this builder at
/// dims = 2 with no coordinate path, which NdBuilder adds.
class ProductBuilder : public StructureBuilder {
 public:
  explicit ProductBuilder(SummarizerConfig cfg,
                          const char* key = keys::kProduct, int dims = 2,
                          bool two_pass = false)
      : StructureBuilder(std::move(cfg), two_pass), key_(key), dims_(dims) {}

  void AddBatch(std::span<const WeightedKey> items) override {
    if (items.empty()) return;
    Enter(/*coords=*/false);
    BufferingSummarizer::AddBatch(items);
  }

  /// Mergeable: every ingest path stores the caller's id, which is stable
  /// across a partition.
  bool Mergeable() const override { return true; }

  bool Reset(std::uint64_t seed) override {
    coords_.clear();  // the ingest mode resets with the emptied items_
    return BufferingSummarizer::Reset(seed);
  }

  std::unique_ptr<RangeSummary> Finalize() override {
    Rng rng(cfg_.seed);
    if (two_pass_) {
      return std::make_unique<SampleSummary>(
          key_, TwoPassProductSample(items_, cfg_.s, two_pass_config(), &rng));
    }
    ProductSummarizeInto(items_, dims_, coords_, cfg_.s, &rng, &scratch_,
                         &out_);
    return TakeSampleSummary(key_, items_, &out_);
  }

 protected:
  /// Admits one coordinate point under `id`.
  void AddPoint(KeyId id, const Coord* coords, int dims, Weight w) {
    if (dims != dims_) {
      InvalidConfig(keys::kNd, "AddCoords dims does not match structure");
    }
    Enter(/*coords=*/true);
    if (!AdmitWeight(w)) return;
    items_.push_back({id, w, {coords[0], dims > 1 ? coords[1] : 0}});
    if (dims > 2) coords_.insert(coords_.end(), coords, coords + dims);
  }

 private:
  /// Throws std::logic_error unless points may enter through AddBatch
  /// (`coords` false) or AddCoords: a WeightedKey carries at most 2 axes,
  /// and the two do not mix once a point is admitted.
  void Enter(bool coords) {
    if (!coords && dims_ > 2) {
      throw std::logic_error(
          "nd summarizer: Add/AddBatch carry only 2 coordinates; use "
          "AddCoords for dims > 2");
    }
    if (items_.empty()) coords_mode_ = coords;
    if (coords != coords_mode_) {
      throw std::logic_error("nd summarizer: do not mix Add and AddCoords");
    }
  }

  const char* const key_;
  const int dims_;
  bool coords_mode_ = false;   // the admitted points came through AddCoords
  std::vector<Coord> coords_;  // dims > 2 only: point i at [i*dims_, +dims_)
};

/// d-dimensional product sampler: `product` at structure.dims axes, plus
/// the coordinate ingest path.
class NdBuilder final : public ProductBuilder {
 public:
  using ProductBuilder::ProductBuilder;

  void AddCoords(KeyId id, const Coord* coords, int dims,
                 Weight w) override {
    AddPoint(id, coords, dims, w);
  }
};

// ---------------------------------------------------------------------------
// Baselines (Section 6).

class OblivBuilder : public Summarizer {
 public:
  explicit OblivBuilder(SummarizerConfig cfg)
      : Summarizer(std::move(cfg)),
        sketch_(static_cast<std::size_t>(cfg_.s), Rng(cfg_.seed)) {}

  void AddBatch(std::span<const WeightedKey> items) override {
    AdmitBatch(items, [this](std::span<const WeightedKey> run) {
      sketch_.PushBatch(run);
      return run.size();
    });
  }

  bool Mergeable() const override { return true; }

  bool Reset(std::uint64_t seed) override {
    sketch_.Reset(Rng(seed));
    stats_ = IngestStats{};
    cfg_.seed = seed;
    return true;
  }

  std::unique_ptr<RangeSummary> Finalize() override {
    return std::make_unique<SampleSummary>(keys::kObliv,
                                           sketch_.TakeSample());
  }

 private:
  StreamVarOpt sketch_;
};

class WaveletBuilder : public BufferingSummarizer {
 public:
  using BufferingSummarizer::BufferingSummarizer;
  std::unique_ptr<RangeSummary> Finalize() override {
    Wavelet2D wavelet(items_, static_cast<std::size_t>(cfg_.s), cfg_.bits_x,
                      cfg_.bits_y);
    return std::make_unique<WaveletSummary>(std::move(wavelet));
  }
};

class QDigestBuilder : public BufferingSummarizer {
 public:
  using BufferingSummarizer::BufferingSummarizer;
  std::unique_ptr<RangeSummary> Finalize() override {
    QDigest2D digest(items_, cfg_.s, cfg_.bits_x, cfg_.bits_y);
    return std::make_unique<QDigest2DSummary>(std::move(digest));
  }
};

/// Count-Sketch rows per dyadic level pair.
constexpr std::size_t kSketchRows = 3;

class SketchBuilder : public Summarizer {
 public:
  explicit SketchBuilder(SummarizerConfig cfg)
      : Summarizer(std::move(cfg)),
        sketch_(cfg_.bits_x, cfg_.bits_y, static_cast<std::size_t>(cfg_.s),
                kSketchRows, Rng(cfg_.seed).Next()) {}

  void AddBatch(std::span<const WeightedKey> items) override {
    AdmitBatch(items, [this](std::span<const WeightedKey> run) {
      for (const WeightedKey& it : run) sketch_.Update(it.pt, it.weight);
      return run.size();
    });
  }

  std::unique_ptr<RangeSummary> Finalize() override {
    return std::make_unique<DyadicSketchSummary>(std::move(sketch_));
  }

 private:
  DyadicSketch sketch_;
};

class ExactBuilder : public BufferingSummarizer {
 public:
  using BufferingSummarizer::BufferingSummarizer;
  std::unique_ptr<RangeSummary> Finalize() override {
    return std::make_unique<ExactSummary>(std::move(items_));
  }
};

// ---------------------------------------------------------------------------
// Config validation helpers (run at MakeSummarizer time, before building).

void RequireHierarchy(const char* key, const SummarizerConfig& cfg) {
  if (cfg.structure.hierarchy == nullptr) {
    InvalidConfig(key, "structure.hierarchy must be set");
  }
}

void RequireDisjoint(const char* key, const SummarizerConfig& cfg) {
  const StructureSpec& spec = cfg.structure;
  if (spec.num_ranges <= 0 || spec.range_of.empty()) {
    InvalidConfig(key, "structure.range_of / num_ranges must describe the "
                       "disjoint ranges");
  }
  for (std::size_t i = 0; i < spec.range_of.size(); ++i) {
    const int r = spec.range_of[i];
    if (r < 0 || r >= spec.num_ranges) {
      InvalidConfig(key, "structure.range_of[" + std::to_string(i) + "] = " +
                             std::to_string(r) + " is outside [0, " +
                             std::to_string(spec.num_ranges) + ")");
    }
  }
}

void RequireDims(const char* key, const SummarizerConfig& cfg) {
  if (cfg.structure.dims < 1 || cfg.structure.dims > 16) {
    InvalidConfig(key, "structure.dims must be in [1, 16]");
  }
}

/// Methods whose budget is an integral count (reservoir slots, retained
/// coefficients, counters): fractional s below 1 truncates to a zero
/// budget, which the underlying classes do not support.
void RequireWholeBudget(const char* key, const SummarizerConfig& cfg) {
  if (cfg.s < 1.0) {
    InvalidConfig(key, "summary size s must be >= 1 for this method");
  }
}

void RequireBits(const char* key, const SummarizerConfig& cfg) {
  if (cfg.bits_x < 1 || cfg.bits_x > 63 || cfg.bits_y < 1 ||
      cfg.bits_y > 63) {
    InvalidConfig(key, "bits_x / bits_y must be in [1, 63]");
  }
}

template <typename Builder>
SummarizerFactory Plain() {
  return [](const SummarizerConfig& cfg) -> std::unique_ptr<Summarizer> {
    return std::make_unique<Builder>(cfg);
  };
}

/// The per-structure builders: Builder(cfg, two_pass), after
/// `require(key, cfg)` when one is given.
template <typename Builder>
SummarizerFactory Structured(
    const char* key, bool two_pass,
    void (*require)(const char*, const SummarizerConfig&) = nullptr) {
  return [=](const SummarizerConfig& cfg) -> std::unique_ptr<Summarizer> {
    if (require != nullptr) require(key, cfg);
    return std::make_unique<Builder>(cfg, two_pass);
  };
}

}  // namespace

namespace internal {

std::vector<std::pair<std::string, SummarizerFactory>> BuiltinSummarizers() {
  // One braced list, so the vector is sized once and never regrows.
  return {
      {keys::kOrder, Structured<OrderBuilder>(keys::kOrder, false)},
      {keys::kProduct, Plain<ProductBuilder>()},
      {keys::kHierarchy, Structured<HierarchyBuilder>(keys::kHierarchy, false,
                                                      RequireHierarchy)},
      {keys::kDisjoint, Structured<DisjointBuilder>(keys::kDisjoint, false,
                                                    RequireDisjoint)},
      {keys::kNd,
       [](const SummarizerConfig& cfg) {
         RequireDims(keys::kNd, cfg);
         return std::unique_ptr<Summarizer>(
             new NdBuilder(cfg, keys::kNd, cfg.structure.dims));
       }},
      {keys::kAware,
       [](const SummarizerConfig& cfg) {
         return std::unique_ptr<Summarizer>(
             new ProductBuilder(cfg, keys::kAware, 2, /*two_pass=*/true));
       }},
      {keys::kOrderTwoPass,
       Structured<OrderBuilder>(keys::kOrderTwoPass, true)},
      {keys::kHierarchyTwoPass,
       Structured<HierarchyBuilder>(keys::kHierarchyTwoPass, true,
                                    RequireHierarchy)},
      {keys::kDisjointTwoPass,
       Structured<DisjointBuilder>(keys::kDisjointTwoPass, true,
                                   RequireDisjoint)},
      {keys::kObliv,
       [](const SummarizerConfig& cfg) {
         RequireWholeBudget(keys::kObliv, cfg);
         return std::unique_ptr<Summarizer>(new OblivBuilder(cfg));
       }},
      {keys::kWavelet,
       [](const SummarizerConfig& cfg) {
         RequireBits(keys::kWavelet, cfg);
         RequireWholeBudget(keys::kWavelet, cfg);
         return std::unique_ptr<Summarizer>(new WaveletBuilder(cfg));
       }},
      {keys::kQDigest,
       [](const SummarizerConfig& cfg) {
         RequireBits(keys::kQDigest, cfg);
         return std::unique_ptr<Summarizer>(new QDigestBuilder(cfg));
       }},
      {keys::kSketch,
       [](const SummarizerConfig& cfg) {
         RequireBits(keys::kSketch, cfg);
         RequireWholeBudget(keys::kSketch, cfg);
         return std::unique_ptr<Summarizer>(new SketchBuilder(cfg));
       }},
      {keys::kExact, Plain<ExactBuilder>()},
  };
}

}  // namespace internal

}  // namespace sas

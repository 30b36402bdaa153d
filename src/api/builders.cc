// Built-in Summarizer implementations: adapters that put every method in
// the library — the in-memory structure-aware samplers, the streaming
// two-pass constructions, and the Section 6 baselines — behind the uniform
// Add/AddBatch/Finalize surface of api/summarizer.h. The registry
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

  void Add(const WeightedKey& item) override {
    if (!AdmitWeight(item.weight)) return;
    items_.push_back(item);
  }
  void AddBatch(std::span<const WeightedKey> items) override {
    if (AllFinite(items)) {
      CountAccepted(items.size());
      items_.insert(items_.end(), items.begin(), items.end());
      return;
    }
    for (const WeightedKey& it : items) {
      if (AdmitWeight(it.weight)) items_.push_back(it);
    }
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
// and 4) through a private scratch, or, for the `*-2p` keys, the Section 5
// two-pass construction replaying the buffer.

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
      const HierarchyTwoPassVariant variant =
          cfg_.hierarchy_partition == HierarchyPartition::kAncestors
              ? HierarchyTwoPassVariant::kAncestors
              : HierarchyTwoPassVariant::kLinearize;
      return std::make_unique<SampleSummary>(
          key, TwoPassHierarchySample(items_, *h, cfg_.s, two_pass_config(),
                                      variant, &rng));
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

class ProductBuilder : public BufferingSummarizer {
 public:
  using BufferingSummarizer::BufferingSummarizer;
  bool Mergeable() const override { return true; }
  std::unique_ptr<RangeSummary> Finalize() override {
    Rng rng(cfg_.seed);
    ProductSummarizeInto(items_, cfg_.s, &rng, &scratch_, &out_);
    return TakeSampleSummary(keys::kProduct, items_, &out_);
  }

 private:
  SummarizeScratch scratch_;
  SummarizeOutput out_;
};

/// d-dimensional product sampler. Points enter via AddCoords (any d) or via
/// Add (d <= 2, coordinates taken from the item's Point2D).
class NdBuilder : public Summarizer {
 public:
  explicit NdBuilder(SummarizerConfig cfg) : Summarizer(std::move(cfg)) {}

  void Add(const WeightedKey& item) override {
    const int dims = cfg_.structure.dims;
    if (dims > 2) {
      throw std::logic_error(
          "nd summarizer: Add carries only 2 coordinates; use AddCoords "
          "for dims > 2");
    }
    if (used_coords_) {
      throw std::logic_error("nd summarizer: do not mix Add and AddCoords");
    }
    if (!AdmitWeight(item.weight)) return;
    coords_.push_back(item.pt.x);
    if (dims == 2) coords_.push_back(item.pt.y);
    weights_.push_back(item.weight);
    originals_.push_back(item);
  }

  void AddBatch(std::span<const WeightedKey> items) override {
    coords_.reserve(coords_.size() +
                    items.size() * (cfg_.structure.dims == 2 ? 2 : 1));
    weights_.reserve(weights_.size() + items.size());
    originals_.reserve(originals_.size() + items.size());
    for (const WeightedKey& it : items) Add(it);
  }

  /// Mergeable via Add and AddCoordsKeyed, whose ids are caller-stable
  /// across a partition. Plain AddCoords synthesizes ids from the builder's
  /// own insertion index, which a hash partition would collide across
  /// shards — the sharded wrapper therefore assigns global ids itself and
  /// routes through AddCoordsKeyed.
  bool Mergeable() const override { return true; }

  bool Reset(std::uint64_t seed) override {
    coords_.clear();
    weights_.clear();
    coord_ids_.clear();
    originals_.clear();
    used_coords_ = false;
    stats_ = IngestStats{};
    cfg_.seed = seed;
    return true;
  }

  void AddCoords(const Coord* coords, int dims, Weight w) override {
    if (dims != cfg_.structure.dims) {
      InvalidConfig(keys::kNd, "AddCoords dims does not match structure");
    }
    if (!originals_.empty()) {
      throw std::logic_error("nd summarizer: do not mix Add and AddCoords");
    }
    if (!coord_ids_.empty()) {
      throw std::logic_error(
          "nd summarizer: do not mix AddCoords and AddCoordsKeyed");
    }
    if (!AdmitWeight(w)) return;
    used_coords_ = true;
    coords_.insert(coords_.end(), coords, coords + dims);
    weights_.push_back(w);
  }

  void AddCoordsKeyed(KeyId id, const Coord* coords, int dims,
                      Weight w) override {
    if (dims != cfg_.structure.dims) {
      InvalidConfig(keys::kNd, "AddCoords dims does not match structure");
    }
    if (!originals_.empty()) {
      throw std::logic_error("nd summarizer: do not mix Add and AddCoords");
    }
    if (coord_ids_.size() != weights_.size()) {
      throw std::logic_error(
          "nd summarizer: do not mix AddCoords and AddCoordsKeyed");
    }
    if (!AdmitWeight(w)) return;
    used_coords_ = true;
    coord_ids_.push_back(id);
    coords_.insert(coords_.end(), coords, coords + dims);
    weights_.push_back(w);
  }

  std::unique_ptr<RangeSummary> Finalize() override {
    const int dims = cfg_.structure.dims;
    Rng rng(cfg_.seed);
    ProductSummarizeNdInto(coords_, dims, weights_, cfg_.s, &rng, &scratch_,
                           &out_);
    std::vector<WeightedKey> entries;
    entries.reserve(out_.chosen.size());
    for (std::size_t i : out_.chosen) {
      if (i < originals_.size()) {
        entries.push_back(originals_[i]);
      } else {
        // Synthesized key for AddCoords input: id = caller-provided (keyed
        // path) or insertion index, point from the first two axes (queries
        // beyond 2-D go through sample()).
        WeightedKey k;
        k.id = coord_ids_.empty() ? static_cast<KeyId>(i) : coord_ids_[i];
        k.weight = weights_[i];
        k.pt.x = coords_[i * static_cast<std::size_t>(dims)];
        k.pt.y = dims > 1 ? coords_[i * static_cast<std::size_t>(dims) + 1]
                          : 0;
        entries.push_back(k);
      }
    }
    return std::make_unique<SampleSummary>(
        keys::kNd, Sample(out_.tau, std::move(entries)),
        std::move(out_.probs));
  }

 private:
  std::vector<Coord> coords_;
  std::vector<Weight> weights_;
  std::vector<KeyId> coord_ids_;        // empty unless fed via AddCoordsKeyed
  std::vector<WeightedKey> originals_;  // empty when fed via AddCoords
  bool used_coords_ = false;
  SummarizeScratch scratch_;
  ResultNd out_;
};

// ---------------------------------------------------------------------------
// The streaming product two-pass builder (Section 5) drives the
// TwoPassProductSampler pass structure directly: pass 1 runs during Add,
// pass 2 replays the (buffered) stream at Finalize.

class TwoPassProductBuilder : public Summarizer {
 public:
  explicit TwoPassProductBuilder(SummarizerConfig cfg)
      : Summarizer(std::move(cfg)),
        sampler_(cfg_.s, TwoPassConfig{cfg_.sprime_factor},
                 Rng(cfg_.seed).Split()) {}

  void Add(const WeightedKey& item) override {
    if (!AdmitWeight(item.weight)) return;
    sampler_.Pass1(item);
    buffer_.push_back(item);
  }

  void AddBatch(std::span<const WeightedKey> items) override {
    if (AllFinite(items)) {
      CountAccepted(items.size());
      for (const WeightedKey& it : items) sampler_.Pass1(it);
      buffer_.insert(buffer_.end(), items.begin(), items.end());
      return;
    }
    for (const WeightedKey& it : items) Add(it);
  }

  bool Mergeable() const override { return true; }

  std::unique_ptr<RangeSummary> Finalize() override {
    sampler_.BeginPass2();
    for (const WeightedKey& it : buffer_) sampler_.Pass2(it);
    return std::make_unique<SampleSummary>(keys::kAware,
                                           sampler_.Finalize());
  }

 private:
  TwoPassProductSampler sampler_;
  std::vector<WeightedKey> buffer_;
};

// ---------------------------------------------------------------------------
// Baselines (Section 6).

class OblivBuilder : public Summarizer {
 public:
  explicit OblivBuilder(SummarizerConfig cfg)
      : Summarizer(std::move(cfg)),
        sketch_(static_cast<std::size_t>(cfg_.s), Rng(cfg_.seed)) {}

  void Add(const WeightedKey& item) override {
    if (!AdmitWeight(item.weight)) return;
    sketch_.Push(item);
  }

  /// Batched ingest fast path: one virtual dispatch per batch, then the
  /// sketch's non-virtual per-item loop. Falls back to per-record
  /// validation only when the batch pre-scan finds an invalid weight.
  void AddBatch(std::span<const WeightedKey> items) override {
    if (AllFinite(items)) {
      CountAccepted(items.size());
      sketch_.PushBatch(items);
      return;
    }
    for (const WeightedKey& it : items) Add(it);
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

class SketchBuilder : public Summarizer {
 public:
  explicit SketchBuilder(SummarizerConfig cfg)
      : Summarizer(std::move(cfg)),
        sketch_(cfg_.bits_x, cfg_.bits_y, static_cast<std::size_t>(cfg_.s),
                cfg_.sketch_rows, Rng(cfg_.seed).Next()) {}

  void Add(const WeightedKey& item) override {
    if (!AdmitWeight(item.weight)) return;
    sketch_.Update(item.pt, item.weight);
  }

  void AddBatch(std::span<const WeightedKey> items) override {
    if (AllFinite(items)) {
      CountAccepted(items.size());
      for (const WeightedKey& it : items) sketch_.Update(it.pt, it.weight);
      return;
    }
    for (const WeightedKey& it : items) Add(it);
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
  std::vector<std::pair<std::string, SummarizerFactory>> builtins;
  builtins.emplace_back(keys::kOrder,
                        Structured<OrderBuilder>(keys::kOrder, false));
  builtins.emplace_back(keys::kProduct, Plain<ProductBuilder>());
  builtins.emplace_back(keys::kHierarchy,
                        Structured<HierarchyBuilder>(keys::kHierarchy, false,
                                                     RequireHierarchy));
  builtins.emplace_back(keys::kDisjoint,
                        Structured<DisjointBuilder>(keys::kDisjoint, false,
                                                    RequireDisjoint));
  builtins.emplace_back(keys::kNd, [](const SummarizerConfig& cfg) {
    RequireDims(keys::kNd, cfg);
    return std::unique_ptr<Summarizer>(new NdBuilder(cfg));
  });
  builtins.emplace_back(keys::kAware, Plain<TwoPassProductBuilder>());
  builtins.emplace_back(keys::kOrderTwoPass,
                        Structured<OrderBuilder>(keys::kOrderTwoPass, true));
  builtins.emplace_back(
      keys::kHierarchyTwoPass,
      Structured<HierarchyBuilder>(keys::kHierarchyTwoPass, true,
                                   RequireHierarchy));
  builtins.emplace_back(keys::kDisjointTwoPass,
                        Structured<DisjointBuilder>(keys::kDisjointTwoPass,
                                                    true, RequireDisjoint));
  builtins.emplace_back(keys::kObliv, [](const SummarizerConfig& cfg) {
    RequireWholeBudget(keys::kObliv, cfg);
    return std::unique_ptr<Summarizer>(new OblivBuilder(cfg));
  });
  builtins.emplace_back(keys::kWavelet, [](const SummarizerConfig& cfg) {
    RequireBits(keys::kWavelet, cfg);
    RequireWholeBudget(keys::kWavelet, cfg);
    return std::unique_ptr<Summarizer>(new WaveletBuilder(cfg));
  });
  builtins.emplace_back(keys::kQDigest, [](const SummarizerConfig& cfg) {
    RequireBits(keys::kQDigest, cfg);
    return std::unique_ptr<Summarizer>(new QDigestBuilder(cfg));
  });
  builtins.emplace_back(keys::kSketch, [](const SummarizerConfig& cfg) {
    RequireBits(keys::kSketch, cfg);
    RequireWholeBudget(keys::kSketch, cfg);
    return std::unique_ptr<Summarizer>(new SketchBuilder(cfg));
  });
  builtins.emplace_back(keys::kExact, Plain<ExactBuilder>());
  return builtins;
}

}  // namespace internal

}  // namespace sas

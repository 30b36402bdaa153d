// Deterministic pseudo-random number generation for all sampling algorithms.
//
// Every randomized component in the library takes an explicit Rng so that
// experiments are reproducible from a single seed. The generator is
// xoshiro256++ seeded via SplitMix64, which is fast, high quality, and easy
// to reimplement from scratch (no dependency on std::mt19937 state layout).

#ifndef SAS_CORE_RANDOM_H_
#define SAS_CORE_RANDOM_H_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace sas {

/// SplitMix64 step: used for seeding and as a cheap stateless mixer.
std::uint64_t SplitMix64(std::uint64_t* state);

/// Stateless 64-bit finalizer (good avalanche); used by hashing code.
std::uint64_t Mix64(std::uint64_t x);

/// SplitMix-style deterministic sub-seed derivation: the seed of stream
/// `stream` under master seed `seed`. Distinct streams yield independent
/// generators; the mapping depends only on (seed, stream), so sharded runs
/// are reproducible for a fixed seed and shard count regardless of thread
/// scheduling.
std::uint64_t ForkSeed(std::uint64_t seed, std::uint64_t stream);

/// xoshiro256++ generator with convenience draws.
class Rng {
 public:
  /// Seeds the four words of state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit output. Defined inline (as is NextBounded), so a
  /// hot loop over a local generator keeps the state in registers.
  std::uint64_t Next() {
    const std::uint64_t result = std::rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Fills out[0..n) with the next n NextDouble() draws, in order. The
  /// per-element values are bit-identical to n successive NextDouble()
  /// calls; the batch form exists so hot loops can consume blocks of draws
  /// without a per-draw function boundary (see RngStream).
  void FillDoubles(double* out, std::size_t n);

  /// Uniform integer in [0, bound). Requires bound > 0. Unbiased
  /// (Lemire's nearly-divisionless rejection method).
  std::uint64_t NextBounded(std::uint64_t bound) {
    std::uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Standard exponential variate (rate 1).
  double NextExp();

  /// Pareto variate with shape `alpha` and scale 1: x = u^{-1/alpha}.
  double NextPareto(double alpha);

  /// Creates an independent generator by jumping through SplitMix64 of the
  /// current state (used to hand child RNGs to sub-tasks deterministically).
  Rng Split();

  /// Derives the `stream`-th child generator from the current state without
  /// advancing it: Fork(i) called twice returns identical generators, and
  /// distinct streams are independent. This is how per-shard RNGs are
  /// derived so that parallel ingest is reproducible.
  Rng Fork(std::uint64_t stream) const;

 private:
  std::uint64_t s_[4];
};

/// Buffered uniform-double stream over a borrowed Rng, used by the batched
/// aggregation fast paths (ChainAggregateRange).
///
/// The stream pre-generates draws in blocks of kBlock via Rng::FillDoubles
/// but is *draw-order transparent*: the i-th NextDouble() returns exactly
/// the value the i-th rng->NextDouble() would have, and Flush() repositions
/// the borrowed Rng to exactly "construction state advanced by the number of
/// draws consumed". A pass that routes all of its randomness through one
/// RngStream is therefore bit-identical — including the caller's Rng state
/// afterwards — to the same pass calling the Rng directly.
///
/// Ownership rule: while a block is live — i.e. after a NextDouble()/
/// consuming NextBernoulli() and before the next Flush() (the destructor
/// flushes too) — the borrowed Rng must not be used directly. Between
/// Flush() and the next draw the Rng may be used freely; the stream
/// re-syncs from it.
class RngStream {
 public:
  static constexpr std::size_t kBlock = 256;

  explicit RngStream(Rng* rng) : src_(rng), synced_(*rng) {}
  RngStream(const RngStream&) = delete;
  RngStream& operator=(const RngStream&) = delete;
  ~RngStream() { Flush(); }

  double NextDouble() {
    if (pos_ == filled_) Refill();
    return buf_[pos_++];
  }

  /// Bernoulli draw matching Rng::NextBernoulli's consumption: degenerate
  /// probabilities consume no draw.
  bool NextBernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  /// Repositions the borrowed Rng exactly past the consumed draws and
  /// resets the stream (it may be used again afterwards).
  void Flush();

 private:
  void Refill();

  Rng* src_;
  // source state at the stream position of buf_[0]
  // sas-lint: allow(unforked-rng): copied from the borrowed Rng at construction
  Rng synced_;
  // synced_ advanced by kBlock draws (valid when filled_ > 0)
  // sas-lint: allow(unforked-rng): derived from synced_ inside Refill
  Rng next_;
  std::size_t pos_ = 0;
  std::size_t filled_ = 0;
  double buf_[kBlock];
};

}  // namespace sas

#endif  // SAS_CORE_RANDOM_H_

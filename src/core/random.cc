#include "core/random.h"

#include <bit>
#include <cmath>

#include "core/simd.h"

namespace sas {

std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t Mix64(std::uint64_t x) {
  std::uint64_t s = x;
  return SplitMix64(&s);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& w : s_) w = SplitMix64(&sm);
}

double Rng::NextDouble() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

void Rng::FillDoubles(double* out, std::size_t n) {
  // The state recurrence is inherently serial; the unit-interval mapping is
  // not. Batch the raw outputs through the dispatched conversion kernel,
  // which is bit-identical to the per-draw cast on every SIMD level.
  constexpr std::size_t kChunk = 256;
  std::uint64_t raw[kChunk];
  while (n > 0) {
    const std::size_t m = n < kChunk ? n : kChunk;
    for (std::size_t i = 0; i < m; ++i) raw[i] = Next();
    simd::U64ToUnitDoubles(raw, out, m);
    out += m;
    n -= m;
  }
}

void RngStream::Refill() {
  if (filled_ > 0) {
    // The previous block was fully consumed: advance the sync point past it.
    synced_ = next_;
  } else {
    // First block since construction or Flush: re-sync from the source, so
    // draws the caller made directly on the Rng while no block was live
    // (legal after a Flush) are not replayed.
    synced_ = *src_;
  }
  next_ = synced_;
  next_.FillDoubles(buf_, kBlock);
  filled_ = kBlock;
  pos_ = 0;
}

void RngStream::Flush() {
  if (filled_ == 0) {
    // Nothing buffered; the source was never touched. Re-sync in case the
    // caller used it directly between streams.
    synced_ = *src_;
    return;
  }
  if (pos_ == filled_) {
    *src_ = next_;
  } else {
    // Replay the consumed prefix of the current block (< kBlock draws).
    Rng r = synced_;
    for (std::size_t i = 0; i < pos_; ++i) (void)r.Next();
    *src_ = r;
  }
  synced_ = *src_;
  filled_ = 0;
  pos_ = 0;
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::NextExp() {
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -std::log(u);
}

double Rng::NextPareto(double alpha) {
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return std::pow(u, -1.0 / alpha);
}

std::uint64_t ForkSeed(std::uint64_t seed, std::uint64_t stream) {
  // One SplitMix64 step from `seed`, then mix the stream index through a
  // second finalizer so that consecutive streams land far apart.
  std::uint64_t s = seed;
  return Mix64(SplitMix64(&s) ^ Mix64(stream + 0xD1B54A32D192ED03ULL));
}

Rng Rng::Fork(std::uint64_t stream) const {
  const std::uint64_t digest =
      s_[0] ^ std::rotl(s_[1], 13) ^ std::rotl(s_[2], 29) ^
      std::rotl(s_[3], 43);
  return Rng(ForkSeed(digest, stream));
}

Rng Rng::Split() {
  std::uint64_t derive = s_[0] ^ std::rotl(s_[2], 29);
  // Advance self so successive Split() calls give distinct children.
  (void)Next();
  return Rng(Mix64(derive));
}

}  // namespace sas

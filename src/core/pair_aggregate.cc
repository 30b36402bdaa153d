#include "core/pair_aggregate.h"

#include <bit>
#include <cassert>
#include <cstdint>

namespace sas {

double SnapProbability(double p) {
  if (p <= kProbEps) return 0.0;
  if (p >= 1.0 - kProbEps) return 1.0;
  return p;
}

void PairAggregate(double* pi, double* pj, Rng* rng) {
  const double a = *pi;
  const double b = *pj;
  assert(a > 0.0 && a < 1.0 && b > 0.0 && b < 1.0);
  const double sum = a + b;
  if (sum < 1.0) {
    // Move all mass onto one of the two keys; exclude the other.
    if (rng->NextDouble() < a / sum) {
      *pi = SnapProbability(sum);
      *pj = 0.0;
    } else {
      *pj = SnapProbability(sum);
      *pi = 0.0;
    }
  } else {
    // Include one key outright; the other keeps the leftover mass sum - 1.
    const double leftover = SnapProbability(sum - 1.0);
    if (rng->NextDouble() < (1.0 - b) / (2.0 - sum)) {
      *pi = 1.0;
      *pj = leftover;
    } else {
      *pi = leftover;
      *pj = 1.0;
    }
  }
}

std::size_t ChainAggregate(std::vector<double>* probs,
                           const std::vector<std::size_t>& indices,
                           std::size_t carry, Rng* rng) {
  RngStream draws(rng);
  return ChainAggregateRange(probs->data(), indices.data(), indices.size(),
                             carry, &draws);
}

namespace {

/// Position of the first open entry of indices[from..count), or count.
std::size_t NextOpen(const double* p, const std::size_t* indices,
                     std::size_t from, std::size_t count) {
  while (from < count && IsSet(p[indices[from]])) ++from;
  return from;
}

/// a where mask is all ones, b where it is zero: a bitwise select, so the
/// chosen operand is exact and no branch is taken on the mask.
double Select(std::uint64_t mask, double a, double b) {
  return std::bit_cast<double>((std::bit_cast<std::uint64_t>(a) & mask) |
                               (std::bit_cast<std::uint64_t>(b) & ~mask));
}

std::size_t Select(std::size_t mask, std::size_t a, std::size_t b) {
  return (a & mask) | (b & ~mask);
}

/// [sum >= 1] as 1.0 or 0.0. A two-lane compare leaves the mask in the
/// floating-point register that holds sum, so the carry's next mass,
/// sum - [sum >= 1], waits on no move through an integer register (and a
/// plain `sum >= 1.0 ? 1.0 : 0.0` compiles to a branch).
double AtLeastOne(double sum) {
  using Lanes = double __attribute__((vector_size(16)));
  using Mask = std::int64_t __attribute__((vector_size(16)));
  const Lanes one = {1.0, 1.0};
  const Mask ge = Lanes{sum, sum} >= one;
  return std::bit_cast<Lanes>(ge & std::bit_cast<Mask>(one))[0];
}

}  // namespace

std::size_t ChainAggregateRange(double* p, const std::size_t* indices,
                                std::size_t count, std::size_t carry,
                                RngStream* draws) {
  // The carry probability lives in `pa`; p[carry] is written only when the
  // carry settles or the chain ends. Each merge performs the PairAggregate
  // arithmetic in registers, consumes exactly one draw, and issues a single
  // store for the entry that settled; the open side continues as the carry.
  //
  // The carry's mass does not depend on the draw, only its identity does.
  // With ge = [pa + pi >= 1], PairAggregate's two cases are one: the draw
  // compares against (1 - pi) / (2 - sum) or pa / sum, the entry that
  // settles goes to ge, and the carry continues at sum - ge. Operands are
  // picked by masks, so the case and the winner cost no branch; the mask
  // selects are exact, so the division sees PairAggregate's operands.
  std::size_t k = 0;
  if (carry == kNoEntry || IsSet(p[carry])) {
    k = NextOpen(p, indices, 0, count);
    if (k == count) return kNoEntry;
    carry = indices[k++];
  }
  double pa = p[carry];
  for (; k < count; ++k) {
    const std::size_t i = indices[k];
    const double pi = p[i];
    if (IsSet(pi)) continue;
    const double u = draws->NextDouble();
    const double sum = pa + pi;
    const bool ge = sum >= 1.0;
    const std::uint64_t ge_mask = 0 - static_cast<std::uint64_t>(ge);
    const double num = Select(ge_mask, 1.0 - pi, pa);
    const double den = Select(ge_mask, 2.0 - sum, sum);
    const double settled_to = AtLeastOne(sum);
    // The new entry takes the carry iff (u < num / den) == ge.
    const std::size_t take_mask =
        0 - static_cast<std::size_t>((u < num / den) == ge);
    p[Select(take_mask, carry, i)] = settled_to;
    carry = Select(take_mask, i, carry);
    pa = sum - settled_to;
    if (pa <= kProbEps || pa >= 1.0 - kProbEps) {
      // The carry snapped to 0 or 1: it settles, and the next open entry
      // starts a new carry without a draw.
      p[carry] = SnapProbability(pa);
      k = NextOpen(p, indices, k + 1, count);
      if (k == count) return kNoEntry;
      carry = indices[k];
      pa = p[carry];
    }
  }
  p[carry] = pa;
  return carry;
}

void ResolveResidual(std::vector<double>* probs, std::size_t entry,
                     Rng* rng) {
  if (entry == kNoEntry) return;
  auto& p = *probs;
  if (IsSet(p[entry])) return;
  p[entry] = rng->NextBernoulli(p[entry]) ? 1.0 : 0.0;
}

void ResolveResidual(double* probs, std::size_t entry, RngStream* draws) {
  if (entry == kNoEntry) return;
  if (IsSet(probs[entry])) return;
  probs[entry] = draws->NextBernoulli(probs[entry]) ? 1.0 : 0.0;
}

}  // namespace sas

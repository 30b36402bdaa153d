// PAIR-AGGREGATE (Algorithm 1): the probabilistic-aggregation primitive.
//
// Each call touches exactly two probabilities pi, pj in (0,1), preserves
// their sum, agrees with them in expectation, and sets at least one of them
// to 0 or 1. A sequence of pair aggregations that sets every entry produces
// a VarOpt sample (Section 2); the *choice* of which pair to aggregate is
// free, and that freedom is what the structure-aware schemes exploit.

#ifndef SAS_CORE_PAIR_AGGREGATE_H_
#define SAS_CORE_PAIR_AGGREGATE_H_

#include <cstddef>
#include <vector>

#include "core/random.h"

namespace sas {

/// Probabilities within this distance of 0 or 1 are snapped to exactly 0 or
/// 1 after an aggregation step, so "is set" checks are exact.
inline constexpr double kProbEps = 1e-12;

/// True if p is settled (exactly 0 or 1 after snapping).
inline bool IsSet(double p) { return p == 0.0 || p == 1.0; }

/// Snaps values within kProbEps of {0,1} and clamps to [0,1].
double SnapProbability(double p);

/// Algorithm 1. Requires 0 < *pi < 1 and 0 < *pj < 1. On return, the sum
/// *pi + *pj is unchanged and at least one of them is exactly 0 or 1.
///
/// Case pi + pj < 1: all mass moves onto one key (the other is excluded);
///   the receiving key is i with probability pi / (pi + pj).
/// Case pi + pj >= 1: one key is included (set to 1) and the other keeps the
///   leftover pi + pj - 1; key i is the included one with probability
///   (1 - pj) / (2 - pi - pj).
void PairAggregate(double* pi, double* pj, Rng* rng);

/// Sentinel meaning "no open entry".
inline constexpr std::size_t kNoEntry = static_cast<std::size_t>(-1);

/// Sequentially pair-aggregates the open entries of *probs listed in
/// `indices` (skipping entries that are already set), starting from an
/// optional open carry entry. After each aggregation exactly one open entry
/// survives as the new carry. Returns the index of the final open entry, or
/// kNoEntry if everything is set. Forwards to ChainAggregateRange with a
/// local draw stream: the same draws as one PairAggregate per merge.
std::size_t ChainAggregate(std::vector<double>* probs,
                           const std::vector<std::size_t>& indices,
                           std::size_t carry, Rng* rng);

/// The chain step of the settle loop (core/settle.h), which shares one
/// RngStream across all of a settle's chains: consumes one draw per merge
/// from `draws`, keeps the carry probability in a register so settled
/// entries are skipped without a draw, and settles each entry with a single
/// store. Arithmetic and draws are bit-identical to PairAggregate.
/// `indices[0..count)` must be distinct and in range; `carry` may be
/// kNoEntry or an entry index (it may also already be settled).
std::size_t ChainAggregateRange(double* probs, const std::size_t* indices,
                                std::size_t count, std::size_t carry,
                                RngStream* draws);

/// Resolves a final open entry by a Bernoulli draw (needed only when the
/// initial probability mass was non-integral or drifted by floating point).
/// No-op when `entry` is kNoEntry.
void ResolveResidual(std::vector<double>* probs, std::size_t entry, Rng* rng);

/// Stream overload for fast-path callers, consuming the draw (if any) from
/// the same stream as the chain that produced `entry`.
void ResolveResidual(double* probs, std::size_t entry, RngStream* draws);

}  // namespace sas

#endif  // SAS_CORE_PAIR_AGGREGATE_H_

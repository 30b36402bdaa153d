// Runtime-dispatched SIMD kernels for the build-engine and query hot paths.
//
// This header is the only sanctioned boundary between the library and raw
// vector intrinsics: every kernel below has a scalar implementation that IS
// the reference semantics (bit-identical to the classic loops it replaced,
// pinned by the golden-seed suite) and, when the build and the host allow
// it, an AVX2/FMA implementation selected at runtime.
//
// Dispatch contract:
//  * Compile time: the CMake option SAS_SIMD (default ON) gates whether the
//    AVX2 paths are compiled at all; with SAS_SIMD=OFF only the scalar
//    code exists and ActiveLevel() is always kScalar.
//  * Run time: the first kernel call probes the CPU (cpuid via
//    __builtin_cpu_supports) and caches the best supported level. A binary
//    built with SAS_SIMD=ON still runs correctly on a non-AVX2 host — it
//    just stays on the scalar path.
//  * Equivalence: every kernel returns bit-identical results on every
//    level. The per-lane kernels (FillIppsProbabilities, U64ToUnitDoubles,
//    InBoxesMask) do the scalar path's operations lane by lane, and
//    ThresholdPass, the one reduction, adds its sum in one fixed 4-lane
//    association on both levels. The scalar results are the golden-seed
//    reference, and tests/core/simd_test.cc pins each AVX2 kernel to them.
//
// Adding a kernel: declare it here, implement <Name>Scalar in simd.cc (this
// becomes the reference — copy the loop you are replacing verbatim), add an
// AVX2 variant guarded by SAS_SIMD_X86 with target("avx2,fma"), route both
// through a switch on ActiveLevel(), and pin scalar-vs-AVX2 equivalence in
// tests/core/simd_test.cc. Raw intrinsics anywhere else in src/ are
// rejected by sas-lint (rule simd-intrinsics).

#ifndef SAS_CORE_SIMD_H_
#define SAS_CORE_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <limits>

#include "core/types.h"

namespace sas {
namespace simd {

/// Instruction-set tiers the dispatcher knows about.
enum class Level {
  kScalar = 0,
  kAvx2 = 1,  // AVX2 + FMA
};

/// Best level supported by this binary on this host (compile-time gate and
/// cpuid probe combined). Does not consult overrides.
Level DetectLevel();

/// The level kernels currently dispatch to. Defaults to DetectLevel();
/// cached after the first call.
Level ActiveLevel();

/// Overrides the dispatch level (tests and A/B benches). Returns false —
/// and changes nothing — if `level` is not supported by this binary/host.
bool SetLevel(Level level);

/// Human-readable level name ("scalar" / "avx2").
const char* LevelName(Level level);

/// IPPS probability fill: probs[i] = min{1, w[i]/tau} for tau > 0 (the
/// IppsProbability edge cases for tau <= 0 are handled by the caller).
void FillIppsProbabilities(const double* w, std::size_t n, double tau,
                           double* probs);

/// One pass of SolveTau at the cut x: weights w >= x are heavy, weights
/// 0 < w < x are light, and zero and NaN weights are neither (every compare
/// is ordered). x = +inf makes every positive finite weight light.
struct ThresholdSplit {
  double light_sum = 0.0;  // sum of the light weights
  double max_light = 0.0;  // largest light weight; 0 when there is none
  // Smallest heavy weight; +inf when there is none.
  double min_heavy = std::numeric_limits<double>::infinity();
  std::size_t light_count = 0;
  std::size_t heavy_count = 0;
};

/// The split of w[0, n) at x. Both levels add the light weights in one
/// association: weight i into lane i mod 4 over the full groups of four,
/// the tail into lane 0, then (l0 + l1) + (l2 + l3). So the result is
/// bit-identical on every level.
ThresholdSplit ThresholdPass(const double* w, std::size_t n, double x);

/// Block conversion behind Rng::FillDoubles: out[i] =
/// double(raw[i] >> 11) * 2^-53, the xoshiro256++ unit-interval mapping.
/// Bit-identical on every level (the shifted value fits 53 bits, so the
/// convert and the power-of-two scale are both exact).
void U64ToUnitDoubles(const std::uint64_t* raw, double* out, std::size_t n);

/// Box membership of one block of sample entries: bit j of the result is
/// set iff entries[j].pt lies in at least one of boxes[0, nb) under
/// Box::Contains (half-open on both axes; an entry in several overlapping
/// boxes sets its bit once; empty boxes match nothing). Requires
/// n <= kInBoxesBlock; bits n..63 are zero. Any nb, including 0.
/// Bit-identical on every level: membership is a per-lane boolean.
inline constexpr std::size_t kInBoxesBlock = 64;
std::uint64_t InBoxesMask(const WeightedKey* entries, std::size_t n,
                          const Box* boxes, std::size_t nb);

}  // namespace simd
}  // namespace sas

#endif  // SAS_CORE_SIMD_H_

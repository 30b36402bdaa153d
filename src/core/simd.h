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
//  * Equivalence: kernels whose outputs are pure per-lane operations
//    (FillIppsProbabilities elements, U64ToUnitDoubles, InBoxesMask)
//    return bit-identical results on every level. Kernels that reduce
//    over floats (the probability *sum*, SuffixSum) may differ
//    from the scalar path in the last few ulps because vector lanes
//    re-associate the additions; the documented bound is
//    |simd - scalar| <= 4 * eps * n * max|term| and the equivalence tests
//    in tests/core/simd_test.cc pin a 1e-12 relative tolerance. The scalar
//    results never change: they are the golden-seed reference.
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
/// Returns the sum of the probabilities. Elements are bit-identical on
/// every level; the returned sum is a float reduction (see header
/// contract).
double FillIppsProbabilities(const double* w, std::size_t n, double tau,
                             double* probs);

/// The SolveTau partition scan: init + buf[end-1] + buf[end-2] + ... +
/// buf[begin], accumulated in exactly that (reverse) order on the scalar
/// path. Float reduction: AVX2 re-associates.
double SuffixSum(const double* buf, std::size_t begin, std::size_t end,
                 double init);

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

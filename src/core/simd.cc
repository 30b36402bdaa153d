#include "core/simd.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>

// The AVX2 paths exist only when the build opts in (SAS_SIMD, see
// CMakeLists.txt) and the toolchain/arch can express them. Everything else
// compiles the scalar reference only.
#if defined(SAS_SIMD_ENABLED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define SAS_SIMD_X86 1
#include <immintrin.h>
#endif

namespace sas {
namespace simd {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// -------------------------------------------------------------------------
// Scalar reference kernels: the loops the callers used before the facade
// existed, and ThresholdPass, whose lanes define SolveTau's sums. The
// golden-seed and pin suites fix their outputs, so they must never change
// behavior.

void FillIppsProbabilitiesScalar(const double* w, std::size_t n, double tau,
                                 double* probs) {
  for (std::size_t i = 0; i < n; ++i) {
    const double p = w[i] / tau;
    probs[i] = p >= 1.0 ? 1.0 : p;
  }
}

// ThresholdPass, with the light weights of lane k (the weights i with
// i mod 4 == k, and the tail in lane 0) summed in order. A compare yields
// an all-ones or zero lane mask, a masked weight adds +0.0 (which leaves a
// non-negative sum's bits as they are), and no branch depends on a weight.
// The scalar level runs lanes {0, 1} and {2, 3} as generic two-lane
// vectors (SSE2 on x86-64, scalar code where there is no vector unit).
using Lanes2 = double __attribute__((vector_size(16)));
using Mask2 = std::int64_t __attribute__((vector_size(16)));

struct HalfSplit {
  Lanes2 sum = {0.0, 0.0};
  Lanes2 max_light = {0.0, 0.0};
  Lanes2 min_heavy = {kInf, kInf};
  Mask2 light = {0, 0};  // minus the count: a true lane is -1
  Mask2 heavy = {0, 0};

  void Add(Lanes2 v, Lanes2 x) {
    const Lanes2 zero = {0.0, 0.0};
    const Lanes2 inf = {kInf, kInf};
    const Mask2 is_light = (v > zero) & (v < x);
    const Mask2 is_heavy = v >= x;
    const Lanes2 lv = std::bit_cast<Lanes2>(is_light & std::bit_cast<Mask2>(v));
    const Lanes2 hv = is_heavy ? v : inf;
    sum += lv;
    max_light = max_light < lv ? lv : max_light;
    min_heavy = hv < min_heavy ? hv : min_heavy;
    light += is_light;
    heavy += is_heavy;
  }
};

ThresholdSplit ThresholdPassScalar(const double* w, std::size_t n, double x) {
  const Lanes2 vx = {x, x};
  HalfSplit lo, hi;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    lo.Add(Lanes2{w[i], w[i + 1]}, vx);
    hi.Add(Lanes2{w[i + 2], w[i + 3]}, vx);
  }
  // Into lane 0, beside a zero, which is neither light nor heavy.
  for (; i < n; ++i) lo.Add(Lanes2{w[i], 0.0}, vx);
  ThresholdSplit out;
  out.light_sum = (lo.sum[0] + lo.sum[1]) + (hi.sum[0] + hi.sum[1]);
  out.max_light = std::max({lo.max_light[0], lo.max_light[1],
                            hi.max_light[0], hi.max_light[1]});
  out.min_heavy = std::min({lo.min_heavy[0], lo.min_heavy[1],
                            hi.min_heavy[0], hi.min_heavy[1]});
  out.light_count = static_cast<std::size_t>(
      -(lo.light[0] + lo.light[1] + hi.light[0] + hi.light[1]));
  out.heavy_count = static_cast<std::size_t>(
      -(lo.heavy[0] + lo.heavy[1] + hi.heavy[0] + hi.heavy[1]));
  return out;
}

void U64ToUnitDoublesScalar(const std::uint64_t* raw, double* out,
                            std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<double>(raw[i] >> 11) * 0x1.0p-53;
  }
}

// The branchless form of the Sample scans' `box.Contains(pt)` loop (which
// stopped at the first matching box): the same boolean, without the
// data-dependent branches.
std::uint64_t InBoxesMaskScalar(const WeightedKey* entries, std::size_t n,
                                const Box* boxes, std::size_t nb) {
  std::uint64_t mask = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const Coord x = entries[j].pt.x;
    const Coord y = entries[j].pt.y;
    bool in = false;
    for (std::size_t b = 0; b < nb; ++b) {
      in |= (x >= boxes[b].x.lo) & (x < boxes[b].x.hi) &
            (y >= boxes[b].y.lo) & (y < boxes[b].y.hi);
    }
    mask |= static_cast<std::uint64_t>(in) << j;
  }
  return mask;
}

// -------------------------------------------------------------------------
// AVX2/FMA kernels. Per-lane arithmetic mirrors the scalar ops exactly.

#if defined(SAS_SIMD_X86)

__attribute__((target("avx2,fma"))) inline __m256d MarksteinQuotient(
    __m256d vw, __m256d vy, __m256d vtau) {
  const __m256d q0 = _mm256_mul_pd(vw, vy);
  const __m256d r = _mm256_fnmadd_pd(q0, vtau, vw);
  return _mm256_fmadd_pd(r, vy, q0);
}

__attribute__((target("avx2,fma"))) void FillIppsProbabilitiesAvx2(
    const double* w, std::size_t n, double* probs, double tau) {
  // Division via Markstein's sequence instead of vdivpd: with the
  // correctly rounded reciprocal y = RN(1/tau), q0 = RN(w*y),
  // r = w - q0*tau (exact by FMA), the corrected q = RN(q0 + r*y) is the
  // correctly rounded quotient w/tau for every normal quotient
  // (round-to-nearest), so the stored probabilities stay bit-identical to
  // the scalar `w[i] / tau` while the loop runs at FMA throughput rather
  // than the divider's. Degenerate inputs degrade identically: a quotient
  // that overflows turns q into +-inf/NaN, and the min below (NaN in the
  // first operand selects the second) clamps it to the same 1.0 the
  // overflowed scalar divide produces. Denormal quotients could double-
  // round, but tau <= sum(w) in every caller (SolveTau), so w/tau >=
  // w/sum(w) never underflows for representable weights.
  const __m256d vy = _mm256_set1_pd(1.0 / tau);
  const __m256d vtau = _mm256_set1_pd(tau);
  const __m256d ones = _mm256_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d q = MarksteinQuotient(_mm256_loadu_pd(w + i), vy, vtau);
    _mm256_storeu_pd(probs + i, _mm256_min_pd(q, ones));
  }
  FillIppsProbabilitiesScalar(w + i, n - i, tau, probs + i);
}

// The scalar level's four lanes in one register each.
struct QuadSplit {
  __m256d sum, max_light, min_heavy;
  __m256i light, heavy;  // minus the counts: a true lane is -1
};

// HalfSplit::Add on four lanes: the same masks, the same +0.0 for a masked
// weight.
__attribute__((target("avx2,fma"))) inline void AddQuad(__m256d v,
                                                        __m256d x,
                                                        QuadSplit* q) {
  const __m256d is_light =
      _mm256_and_pd(_mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_GT_OQ),
                    _mm256_cmp_pd(v, x, _CMP_LT_OQ));
  const __m256d is_heavy = _mm256_cmp_pd(v, x, _CMP_GE_OQ);
  const __m256d lv = _mm256_and_pd(is_light, v);
  const __m256d hv = _mm256_blendv_pd(_mm256_set1_pd(kInf), v, is_heavy);
  q->sum = _mm256_add_pd(q->sum, lv);
  q->max_light = _mm256_max_pd(q->max_light, lv);
  q->min_heavy = _mm256_min_pd(q->min_heavy, hv);
  q->light = _mm256_add_epi64(q->light, _mm256_castpd_si256(is_light));
  q->heavy = _mm256_add_epi64(q->heavy, _mm256_castpd_si256(is_heavy));
}

__attribute__((target("avx2,fma"))) ThresholdSplit ThresholdPassAvx2(
    const double* w, std::size_t n, double x) {
  const __m256d vx = _mm256_set1_pd(x);
  QuadSplit q = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                 _mm256_set1_pd(kInf), _mm256_setzero_si256(),
                 _mm256_setzero_si256()};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) AddQuad(_mm256_loadu_pd(w + i), vx, &q);
  for (; i < n; ++i) AddQuad(_mm256_set_pd(0.0, 0.0, 0.0, w[i]), vx, &q);
  alignas(32) double sums[4], maxs[4], mins[4];
  alignas(32) std::int64_t lights[4], heavies[4];
  _mm256_store_pd(sums, q.sum);
  _mm256_store_pd(maxs, q.max_light);
  _mm256_store_pd(mins, q.min_heavy);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lights), q.light);
  _mm256_store_si256(reinterpret_cast<__m256i*>(heavies), q.heavy);
  ThresholdSplit out;
  out.light_sum = (sums[0] + sums[1]) + (sums[2] + sums[3]);
  out.max_light = std::max({maxs[0], maxs[1], maxs[2], maxs[3]});
  out.min_heavy = std::min({mins[0], mins[1], mins[2], mins[3]});
  out.light_count = static_cast<std::size_t>(
      -(lights[0] + lights[1] + lights[2] + lights[3]));
  out.heavy_count = static_cast<std::size_t>(
      -(heavies[0] + heavies[1] + heavies[2] + heavies[3]));
  return out;
}

__attribute__((target("avx2,fma"))) void U64ToUnitDoublesAvx2(
    const std::uint64_t* raw, double* out, std::size_t n) {
  // k = raw >> 11 has 53 bits, too wide for the single 2^52 magic-number
  // convert — split into hi21 * 2^32 + lo32, both exactly convertible, and
  // recombine with one FMA (every step exact because k itself fits a
  // double, so the result is bit-identical to the scalar cast).
  const __m256i mask32 = _mm256_set1_epi64x(0xFFFFFFFFLL);
  const __m256i magic = _mm256_set1_epi64x(0x4330000000000000LL);  // 2^52
  const __m256d two52 = _mm256_set1_pd(0x1.0p52);
  const __m256d two32 = _mm256_set1_pd(0x1.0p32);
  const __m256d scale = _mm256_set1_pd(0x1.0p-53);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i k = _mm256_srli_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(raw + i)), 11);
    const __m256d lo = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(_mm256_and_si256(k, mask32),
                                            magic)),
        two52);
    const __m256d hi = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(k, 32), magic)),
        two52);
    const __m256d value = _mm256_fmadd_pd(hi, two32, lo);
    _mm256_storeu_pd(out + i, _mm256_mul_pd(value, scale));
  }
  for (; i < n; ++i) {
    out[i] = static_cast<double>(raw[i] >> 11) * 0x1.0p-53;
  }
}

// Coordinates of entries e[0..3] with the sign bit flipped, in entry
// order: e[0] and e[2] fill the low/high halves of one register, e[1] and
// e[3] of the other, and unpacking their 64-bit halves yields x0..x3 and
// y0..y3. The flip maps unsigned order onto the signed order that
// _mm256_cmpgt_epi64 compares in.
__attribute__((target("avx2,fma"))) inline void LoadFlippedXY(
    const WeightedKey* e, __m256i sign, __m256i* xs, __m256i* ys) {
  const __m256i p02 = _mm256_inserti128_si256(
      _mm256_castsi128_si256(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(&e[0].pt))),
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&e[2].pt)), 1);
  const __m256i p13 = _mm256_inserti128_si256(
      _mm256_castsi128_si256(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(&e[1].pt))),
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&e[3].pt)), 1);
  *xs = _mm256_xor_si256(_mm256_unpacklo_epi64(p02, p13), sign);
  *ys = _mm256_xor_si256(_mm256_unpackhi_epi64(p02, p13), sign);
}

// One box as (lo_x, len_x ^ sign, lo_y, len_y ^ sign), len = hi - lo for a
// non-empty axis and 0 otherwise. Then c in [lo, hi) iff the wrapped
// difference c - lo is unsigned-below len, and (c - lo) ^ sign equals
// (c ^ sign) - lo, so one subtract and one signed compare per axis test a
// flipped coordinate exactly; len 0 (an empty box) matches nothing.
struct FlippedBox {
  std::int64_t lo_x, len_x, lo_y, len_y;
};

// Lanes (all-ones / zero) of the flipped coordinates inside the box.
__attribute__((target("avx2,fma"))) inline __m256i InBoxLanes(
    __m256i xs, __m256i ys, const FlippedBox& b) {
  const __m256i in_x =
      _mm256_cmpgt_epi64(_mm256_set1_epi64x(b.len_x),
                         _mm256_sub_epi64(xs, _mm256_set1_epi64x(b.lo_x)));
  const __m256i in_y =
      _mm256_cmpgt_epi64(_mm256_set1_epi64x(b.len_y),
                         _mm256_sub_epi64(ys, _mm256_set1_epi64x(b.lo_y)));
  return _mm256_and_si256(in_x, in_y);
}

// One bit per 64-bit lane, lane 0 in bit 0.
__attribute__((target("avx2,fma"))) inline std::uint64_t LaneBits(
    __m256i lanes) {
  return static_cast<std::uint64_t>(
      _mm256_movemask_pd(_mm256_castsi256_pd(lanes)));
}

__attribute__((target("avx2,fma"))) std::uint64_t InBoxesMaskAvx2(
    const WeightedKey* entries, std::size_t n, const Box* boxes,
    std::size_t nb) {
  const std::int64_t smin = std::numeric_limits<std::int64_t>::min();
  const __m256i sign = _mm256_set1_epi64x(smin);
  const auto flipped_len = [smin](const Interval& iv) {
    return static_cast<std::int64_t>(iv.hi > iv.lo ? iv.hi - iv.lo : 0) ^
           smin;
  };
  // Boxes go through in chunks set up once per block, so any nb works
  // without holding every box in registers.
  constexpr std::size_t kChunk = 16;
  FlippedBox chunk[kChunk];
  const std::size_t n8 = n & ~std::size_t{7};
  const std::size_t n4 = n & ~std::size_t{3};
  std::uint64_t mask = 0;
  for (std::size_t b0 = 0; b0 < nb; b0 += kChunk) {
    const std::size_t nc = std::min(kChunk, nb - b0);
    for (std::size_t c = 0; c < nc; ++c) {
      const Box& box = boxes[b0 + c];
      chunk[c] = {static_cast<std::int64_t>(box.x.lo), flipped_len(box.x),
                  static_cast<std::int64_t>(box.y.lo), flipped_len(box.y)};
    }
    // Eight entries per pass over the boxes: each box's bounds are
    // broadcast once for two independent groups of four.
    for (std::size_t j = 0; j < n8; j += 8) {
      __m256i xs0, ys0, xs1, ys1;
      LoadFlippedXY(entries + j, sign, &xs0, &ys0);
      LoadFlippedXY(entries + j + 4, sign, &xs1, &ys1);
      __m256i in0 = _mm256_setzero_si256();
      __m256i in1 = _mm256_setzero_si256();
      for (std::size_t c = 0; c < nc; ++c) {
        in0 = _mm256_or_si256(in0, InBoxLanes(xs0, ys0, chunk[c]));
        in1 = _mm256_or_si256(in1, InBoxLanes(xs1, ys1, chunk[c]));
      }
      mask |= (LaneBits(in0) | LaneBits(in1) << 4) << j;
    }
    if (n8 < n4) {
      __m256i xs, ys;
      LoadFlippedXY(entries + n8, sign, &xs, &ys);
      __m256i in = _mm256_setzero_si256();
      for (std::size_t c = 0; c < nc; ++c) {
        in = _mm256_or_si256(in, InBoxLanes(xs, ys, chunk[c]));
      }
      mask |= LaneBits(in) << n8;
    }
  }
  if (n4 < n) mask |= InBoxesMaskScalar(entries + n4, n - n4, boxes, nb) << n4;
  return mask;
}

#endif  // SAS_SIMD_X86

std::atomic<int> g_level{-1};

}  // namespace

Level DetectLevel() {
#if defined(SAS_SIMD_X86)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Level::kAvx2;
  }
#endif
  return Level::kScalar;
}

Level ActiveLevel() {
  int lv = g_level.load(std::memory_order_relaxed);
  if (lv < 0) {
    lv = static_cast<int>(DetectLevel());
    g_level.store(lv, std::memory_order_relaxed);
  }
  return static_cast<Level>(lv);
}

bool SetLevel(Level level) {
  if (static_cast<int>(level) > static_cast<int>(DetectLevel())) return false;
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
  return true;
}

const char* LevelName(Level level) {
  return level == Level::kAvx2 ? "avx2" : "scalar";
}

void FillIppsProbabilities(const double* w, std::size_t n, double tau,
                           double* probs) {
#if defined(SAS_SIMD_X86)
  if (ActiveLevel() == Level::kAvx2) {
    FillIppsProbabilitiesAvx2(w, n, probs, tau);
    return;
  }
#endif
  FillIppsProbabilitiesScalar(w, n, tau, probs);
}

ThresholdSplit ThresholdPass(const double* w, std::size_t n, double x) {
#if defined(SAS_SIMD_X86)
  if (ActiveLevel() == Level::kAvx2) return ThresholdPassAvx2(w, n, x);
#endif
  return ThresholdPassScalar(w, n, x);
}

void U64ToUnitDoubles(const std::uint64_t* raw, double* out, std::size_t n) {
#if defined(SAS_SIMD_X86)
  if (ActiveLevel() == Level::kAvx2) {
    U64ToUnitDoublesAvx2(raw, out, n);
    return;
  }
#endif
  U64ToUnitDoublesScalar(raw, out, n);
}

std::uint64_t InBoxesMask(const WeightedKey* entries, std::size_t n,
                          const Box* boxes, std::size_t nb) {
#if defined(SAS_SIMD_X86)
  if (ActiveLevel() == Level::kAvx2) {
    return InBoxesMaskAvx2(entries, n, boxes, nb);
  }
#endif
  return InBoxesMaskScalar(entries, n, boxes, nb);
}

}  // namespace simd
}  // namespace sas

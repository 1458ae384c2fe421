#include "common/simd.h"

#include <array>
#include <atomic>
#include <cmath>
#include <cstring>

#if !defined(PAQL_NO_SIMD) && defined(__x86_64__)
#define PAQL_SIMD_X86 1
#include <immintrin.h>
#elif !defined(PAQL_NO_SIMD) && defined(__aarch64__) && defined(__ARM_NEON)
#define PAQL_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace paql::simd {

namespace {

// --- Dispatch -----------------------------------------------------------

Level DetectLevel() {
#if defined(PAQL_SIMD_X86)
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
  return Level::kSse2;  // part of the x86-64 baseline, always present
#elif defined(PAQL_SIMD_NEON)
  return Level::kNeon;
#else
  return Level::kScalar;
#endif
}

Level HardwareLevel() {
  static const Level level = DetectLevel();
  return level;
}

std::atomic<bool> g_force_scalar{false};

// --- Scalar fallbacks ---------------------------------------------------
//
// These are the reference semantics: every intrinsic path below must
// reproduce them bit for bit. The compaction loop is the exact branchless
// idiom the chunk kernels used before this layer existed.

template <typename Test>
uint32_t CompactScalar(const double* v, uint32_t n, Test test, uint16_t* idx) {
  uint32_t kept = 0;
  for (uint32_t i = 0; i < n; ++i) {
    idx[kept] = static_cast<uint16_t>(i);
    kept += static_cast<uint32_t>(test(v[i]));
  }
  return kept;
}

template <typename Test>
uint32_t CompactScalarFrom(const double* v, uint32_t i, uint32_t n, Test test,
                           uint32_t kept, uint16_t* idx) {
  for (; i < n; ++i) {
    idx[kept] = static_cast<uint16_t>(i);
    kept += static_cast<uint32_t>(test(v[i]));
  }
  return kept;
}

/// The scalar comparison for `op` (NaN fails everything; kNe is ordered).
template <typename Fn>
auto WithCmp(Cmp op, double c, Fn fn) {
  switch (op) {
    case Cmp::kEq: return fn([c](double a) { return a == c; });
    case Cmp::kNe:
      return fn([c](double a) { return a != c && !std::isnan(a) &&
                                       !std::isnan(c); });
    case Cmp::kLt: return fn([c](double a) { return a < c; });
    case Cmp::kLe: return fn([c](double a) { return a <= c; });
    case Cmp::kGt: return fn([c](double a) { return a > c; });
    case Cmp::kGe: return fn([c](double a) { return a >= c; });
  }
  return fn([](double) { return false; });  // unreachable
}

template <typename Fn>
auto WithArith(Arith op, Fn fn) {
  switch (op) {
    case Arith::kAdd: return fn([](double a, double b) { return a + b; });
    case Arith::kSub: return fn([](double a, double b) { return a - b; });
    case Arith::kMul: return fn([](double a, double b) { return a * b; });
    case Arith::kDiv: return fn([](double a, double b) { return a / b; });
  }
  return fn([](double, double) { return 0.0; });  // unreachable
}

bool DivExactGate(int64_t v) {
  // |v| <= 2^51 - 1, phrased as one unsigned test.
  return (static_cast<uint64_t>(v) + (uint64_t{1} << 51)) <=
         ((uint64_t{1} << 52) - 1);
}

#if defined(PAQL_SIMD_X86)

// --- x86 helpers --------------------------------------------------------

/// Compaction LUT: entry m packs the ascending set-bit positions of the
/// 4-bit mask m into four uint16 fields (unused fields zero — they land
/// past `kept` and are overwritten by the next group or ignored).
constexpr std::array<uint64_t, 16> kCompact4 = [] {
  std::array<uint64_t, 16> t{};
  for (int m = 0; m < 16; ++m) {
    uint64_t e = 0;
    int k = 0;
    for (int b = 0; b < 4; ++b) {
      if ((m >> b) & 1) e |= static_cast<uint64_t>(b) << (16 * k++);
    }
    t[m] = e;
  }
  return t;
}();

constexpr std::array<uint32_t, 4> kCompact2 = [] {
  std::array<uint32_t, 4> t{};
  for (int m = 0; m < 4; ++m) {
    uint32_t e = 0;
    int k = 0;
    for (int b = 0; b < 2; ++b) {
      if ((m >> b) & 1) e |= static_cast<uint32_t>(b) << (16 * k++);
    }
    t[m] = e;
  }
  return t;
}();

/// Emit the lanes selected by the low 4 bits of `m` (uint16 indices
/// i..i+3) at idx + kept; returns the new kept. Writes stay within
/// idx[0, i+4): kept <= i always holds.
inline uint32_t EmitMask4(int m, uint32_t i, uint32_t kept, uint16_t* idx) {
  const uint64_t e =
      kCompact4[static_cast<size_t>(m)] + uint64_t{i} * 0x0001000100010001ull;
  std::memcpy(idx + kept, &e, sizeof(e));
  return kept + static_cast<uint32_t>(__builtin_popcount(static_cast<unsigned>(m)));
}

inline uint32_t EmitMask2(int m, uint32_t i, uint32_t kept, uint16_t* idx) {
  const uint32_t e =
      kCompact2[static_cast<size_t>(m)] + static_cast<uint32_t>(i) * 0x00010001u;
  std::memcpy(idx + kept, &e, sizeof(e));
  return kept + static_cast<uint32_t>(__builtin_popcount(static_cast<unsigned>(m)));
}

// --- AVX2 kernels -------------------------------------------------------
//
// Each definition carries target("avx2") — deliberately WITHOUT "fma", so
// the compiler cannot contract the explicit mul-then-add sequences into
// fused operations the baseline scalar code does not perform.

#define PAQL_COMPACT_AVX2(NAME, IMM)                                          \
  __attribute__((target("avx2"))) uint32_t NAME(                              \
      const double* v, uint32_t n, double c, uint16_t* idx) {                 \
    const __m256d cv = _mm256_set1_pd(c);                                     \
    uint32_t kept = 0, i = 0;                                                 \
    for (; i + 4 <= n; i += 4) {                                              \
      const int m = _mm256_movemask_pd(                                       \
          _mm256_cmp_pd(_mm256_loadu_pd(v + i), cv, IMM));                    \
      kept = EmitMask4(m, i, kept, idx);                                      \
    }                                                                         \
    return WithCmp(kImmOp, c, [&](auto test) {                                \
      return CompactScalarFrom(v, i, n, test, kept, idx);                     \
    });                                                                       \
  }

// The macro needs the Cmp enumerator for the scalar tail; bind it locally.
#define PAQL_COMPACT_AVX2_OP(NAME, IMM, OP)                                   \
  namespace avx2_detail_##NAME {                                              \
  constexpr Cmp kImmOp = OP;                                                  \
  PAQL_COMPACT_AVX2(NAME, IMM)                                                \
  }                                                                           \
  using avx2_detail_##NAME::NAME;

PAQL_COMPACT_AVX2_OP(CompactEqAvx2, _CMP_EQ_OQ, Cmp::kEq)
PAQL_COMPACT_AVX2_OP(CompactNeAvx2, _CMP_NEQ_OQ, Cmp::kNe)
PAQL_COMPACT_AVX2_OP(CompactLtAvx2, _CMP_LT_OQ, Cmp::kLt)
PAQL_COMPACT_AVX2_OP(CompactLeAvx2, _CMP_LE_OQ, Cmp::kLe)
PAQL_COMPACT_AVX2_OP(CompactGtAvx2, _CMP_GT_OQ, Cmp::kGt)
PAQL_COMPACT_AVX2_OP(CompactGeAvx2, _CMP_GE_OQ, Cmp::kGe)

#undef PAQL_COMPACT_AVX2_OP
#undef PAQL_COMPACT_AVX2

__attribute__((target("avx2"))) uint32_t CompactRangeAvx2(
    const double* v, uint32_t n, double lo, double hi, uint16_t* idx) {
  const __m256d vlo = _mm256_set1_pd(lo), vhi = _mm256_set1_pd(hi);
  uint32_t kept = 0, i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(v + i);
    const int m = _mm256_movemask_pd(
        _mm256_and_pd(_mm256_cmp_pd(x, vlo, _CMP_GE_OQ),
                      _mm256_cmp_pd(x, vhi, _CMP_LE_OQ)));
    kept = EmitMask4(m, i, kept, idx);
  }
  return CompactScalarFrom(
      v, i, n, [lo, hi](double a) { return a >= lo && a <= hi; }, kept, idx);
}

__attribute__((target("avx2"))) void ArithConstAvx2(double* v, uint32_t n,
                                                    Arith op, double c,
                                                    bool const_lhs) {
  const __m256d cv = _mm256_set1_pd(c);
  uint32_t i = 0;
  switch (op) {
    case Arith::kAdd:
      for (; i + 4 <= n; i += 4) {
        _mm256_storeu_pd(v + i, _mm256_add_pd(_mm256_loadu_pd(v + i), cv));
      }
      break;
    case Arith::kSub:
      for (; i + 4 <= n; i += 4) {
        const __m256d x = _mm256_loadu_pd(v + i);
        _mm256_storeu_pd(v + i, const_lhs ? _mm256_sub_pd(cv, x)
                                          : _mm256_sub_pd(x, cv));
      }
      break;
    case Arith::kMul:
      for (; i + 4 <= n; i += 4) {
        _mm256_storeu_pd(v + i, _mm256_mul_pd(_mm256_loadu_pd(v + i), cv));
      }
      break;
    case Arith::kDiv:
      for (; i + 4 <= n; i += 4) {
        const __m256d x = _mm256_loadu_pd(v + i);
        _mm256_storeu_pd(v + i, const_lhs ? _mm256_div_pd(cv, x)
                                          : _mm256_div_pd(x, cv));
      }
      break;
  }
  WithArith(op, [&](auto f) {
    for (; i < n; ++i) v[i] = const_lhs ? f(c, v[i]) : f(v[i], c);
    return 0.0;
  });
}

__attribute__((target("avx2"))) void NegateAvx2(double* v, uint32_t n) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(v + i, _mm256_xor_pd(_mm256_loadu_pd(v + i), sign));
  }
  for (; i < n; ++i) v[i] = -v[i];
}

__attribute__((target("avx2"))) void FoldMinMaxAvx2(const double* v,
                                                    uint32_t n, double* lo,
                                                    double* hi) {
  double l = *lo, h = *hi;
  uint32_t i = 0;
  if (n >= 4) {
    // min_pd(x, acc) is lane-wise `(x < acc) ? x : acc`, returning acc on
    // NaN — exactly std::min(acc, x); likewise max_pd(x, acc).
    __m256d vlo = _mm256_set1_pd(l), vhi = _mm256_set1_pd(h);
    for (; i + 4 <= n; i += 4) {
      const __m256d x = _mm256_loadu_pd(v + i);
      vlo = _mm256_min_pd(x, vlo);
      vhi = _mm256_max_pd(x, vhi);
    }
    double tl[4], th[4];
    _mm256_storeu_pd(tl, vlo);
    _mm256_storeu_pd(th, vhi);
    for (int k = 0; k < 4; ++k) {
      l = tl[k] < l ? tl[k] : l;
      h = th[k] > h ? th[k] : h;
    }
  }
  for (; i < n; ++i) {
    l = v[i] < l ? v[i] : l;
    h = v[i] > h ? v[i] : h;
  }
  *lo = l;
  *hi = h;
}

__attribute__((target("avx2"))) void FoldMinAbsAvx2(const double* v,
                                                    uint32_t n, double* best) {
  const __m256d mask = _mm256_castsi256_pd(
      _mm256_set1_epi64x(0x7fffffffffffffffLL));
  double b = *best;
  uint32_t i = 0;
  if (n >= 4) {
    __m256d acc = _mm256_set1_pd(b);
    for (; i + 4 <= n; i += 4) {
      acc = _mm256_min_pd(_mm256_and_pd(_mm256_loadu_pd(v + i), mask), acc);
    }
    double t[4];
    _mm256_storeu_pd(t, acc);
    for (int k = 0; k < 4; ++k) b = t[k] < b ? t[k] : b;
  }
  for (; i < n; ++i) {
    const double a = std::abs(v[i]);
    b = a < b ? a : b;
  }
  *best = b;
}

__attribute__((target("avx2"))) void FoldMaxAbsDevAvx2(const double* v,
                                                       uint32_t n,
                                                       double center,
                                                       double* radius) {
  const __m256d mask = _mm256_castsi256_pd(
      _mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256d cv = _mm256_set1_pd(center);
  double r = *radius;
  uint32_t i = 0;
  if (n >= 4) {
    __m256d acc = _mm256_set1_pd(r);
    for (; i + 4 <= n; i += 4) {
      const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(v + i), cv);
      acc = _mm256_max_pd(_mm256_and_pd(d, mask), acc);
    }
    double t[4];
    _mm256_storeu_pd(t, acc);
    for (int k = 0; k < 4; ++k) r = t[k] > r ? t[k] : r;
  }
  for (; i < n; ++i) {
    const double a = std::abs(v[i] - center);
    r = a > r ? a : r;
  }
  *radius = r;
}

__attribute__((target("avx2"))) void MulAddConstAvx2(double* out,
                                                     const double* v,
                                                     uint32_t n,
                                                     double scale) {
  const __m256d sv = _mm256_set1_pd(scale);
  uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(sv, _mm256_loadu_pd(v + i));
    _mm256_storeu_pd(out + i, _mm256_add_pd(_mm256_loadu_pd(out + i), prod));
  }
  for (; i < n; ++i) out[i] += scale * v[i];
}

__attribute__((target("avx2"))) uint32_t CountNonZeroAvx2(const double* v,
                                                          uint32_t n) {
  const __m256d zero = _mm256_setzero_pd();
  uint32_t count = 0, i = 0;
  for (; i + 4 <= n; i += 4) {
    // NEQ_UQ: unordered-or-nonequal, so NaN counts — same as `c != 0.0`.
    const int m = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(v + i), zero, _CMP_NEQ_UQ));
    count += static_cast<uint32_t>(__builtin_popcount(static_cast<unsigned>(m)));
  }
  for (; i < n; ++i) count += v[i] != 0.0 ? 1 : 0;
  return count;
}

__attribute__((target("avx2"))) void AddConstU64Avx2(const uint64_t* in,
                                                     uint32_t n,
                                                     uint64_t base,
                                                     int64_t* out) {
  const __m256i bv = _mm256_set1_epi64x(static_cast<long long>(base));
  uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_add_epi64(x, bv));
  }
  for (; i < n; ++i) out[i] = static_cast<int64_t>(base + in[i]);
}

__attribute__((target("avx2"))) bool I64ToDoubleDivAvx2(const int64_t* in,
                                                        uint32_t n,
                                                        double scale,
                                                        double* out) {
  // Magic-number int64->double: for u = v + 2^51 in [0, 2^52), the bit
  // pattern 2^52 | u read as a double equals 2^52 + u exactly, and
  // subtracting (2^52 + 2^51) recovers v exactly (the difference is
  // representable, so the subtraction rounds to it). Outside the gate the
  // trick is not exact — bail to the caller's scalar loop.
  const __m256i bias = _mm256_set1_epi64x(1LL << 51);
  const __m256i mantissa = _mm256_set1_epi64x((1LL << 52) - 1);
  const __m256i exp52 = _mm256_set1_epi64x(0x4330000000000000LL);
  const __m256d magic = _mm256_set1_pd(6755399441055744.0);  // 2^52 + 2^51
  const __m256d sv = _mm256_set1_pd(scale);
  uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    const __m256i u = _mm256_add_epi64(v, bias);
    const __m256i high = _mm256_andnot_si256(mantissa, u);
    if (!_mm256_testz_si256(high, high)) return false;
    const __m256d d = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(u, exp52)), magic);
    _mm256_storeu_pd(out + i, _mm256_div_pd(d, sv));
  }
  for (; i < n; ++i) {
    if (!DivExactGate(in[i])) return false;
    out[i] = static_cast<double>(in[i]) / scale;
  }
  return true;
}

// --- SSE2 kernels -------------------------------------------------------
//
// SSE2 is part of the x86-64 baseline, so these compile without target
// attributes; they exist for pre-AVX2 hardware.

template <Cmp OP>
inline __m128d CmpSse2(__m128d x, __m128d cv) {
  if constexpr (OP == Cmp::kEq) {
    return _mm_cmpeq_pd(x, cv);
  } else if constexpr (OP == Cmp::kNe) {
    // cmpneq is unordered-or-nonequal; AND with ordered to match the
    // scalar `a != c && !isnan(a) && !isnan(c)`.
    return _mm_and_pd(_mm_cmpneq_pd(x, cv), _mm_cmpord_pd(x, cv));
  } else if constexpr (OP == Cmp::kLt) {
    return _mm_cmplt_pd(x, cv);
  } else if constexpr (OP == Cmp::kLe) {
    return _mm_cmple_pd(x, cv);
  } else if constexpr (OP == Cmp::kGt) {
    return _mm_cmpgt_pd(x, cv);
  } else {
    return _mm_cmpge_pd(x, cv);
  }
}

template <Cmp OP, typename Test>
uint32_t CompactCmpSse2(const double* v, uint32_t n, double c, Test test,
                        uint16_t* idx) {
  const __m128d cv = _mm_set1_pd(c);
  uint32_t kept = 0, i = 0;
  for (; i + 2 <= n; i += 2) {
    const int m = _mm_movemask_pd(CmpSse2<OP>(_mm_loadu_pd(v + i), cv));
    kept = EmitMask2(m, i, kept, idx);
  }
  return CompactScalarFrom(v, i, n, test, kept, idx);
}

uint32_t CompactRangeSse2(const double* v, uint32_t n, double lo, double hi,
                          uint16_t* idx) {
  const __m128d vlo = _mm_set1_pd(lo), vhi = _mm_set1_pd(hi);
  uint32_t kept = 0, i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d x = _mm_loadu_pd(v + i);
    const int m = _mm_movemask_pd(
        _mm_and_pd(_mm_cmpge_pd(x, vlo), _mm_cmple_pd(x, vhi)));
    kept = EmitMask2(m, i, kept, idx);
  }
  return CompactScalarFrom(
      v, i, n, [lo, hi](double a) { return a >= lo && a <= hi; }, kept, idx);
}

void FoldMinMaxSse2(const double* v, uint32_t n, double* lo, double* hi) {
  double l = *lo, h = *hi;
  uint32_t i = 0;
  if (n >= 2) {
    __m128d vlo = _mm_set1_pd(l), vhi = _mm_set1_pd(h);
    for (; i + 2 <= n; i += 2) {
      const __m128d x = _mm_loadu_pd(v + i);
      vlo = _mm_min_pd(x, vlo);
      vhi = _mm_max_pd(x, vhi);
    }
    double tl[2], th[2];
    _mm_storeu_pd(tl, vlo);
    _mm_storeu_pd(th, vhi);
    for (int k = 0; k < 2; ++k) {
      l = tl[k] < l ? tl[k] : l;
      h = th[k] > h ? th[k] : h;
    }
  }
  for (; i < n; ++i) {
    l = v[i] < l ? v[i] : l;
    h = v[i] > h ? v[i] : h;
  }
  *lo = l;
  *hi = h;
}

bool I64ToDoubleDivSse2(const int64_t* in, uint32_t n, double scale,
                        double* out) {
  const __m128i bias = _mm_set1_epi64x(1LL << 51);
  const __m128i mantissa = _mm_set1_epi64x((1LL << 52) - 1);
  const __m128i exp52 = _mm_set1_epi64x(0x4330000000000000LL);
  const __m128d magic = _mm_set1_pd(6755399441055744.0);
  const __m128d sv = _mm_set1_pd(scale);
  const __m128i zero = _mm_setzero_si128();
  uint32_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i));
    const __m128i u = _mm_add_epi64(v, bias);
    const __m128i high = _mm_andnot_si128(mantissa, u);
    if (_mm_movemask_epi8(_mm_cmpeq_epi32(high, zero)) != 0xFFFF) {
      return false;
    }
    const __m128d d =
        _mm_sub_pd(_mm_castsi128_pd(_mm_or_si128(u, exp52)), magic);
    _mm_storeu_pd(out + i, _mm_div_pd(d, sv));
  }
  for (; i < n; ++i) {
    if (!DivExactGate(in[i])) return false;
    out[i] = static_cast<double>(in[i]) / scale;
  }
  return true;
}

#elif defined(PAQL_SIMD_NEON)

// --- NEON kernels (aarch64, compile-time selected) ----------------------

inline uint64x2_t NotU64(uint64x2_t v) {
  return vreinterpretq_u64_u32(vmvnq_u32(vreinterpretq_u32_u64(v)));
}

template <Cmp OP>
inline uint64x2_t CmpNeon(float64x2_t x, float64x2_t cv) {
  if constexpr (OP == Cmp::kEq) {
    return vceqq_f64(x, cv);
  } else if constexpr (OP == Cmp::kNe) {
    // ordered non-equal: !(eq) AND !isnan(x) AND !isnan(c).
    const uint64x2_t ord = vandq_u64(vceqq_f64(x, x), vceqq_f64(cv, cv));
    return vandq_u64(NotU64(vceqq_f64(x, cv)), ord);
  } else if constexpr (OP == Cmp::kLt) {
    return vcltq_f64(x, cv);
  } else if constexpr (OP == Cmp::kLe) {
    return vcleq_f64(x, cv);
  } else if constexpr (OP == Cmp::kGt) {
    return vcgtq_f64(x, cv);
  } else {
    return vcgeq_f64(x, cv);
  }
}

template <Cmp OP, typename Test>
uint32_t CompactCmpNeon(const double* v, uint32_t n, double c, Test test,
                        uint16_t* idx) {
  const float64x2_t cv = vdupq_n_f64(c);
  uint32_t kept = 0, i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t m = CmpNeon<OP>(vld1q_f64(v + i), cv);
    idx[kept] = static_cast<uint16_t>(i);
    kept += vgetq_lane_u64(m, 0) != 0 ? 1u : 0u;
    idx[kept] = static_cast<uint16_t>(i + 1);
    kept += vgetq_lane_u64(m, 1) != 0 ? 1u : 0u;
  }
  return CompactScalarFrom(v, i, n, test, kept, idx);
}

#endif  // PAQL_SIMD_X86 / PAQL_SIMD_NEON

}  // namespace

// --- Public API ---------------------------------------------------------

Level ActiveLevel() {
  return ScalarForced() ? Level::kScalar : HardwareLevel();
}

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kSse2: return "sse2";
    case Level::kAvx2: return "avx2";
    case Level::kNeon: return "neon";
  }
  return "unknown";
}

void ForceScalar(bool on) {
  g_force_scalar.store(on, std::memory_order_relaxed);
}

bool ScalarForced() {
  return g_force_scalar.load(std::memory_order_relaxed);
}

uint32_t CompactCmpConst(const double* values, uint32_t n, Cmp op, double c,
                         uint16_t* idx) {
#if defined(PAQL_SIMD_X86)
  const Level level = ActiveLevel();
  if (level == Level::kAvx2) {
    switch (op) {
      case Cmp::kEq: return CompactEqAvx2(values, n, c, idx);
      case Cmp::kNe: return CompactNeAvx2(values, n, c, idx);
      case Cmp::kLt: return CompactLtAvx2(values, n, c, idx);
      case Cmp::kLe: return CompactLeAvx2(values, n, c, idx);
      case Cmp::kGt: return CompactGtAvx2(values, n, c, idx);
      case Cmp::kGe: return CompactGeAvx2(values, n, c, idx);
    }
  }
  if (level == Level::kSse2) {
    return WithCmp(op, c, [&](auto test) {
      switch (op) {
        case Cmp::kEq:
          return CompactCmpSse2<Cmp::kEq>(values, n, c, test, idx);
        case Cmp::kNe:
          return CompactCmpSse2<Cmp::kNe>(values, n, c, test, idx);
        case Cmp::kLt:
          return CompactCmpSse2<Cmp::kLt>(values, n, c, test, idx);
        case Cmp::kLe:
          return CompactCmpSse2<Cmp::kLe>(values, n, c, test, idx);
        case Cmp::kGt:
          return CompactCmpSse2<Cmp::kGt>(values, n, c, test, idx);
        case Cmp::kGe:
          return CompactCmpSse2<Cmp::kGe>(values, n, c, test, idx);
      }
      return CompactScalar(values, n, test, idx);
    });
  }
#elif defined(PAQL_SIMD_NEON)
  if (ActiveLevel() == Level::kNeon) {
    return WithCmp(op, c, [&](auto test) {
      switch (op) {
        case Cmp::kEq:
          return CompactCmpNeon<Cmp::kEq>(values, n, c, test, idx);
        case Cmp::kNe:
          return CompactCmpNeon<Cmp::kNe>(values, n, c, test, idx);
        case Cmp::kLt:
          return CompactCmpNeon<Cmp::kLt>(values, n, c, test, idx);
        case Cmp::kLe:
          return CompactCmpNeon<Cmp::kLe>(values, n, c, test, idx);
        case Cmp::kGt:
          return CompactCmpNeon<Cmp::kGt>(values, n, c, test, idx);
        case Cmp::kGe:
          return CompactCmpNeon<Cmp::kGe>(values, n, c, test, idx);
      }
      return CompactScalar(values, n, test, idx);
    });
  }
#endif
  return WithCmp(op, c, [&](auto test) {
    return CompactScalar(values, n, test, idx);
  });
}

uint32_t CompactRangeConst(const double* values, uint32_t n, double lo,
                           double hi, uint16_t* idx) {
#if defined(PAQL_SIMD_X86)
  const Level level = ActiveLevel();
  if (level == Level::kAvx2) return CompactRangeAvx2(values, n, lo, hi, idx);
  if (level == Level::kSse2) return CompactRangeSse2(values, n, lo, hi, idx);
#endif
  return CompactScalar(
      values, n, [lo, hi](double a) { return a >= lo && a <= hi; }, idx);
}

void ApplyConstRhs(double* v, uint32_t n, Arith op, double c) {
#if defined(PAQL_SIMD_X86)
  if (ActiveLevel() == Level::kAvx2) {
    ArithConstAvx2(v, n, op, c, /*const_lhs=*/false);
    return;
  }
#endif
  WithArith(op, [&](auto f) {
    for (uint32_t i = 0; i < n; ++i) v[i] = f(v[i], c);
    return 0.0;
  });
}

void ApplyConstLhs(double* v, uint32_t n, Arith op, double c) {
#if defined(PAQL_SIMD_X86)
  if (ActiveLevel() == Level::kAvx2) {
    ArithConstAvx2(v, n, op, c, /*const_lhs=*/true);
    return;
  }
#endif
  WithArith(op, [&](auto f) {
    for (uint32_t i = 0; i < n; ++i) v[i] = f(c, v[i]);
    return 0.0;
  });
}

void Negate(double* v, uint32_t n) {
#if defined(PAQL_SIMD_X86)
  if (ActiveLevel() == Level::kAvx2) {
    NegateAvx2(v, n);
    return;
  }
#endif
  for (uint32_t i = 0; i < n; ++i) v[i] = -v[i];
}

void FoldMinMax(const double* v, uint32_t n, double* lo, double* hi) {
#if defined(PAQL_SIMD_X86)
  const Level level = ActiveLevel();
  if (level == Level::kAvx2) {
    FoldMinMaxAvx2(v, n, lo, hi);
    return;
  }
  if (level == Level::kSse2) {
    FoldMinMaxSse2(v, n, lo, hi);
    return;
  }
#endif
  double l = *lo, h = *hi;
  for (uint32_t i = 0; i < n; ++i) {
    l = v[i] < l ? v[i] : l;
    h = v[i] > h ? v[i] : h;
  }
  *lo = l;
  *hi = h;
}

void FoldMinAbs(const double* v, uint32_t n, double* best) {
#if defined(PAQL_SIMD_X86)
  if (ActiveLevel() == Level::kAvx2) {
    FoldMinAbsAvx2(v, n, best);
    return;
  }
#endif
  double b = *best;
  for (uint32_t i = 0; i < n; ++i) {
    const double a = std::abs(v[i]);
    b = a < b ? a : b;
  }
  *best = b;
}

void FoldMaxAbsDeviation(const double* v, uint32_t n, double center,
                         double* radius) {
#if defined(PAQL_SIMD_X86)
  if (ActiveLevel() == Level::kAvx2) {
    FoldMaxAbsDevAvx2(v, n, center, radius);
    return;
  }
#endif
  double r = *radius;
  for (uint32_t i = 0; i < n; ++i) {
    const double a = std::abs(v[i] - center);
    r = a > r ? a : r;
  }
  *radius = r;
}

void MulAddConst(double* out, const double* v, uint32_t n, double scale) {
#if defined(PAQL_SIMD_X86)
  if (ActiveLevel() == Level::kAvx2) {
    MulAddConstAvx2(out, v, n, scale);
    return;
  }
#endif
  for (uint32_t i = 0; i < n; ++i) out[i] += scale * v[i];
}

uint32_t CountNonZero(const double* v, uint32_t n) {
#if defined(PAQL_SIMD_X86)
  if (ActiveLevel() == Level::kAvx2) return CountNonZeroAvx2(v, n);
#endif
  uint32_t count = 0;
  for (uint32_t i = 0; i < n; ++i) count += v[i] != 0.0 ? 1 : 0;
  return count;
}

void AddConstU64(const uint64_t* in, uint32_t n, uint64_t base, int64_t* out) {
#if defined(PAQL_SIMD_X86)
  if (ActiveLevel() == Level::kAvx2) {
    AddConstU64Avx2(in, n, base, out);
    return;
  }
#endif
  for (uint32_t i = 0; i < n; ++i) {
    out[i] = static_cast<int64_t>(base + in[i]);
  }
}

bool I64ToDoubleDiv(const int64_t* in, uint32_t n, double scale, double* out) {
#if defined(PAQL_SIMD_X86)
  const Level level = ActiveLevel();
  if (level == Level::kAvx2) return I64ToDoubleDivAvx2(in, n, scale, out);
  if (level == Level::kSse2) return I64ToDoubleDivSse2(in, n, scale, out);
#elif defined(PAQL_SIMD_NEON)
  if (ActiveLevel() == Level::kNeon) {
    // aarch64 scvtf is the same correctly-rounded conversion the scalar
    // cast performs, so no exactness gate is needed here.
    uint32_t i = 0;
    const float64x2_t sv = vdupq_n_f64(scale);
    for (; i + 2 <= n; i += 2) {
      const float64x2_t d = vcvtq_f64_s64(vld1q_s64(in + i));
      vst1q_f64(out + i, vdivq_f64(d, sv));
    }
    for (; i < n; ++i) out[i] = static_cast<double>(in[i]) / scale;
    return true;
  }
#endif
  // Scalar path applies the same gate as the x86 SIMD paths so that the
  // accept/decline decision — and therefore the caller's control flow —
  // is identical across modes.
  for (uint32_t i = 0; i < n; ++i) {
    if (!DivExactGate(in[i])) return false;
    out[i] = static_cast<double>(in[i]) / scale;
  }
  return true;
}

}  // namespace paql::simd

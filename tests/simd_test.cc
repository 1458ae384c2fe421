// Kernel-level bit-identity tests for common/simd.h: every dispatched
// kernel against its scalar fallback (via the ForceScalar runtime switch),
// over inputs chosen to hit the awkward lanes — NaN, +/-0, infinities,
// non-multiple-of-width tails, and the int64->double exactness gate.
//
// On a build or machine whose dispatch already resolves to kScalar the two
// runs are the same code path and the comparisons hold trivially; the CI
// PAQL_NO_SIMD job covers that configuration explicitly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "common/simd.h"

namespace paql::simd {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Restore SIMD dispatch on scope exit no matter how a test ends.
struct ForceScalarGuard {
  ~ForceScalarGuard() { ForceScalar(false); }
};

/// Random doubles with deliberate NaN / zero / negative-zero / repeated
/// lanes (repeats make Eq/Ne compares non-vacuous against integer c).
std::vector<double> RandomLanes(uint32_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> value(-20.0, 20.0);
  std::uniform_int_distribution<int> small(-5, 5);
  std::vector<double> v(n);
  for (uint32_t i = 0; i < n; ++i) {
    switch (rng() % 8) {
      case 0: v[i] = kNaN; break;
      case 1: v[i] = 0.0; break;
      case 2: v[i] = -0.0; break;
      case 3: v[i] = static_cast<double>(small(rng)); break;
      default: v[i] = value(rng); break;
    }
  }
  return v;
}

/// Bitwise equality: NaN payloads and signed zeros must match too. An
/// empty vector's data() may be null, which memcmp must not be given.
void ExpectBitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  if (a.empty()) return;
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

// Lengths straddling the AVX2 group width (4), the unroll, and kChunkSize.
constexpr uint32_t kLens[] = {0, 1, 2, 3, 4, 5, 7, 8, 17, 63, 64,
                              100, 1021, 1024};

TEST(SimdTest, CompactCmpConstMatchesScalar) {
  ForceScalarGuard guard;
  const Cmp ops[] = {Cmp::kEq, Cmp::kNe, Cmp::kLt,
                     Cmp::kLe, Cmp::kGt, Cmp::kGe};
  for (uint32_t n : kLens) {
    std::vector<double> v = RandomLanes(n, 11 + n);
    for (Cmp op : ops) {
      for (double c : {0.0, -0.0, 2.0, kNaN}) {
        std::vector<uint16_t> idx_simd(n + 8, 0xFFFF), idx_sc(n + 8, 0xFFFF);
        ForceScalar(false);
        uint32_t k_simd = CompactCmpConst(v.data(), n, op, c, idx_simd.data());
        ForceScalar(true);
        uint32_t k_sc = CompactCmpConst(v.data(), n, op, c, idx_sc.data());
        ForceScalar(false);
        ASSERT_EQ(k_simd, k_sc) << "n=" << n << " op=" << static_cast<int>(op)
                                << " c=" << c;
        for (uint32_t i = 0; i < k_sc; ++i) {
          ASSERT_EQ(idx_simd[i], idx_sc[i]) << "n=" << n << " entry " << i;
        }
      }
    }
  }
}

TEST(SimdTest, CompactRangeConstMatchesScalar) {
  ForceScalarGuard guard;
  for (uint32_t n : kLens) {
    std::vector<double> v = RandomLanes(n, 23 + n);
    for (auto [lo, hi] : {std::pair{-3.0, 3.0}, {0.0, 0.0}, {5.0, -5.0}}) {
      std::vector<uint16_t> idx_simd(n + 8), idx_sc(n + 8);
      ForceScalar(false);
      uint32_t k_simd = CompactRangeConst(v.data(), n, lo, hi, idx_simd.data());
      ForceScalar(true);
      uint32_t k_sc = CompactRangeConst(v.data(), n, lo, hi, idx_sc.data());
      ForceScalar(false);
      ASSERT_EQ(k_simd, k_sc) << "n=" << n << " [" << lo << "," << hi << "]";
      for (uint32_t i = 0; i < k_sc; ++i) ASSERT_EQ(idx_simd[i], idx_sc[i]);
    }
  }
}

TEST(SimdTest, ConstArithAndNegateMatchScalar) {
  ForceScalarGuard guard;
  const Arith ops[] = {Arith::kAdd, Arith::kSub, Arith::kMul, Arith::kDiv};
  for (uint32_t n : kLens) {
    for (Arith op : ops) {
      for (double c : {3.5, -0.0, 0.0, kInf}) {
        std::vector<double> base = RandomLanes(n, 37 + n);
        std::vector<double> a = base, b = base;
        ForceScalar(false);
        ApplyConstRhs(a.data(), n, op, c);
        ForceScalar(true);
        ApplyConstRhs(b.data(), n, op, c);
        ExpectBitEqual(a, b);
        a = base;
        b = base;
        ForceScalar(false);
        ApplyConstLhs(a.data(), n, op, c);
        ForceScalar(true);
        ApplyConstLhs(b.data(), n, op, c);
        ForceScalar(false);
        ExpectBitEqual(a, b);
      }
    }
    std::vector<double> a = RandomLanes(n, 41 + n), b = a;
    ForceScalar(false);
    Negate(a.data(), n);
    ForceScalar(true);
    Negate(b.data(), n);
    ForceScalar(false);
    ExpectBitEqual(a, b);
  }
}

TEST(SimdTest, FoldsMatchScalar) {
  ForceScalarGuard guard;
  for (uint32_t n : kLens) {
    std::vector<double> v = RandomLanes(n, 53 + n);
    double lo_a = kInf, hi_a = -kInf, lo_b = kInf, hi_b = -kInf;
    double min_a = kInf, min_b = kInf, rad_a = 0, rad_b = 0;
    ForceScalar(false);
    FoldMinMax(v.data(), n, &lo_a, &hi_a);
    FoldMinAbs(v.data(), n, &min_a);
    FoldMaxAbsDeviation(v.data(), n, 1.25, &rad_a);
    ForceScalar(true);
    FoldMinMax(v.data(), n, &lo_b, &hi_b);
    FoldMinAbs(v.data(), n, &min_b);
    FoldMaxAbsDeviation(v.data(), n, 1.25, &rad_b);
    ForceScalar(false);
    // Compare as values, not bits: the strided SIMD fold may legitimately
    // settle on the other representative of a -0.0/0.0 min/max tie (the
    // only reassociation-visible case; no consumer distinguishes them).
    EXPECT_EQ(lo_a, lo_b) << "n=" << n;
    EXPECT_EQ(hi_a, hi_b) << "n=" << n;
    EXPECT_EQ(min_a, min_b) << "n=" << n;
    EXPECT_EQ(rad_a, rad_b) << "n=" << n;
  }
}

TEST(SimdTest, MulAddConstMatchesScalarBitForBit) {
  ForceScalarGuard guard;
  for (uint32_t n : kLens) {
    std::vector<double> v = RandomLanes(n, 67 + n);
    std::vector<double> out_a = RandomLanes(n, 71 + n), out_b = out_a;
    for (double scale : {1.0, -2.5, 0.125}) {
      ForceScalar(false);
      MulAddConst(out_a.data(), v.data(), n, scale);
      ForceScalar(true);
      MulAddConst(out_b.data(), v.data(), n, scale);
      ForceScalar(false);
      ExpectBitEqual(out_a, out_b);
    }
  }
}

TEST(SimdTest, CountNonZeroCountsNaNAndSignedZero) {
  ForceScalarGuard guard;
  for (uint32_t n : kLens) {
    std::vector<double> v = RandomLanes(n, 83 + n);
    ForceScalar(false);
    uint32_t a = CountNonZero(v.data(), n);
    ForceScalar(true);
    uint32_t b = CountNonZero(v.data(), n);
    ForceScalar(false);
    EXPECT_EQ(a, b) << "n=" << n;
    // Independent reference: NaN != 0.0 is true, -0.0 != 0.0 is false.
    uint32_t ref = 0;
    for (uint32_t i = 0; i < n; ++i) ref += v[i] != 0.0 ? 1 : 0;
    EXPECT_EQ(a, ref) << "n=" << n;
  }
}

TEST(SimdTest, AddConstU64MatchesScalar) {
  ForceScalarGuard guard;
  std::mt19937_64 rng(97);
  for (uint32_t n : kLens) {
    std::vector<uint64_t> in(n);
    for (auto& x : in) x = rng();
    for (uint64_t base : {uint64_t{0}, uint64_t{1} << 40, ~uint64_t{0}}) {
      std::vector<int64_t> a(n, -1), b(n, -1);
      ForceScalar(false);
      AddConstU64(in.data(), n, base, a.data());
      ForceScalar(true);
      AddConstU64(in.data(), n, base, b.data());
      ForceScalar(false);
      EXPECT_EQ(a, b) << "n=" << n << " base=" << base;
    }
  }
}

TEST(SimdTest, I64ToDoubleDivExactInsideGateRejectsOutside) {
  ForceScalarGuard guard;
  std::mt19937_64 rng(101);
  std::uniform_int_distribution<int64_t> in_gate(-(int64_t{1} << 51) + 1,
                                                 (int64_t{1} << 51) - 1);
  for (uint32_t n : kLens) {
    std::vector<int64_t> in(n);
    for (auto& x : in) x = in_gate(rng);
    for (double scale : {1.0, 100.0, 0.001}) {
      std::vector<double> a(n, kNaN), b(n, kNaN);
      ForceScalar(false);
      bool ok_a = I64ToDoubleDiv(in.data(), n, scale, a.data());
      ForceScalar(true);
      bool ok_b = I64ToDoubleDiv(in.data(), n, scale, b.data());
      ForceScalar(false);
      ASSERT_TRUE(ok_a);
      ASSERT_TRUE(ok_b);
      ExpectBitEqual(a, b);
      // Independent reference: plain cast-and-divide.
      for (uint32_t i = 0; i < n; ++i) {
        ASSERT_EQ(a[i], static_cast<double>(in[i]) / scale) << "lane " << i;
      }
    }
  }
  // A value outside |v| <= 2^51 - 1 must be rejected identically by the
  // SIMD gate and the (deliberately gate-matching) scalar fallback.
  std::vector<int64_t> big(16, 7);
  big[13] = int64_t{1} << 53;
  std::vector<double> out(16);
  ForceScalar(false);
  EXPECT_FALSE(I64ToDoubleDiv(big.data(), 16, 10.0, out.data()));
  ForceScalar(true);
  EXPECT_FALSE(I64ToDoubleDiv(big.data(), 16, 10.0, out.data()));
  ForceScalar(false);
}

TEST(SimdTest, ForceScalarSwitchIsObservable) {
  ForceScalarGuard guard;
  ForceScalar(true);
  EXPECT_TRUE(ScalarForced());
  EXPECT_EQ(ActiveLevel(), Level::kScalar);
  ForceScalar(false);
  EXPECT_FALSE(ScalarForced());
  // Whatever the hardware resolves to, the name must be printable.
  EXPECT_NE(LevelName(ActiveLevel()), nullptr);
}

}  // namespace
}  // namespace paql::simd

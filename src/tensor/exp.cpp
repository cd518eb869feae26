#include "tensor/exp.h"

#include <cstring>
#include <limits>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace snappix::detail {

namespace {

inline std::uint32_t bits_of(float x) {
  std::uint32_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

inline std::uint64_t bits_of(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

inline double double_of(std::uint64_t u) {
  double x = 0.0;
  std::memcpy(&x, &u, sizeof x);
  return x;
}

// tab[i] = bits(2^(i/32) rounded to double) - (i << 47): adding ki << 47 for
// ki = 32 m + i then puts m in the exponent of 2^(i/32).
constexpr std::uint64_t kTab[32] = {
    0x3ff0000000000000ULL, 0x3fefd9b0d3158574ULL, 0x3fefb5586cf9890fULL, 0x3fef9301d0125b51ULL,
    0x3fef72b83c7d517bULL, 0x3fef54873168b9aaULL, 0x3fef387a6e756238ULL, 0x3fef1e9df51fdee1ULL,
    0x3fef06fe0a31b715ULL, 0x3feef1a7373aa9cbULL, 0x3feedea64c123422ULL, 0x3feece086061892dULL,
    0x3feebfdad5362a27ULL, 0x3feeb42b569d4f82ULL, 0x3feeab07dd485429ULL, 0x3feea47eb03a5585ULL,
    0x3feea09e667f3bcdULL, 0x3fee9f75e8ec5f74ULL, 0x3feea11473eb0187ULL, 0x3feea589994cce13ULL,
    0x3feeace5422aa0dbULL, 0x3feeb737b0cdc5e5ULL, 0x3feec49182a3f090ULL, 0x3feed503b23e255dULL,
    0x3feee89f995ad3adULL, 0x3feeff76f2fb5e47ULL, 0x3fef199bdd85529cULL, 0x3fef3720dcef9069ULL,
    0x3fef5818dcfba487ULL, 0x3fef7c97337b9b5fULL, 0x3fefa4afa2a490daULL, 0x3fefd0765b6e4540ULL,
};

constexpr double kInvLn2N = 0x1.71547652b82fep+0 * 32;  // 32 / ln2
constexpr double kShift = 0x1.8p+52;  // z + kShift rounds z to an integer in the low bits
// The cubic's coefficients, scaled by powers of 1/32 (exact).
constexpr double kC0 = 0x1.c6af84b912394p-5 / (32.0 * 32.0 * 32.0);
constexpr double kC1 = 0x1.ebfce50fac4f3p-3 / (32.0 * 32.0);
constexpr double kC2 = 0x1.62e42ff0c52d6p-1 / 32.0;

constexpr std::uint32_t kTop12Of88 = 0x42b;   // bits(88.0f) >> 20
constexpr std::uint32_t kTop12OfInf = 0x7f8;  // bits(inf) >> 20
constexpr float kOverflow = 0x1.62e42ep6F;    // log(0x1p128) ~= 88.72
constexpr float kUnderflow = -0x1.9fe368p6F;  // log(0x1p-150) ~= -103.97

#if defined(__AVX2__)

// exp_ref's main path on 4 lanes in double precision, op for op.
inline __m128 exp4(__m128 x) {
  const __m256d z = _mm256_mul_pd(_mm256_set1_pd(kInvLn2N), _mm256_cvtps_pd(x));
  const __m256d shifted = _mm256_add_pd(z, _mm256_set1_pd(kShift));
  const __m256i ki = _mm256_castpd_si256(shifted);
  const __m256d r = _mm256_sub_pd(z, _mm256_sub_pd(shifted, _mm256_set1_pd(kShift)));
  const __m256i entry = _mm256_i64gather_epi64(reinterpret_cast<const long long*>(kTab),
                                               _mm256_and_si256(ki, _mm256_set1_epi64x(31)), 8);
  const __m256d s = _mm256_castsi256_pd(_mm256_add_epi64(entry, _mm256_slli_epi64(ki, 47)));
  const __m256d p = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(kC0), r), _mm256_set1_pd(kC1));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d y = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(kC2), r), _mm256_set1_pd(1.0));
  y = _mm256_add_pd(_mm256_mul_pd(p, r2), y);
  return _mm256_cvtpd_ps(_mm256_mul_pd(y, s));
}

// exp_ref on 8 lanes. The main path runs on every lane (its table index is
// always in range); lanes with |x| >= 88 or NaN then blend in the
// reference's special results, in an order that needs no further masks:
// -inf takes x + x, then +0 from the underflow compare.
inline __m256 exp8(__m256 x) {
  __m256 y = _mm256_set_m128(exp4(_mm256_extractf128_ps(x, 1)), exp4(_mm256_castps256_ps128(x)));
  const __m256i ux = _mm256_castps_si256(x);
  const __m256i abstop = _mm256_and_si256(_mm256_srli_epi32(ux, 20), _mm256_set1_epi32(0x7ff));
  const __m256i special =
      _mm256_cmpgt_epi32(abstop, _mm256_set1_epi32(static_cast<std::int32_t>(kTop12Of88) - 1));
  if (_mm256_movemask_ps(_mm256_castsi256_ps(special)) != 0) {
    const __m256 nan_inf = _mm256_castsi256_ps(
        _mm256_cmpgt_epi32(abstop, _mm256_set1_epi32(static_cast<std::int32_t>(kTop12OfInf) - 1)));
    y = _mm256_blendv_ps(y, _mm256_add_ps(x, x), nan_inf);
    y = _mm256_blendv_ps(y, _mm256_set1_ps(std::numeric_limits<float>::infinity()),
                         _mm256_cmp_ps(x, _mm256_set1_ps(kOverflow), _CMP_GT_OQ));
    y = _mm256_blendv_ps(y, _mm256_setzero_ps(),
                         _mm256_cmp_ps(x, _mm256_set1_ps(kUnderflow), _CMP_LT_OQ));
  }
  return y;
}

#endif

}  // namespace

float exp_ref(float x) {
  const std::uint32_t abstop = (bits_of(x) >> 20) & 0x7ffU;
  if (abstop >= kTop12Of88) {  // |x| >= 88 or x is NaN
    if (bits_of(x) == bits_of(-std::numeric_limits<float>::infinity())) {
      return 0.0F;
    }
    if (abstop >= kTop12OfInf) {
      return x + x;  // inf or NaN
    }
    if (x > kOverflow) {
      return std::numeric_limits<float>::infinity();
    }
    if (x < kUnderflow) {
      return 0.0F;
    }
  }
  // x * 32/ln2 = k + r with r in [-1/2, 1/2]: adding and subtracting kShift
  // rounds z to the nearest integer (ties to even), which the low bits of the
  // shifted double's pattern then hold as ki.
  const double z = kInvLn2N * static_cast<double>(x);
  double kd = z + kShift;
  const std::uint64_t ki = bits_of(kd);
  kd -= kShift;
  const double r = z - kd;
  // exp(x) = 2^(k/32) * 2^(r/32) ~= s * (C0 r^3 + C1 r^2 + C2 r + 1).
  const double s = double_of(kTab[ki % 32] + (ki << 47));
  const double p = kC0 * r + kC1;
  const double r2 = r * r;
  double y = kC2 * r + 1.0;
  y = p * r2 + y;
  y = y * s;
  return static_cast<float>(y);
}

void exp_array(const float* x, std::int64_t n, float* y) {
  std::int64_t i = 0;
#if defined(__AVX2__)
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, exp8(_mm256_loadu_ps(x + i)));
  }
  // gcc 12 can return through the scalar tail with the ymm upper halves
  // still dirty, which makes every legacy-SSE instruction in a caller built
  // without -mavx2 pay a transition penalty; clear them explicitly.
  _mm256_zeroupper();
#endif
  for (; i < n; ++i) {
    y[i] = exp_ref(x[i]);
  }
}

}  // namespace snappix::detail

#include "tensor/gelu.h"

#include <cmath>
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

inline float float_of(std::uint32_t u) {
  float x = 0.0F;
  std::memcpy(&x, &u, sizeof x);
  return x;
}

// fdlibm's constants, with the bit patterns the decimals round to.
constexpr float kOne = 1.0F;
constexpr float kTiny = 1.0e-30F;
constexpr float kOThreshold = 8.8721679688e+01F;  // 0x42b17180
constexpr float kLn2Hi = 6.9313812256e-01F;       // 0x3f317180
constexpr float kLn2Lo = 9.0580006145e-06F;       // 0x3717f7d1
constexpr float kInvLn2 = 1.4426950216e+00F;      // 0x3fb8aa3b
// Scaled coefficients of expm1's rational approximation.
constexpr float kQ1 = -3.3333335072e-02F;  // 0xbd088889
constexpr float kQ2 = 1.5873016091e-03F;   // 0x3ad00d01
constexpr float kQ3 = -7.9365076090e-05F;  // 0xb8a670cd
constexpr float kQ4 = 4.0082177293e-06F;   // 0x36867e54
constexpr float kQ5 = -2.0109921195e-07F;  // 0xb457edbb

constexpr float kGeluCubic = 0.044715F;

// sqrt(2/pi) exactly as the tape always computed it (a correctly rounded
// float sqrt of the float quotient).
inline float gelu_c() {
  constexpr float kPi = 3.14159265358979323846F;
  return std::sqrt(2.0F / kPi);
}

#if defined(__AVX2__)

inline __m256 select(__m256 mask, __m256 if_true, __m256 if_false) {
  return _mm256_blendv_ps(if_false, if_true, mask);
}

inline __m256 mask_of(__m256i m) { return _mm256_castsi256_ps(m); }

inline __m256i splat(std::int32_t v) { return _mm256_set1_epi32(v); }

// expm1_ref on 8 lanes, for the arguments tanh passes: 2|x| in [2, 44) and
// -2|x| in (-2, -2^-54]. There fdlibm's first filter (NaN, inf, overflow,
// x < -27 ln2) never fires and k = +1 (0.5 ln2 < x < 1.5 ln2) never occurs,
// so those two branches are left out; every other branch runs on all lanes
// and each lane's own result is blended in.
inline __m256 expm1_tanh_args(__m256 x) {
  const __m256i sx = _mm256_castps_si256(x);
  const __m256i hx = _mm256_and_si256(sx, splat(0x7fffffff));
  const __m256i sign = _mm256_and_si256(sx, splat(static_cast<std::int32_t>(0x80000000U)));

  // Argument reduction. |x| in (0.5 ln2, 1.5 ln2) takes k = +-1 (the sign
  // of x; only -1 occurs here), larger |x| rounds x / ln2 half away from
  // zero, smaller |x| takes k = 0. hi = x - k*ln2_hi and lo = k*ln2_lo then
  // reproduce fdlibm's k = -1 special case exactly (x - (-ln2_hi) is
  // x + ln2_hi), and k = 0 leaves x unchanged (x - 0 is x).
  const __m256i reduce = _mm256_cmpgt_epi32(hx, splat(0x3eb17218));  // |x| > 0.5 ln2
  const __m256i near = _mm256_cmpgt_epi32(splat(0x3f851592), hx);    // |x| < 1.5 ln2
  const __m256 half = _mm256_or_ps(_mm256_set1_ps(0.5F), _mm256_castsi256_ps(sign));
  const __m256i k_far = _mm256_cvttps_epi32(
      _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(kInvLn2), x), half));
  const __m256i k_near = _mm256_or_si256(_mm256_srai_epi32(sx, 31), splat(1));  // +-1
  const __m256i k =
      _mm256_and_si256(reduce, _mm256_blendv_epi8(k_far, k_near, near));
  const __m256 t = _mm256_cvtepi32_ps(k);
  const __m256 hi = _mm256_sub_ps(x, _mm256_mul_ps(t, _mm256_set1_ps(kLn2Hi)));
  const __m256 lo = _mm256_mul_ps(t, _mm256_set1_ps(kLn2Lo));
  const __m256 xr = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);

  // x is now in the primary range.
  const __m256 one = _mm256_set1_ps(kOne);
  const __m256 hfx = _mm256_mul_ps(_mm256_set1_ps(0.5F), xr);
  const __m256 hxs = _mm256_mul_ps(xr, hfx);
  __m256 poly = _mm256_add_ps(_mm256_set1_ps(kQ4), _mm256_mul_ps(hxs, _mm256_set1_ps(kQ5)));
  poly = _mm256_add_ps(_mm256_set1_ps(kQ3), _mm256_mul_ps(hxs, poly));
  poly = _mm256_add_ps(_mm256_set1_ps(kQ2), _mm256_mul_ps(hxs, poly));
  poly = _mm256_add_ps(_mm256_set1_ps(kQ1), _mm256_mul_ps(hxs, poly));
  const __m256 r1 = _mm256_add_ps(one, _mm256_mul_ps(hxs, poly));
  const __m256 t3 = _mm256_sub_ps(_mm256_set1_ps(3.0F), _mm256_mul_ps(r1, hfx));
  const __m256 e0 = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, t3),
                         _mm256_sub_ps(_mm256_set1_ps(6.0F), _mm256_mul_ps(xr, t3))));
  const __m256 res_k0 = _mm256_sub_ps(xr, _mm256_sub_ps(_mm256_mul_ps(xr, e0), hxs));

  const __m256 e = _mm256_sub_ps(
      _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e0, c)), c), hxs);
  const __m256 res_km1 = _mm256_sub_ps(
      _mm256_mul_ps(_mm256_set1_ps(0.5F), _mm256_sub_ps(xr, e)), _mm256_set1_ps(0.5F));

  // k <= -2 || k > 56: 1 - (e - x), exponent += k, then - 1.
  // 2 <= k < 23:       (1 - 2^-k) - (e - x), exponent += k.
  // 23 <= k <= 56:     (x - (e + 2^-k)) + 1, exponent += k.
  const __m256 e_minus_x = _mm256_sub_ps(e, xr);
  const __m256 y_wide = _mm256_sub_ps(one, e_minus_x);
  const __m256 t_low = _mm256_castsi256_ps(
      _mm256_sub_epi32(splat(0x3f800000), _mm256_srlv_epi32(splat(0x1000000), k)));
  const __m256 y_low = _mm256_sub_ps(t_low, e_minus_x);
  const __m256 t_mid =
      _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_sub_epi32(splat(0x7f), k), 23));
  const __m256 y_mid = _mm256_add_ps(_mm256_sub_ps(xr, _mm256_add_ps(e, t_mid)), one);
  const __m256 wide = mask_of(_mm256_or_si256(_mm256_cmpgt_epi32(splat(-1), k),
                                              _mm256_cmpgt_epi32(k, splat(56))));
  const __m256 low = mask_of(_mm256_cmpgt_epi32(splat(23), k));
  const __m256 y = select(wide, y_wide, select(low, y_low, y_mid));
  const __m256 scaled = _mm256_castsi256_ps(
      _mm256_add_epi32(_mm256_castps_si256(y), _mm256_slli_epi32(k, 23)));
  __m256 res = select(wide, _mm256_sub_ps(scaled, one), scaled);

  res = select(mask_of(_mm256_cmpeq_epi32(k, splat(-1))), res_km1, res);
  res = select(mask_of(_mm256_cmpeq_epi32(k, _mm256_setzero_si256())), res_k0, res);
  // |x| < 2^-25: expm1(x) = x.
  return select(mask_of(_mm256_cmpgt_epi32(splat(0x33000000), hx)), x, res);
}

// tanh_ref on 8 lanes.
inline __m256 tanh8(__m256 x) {
  const __m256i jx = _mm256_castps_si256(x);
  const __m256i ix = _mm256_and_si256(jx, splat(0x7fffffff));
  const __m256 sign = _mm256_castsi256_ps(
      _mm256_and_si256(jx, splat(static_cast<std::int32_t>(0x80000000U))));
  const __m256 ax = _mm256_castsi256_ps(ix);
  const __m256 one = _mm256_set1_ps(kOne);
  const __m256 two = _mm256_set1_ps(2.0F);
  const __m256 signed_one = _mm256_or_ps(one, sign);

  // 2^-55 <= |x| < 22: z = 1 - 2/(expm1(2|x|) + 2) for |x| >= 1, else
  // z = -t/(t + 2) with t = expm1(-2|x|); the sign of x goes back on last.
  // inf or NaN: 1/x +- 1. The three quotients share one division: each lane
  // picks its own numerator and denominator first.
  const __m256 big = mask_of(_mm256_cmpgt_epi32(ix, splat(0x3f7fffff)));      // |x| >= 1
  const __m256 nan_inf = mask_of(_mm256_cmpgt_epi32(ix, splat(0x7f7fffff)));  // inf or NaN
  const __m256 t = expm1_tanh_args(
      _mm256_mul_ps(select(big, two, _mm256_set1_ps(-2.0F)), ax));
  const __m256 num = select(nan_inf, one,
                            select(big, two, _mm256_xor_ps(t, _mm256_set1_ps(-0.0F))));
  const __m256 q = _mm256_div_ps(num, select(nan_inf, x, _mm256_add_ps(t, two)));
  __m256 res = _mm256_xor_ps(select(big, _mm256_sub_ps(one, q), q), sign);
  // |x| < 2^-55: x * (1 + x). fdlibm returns x itself for +-0, which this
  // expression reproduces bit for bit, so the two branches share one blend.
  res = select(mask_of(_mm256_cmpgt_epi32(splat(0x24000000), ix)),
               _mm256_mul_ps(x, _mm256_add_ps(one, x)), res);
  // |x| >= 22: +-(1 - tiny) == +-1.
  res = select(mask_of(_mm256_cmpgt_epi32(ix, splat(0x41afffff))), signed_one, res);
  return select(nan_inf, _mm256_add_ps(q, signed_one), res);
}

inline __m256 gelu8(__m256 x, __m256 c) {
  const __m256 cubic = _mm256_mul_ps(
      _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(kGeluCubic), x), x), x);
  const __m256 t = tanh8(_mm256_mul_ps(c, _mm256_add_ps(x, cubic)));
  return _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.5F), x),
                       _mm256_add_ps(_mm256_set1_ps(1.0F), t));
}

#endif

}  // namespace

float expm1_ref(float x) {
  const std::uint32_t sx = bits_of(x);
  const bool negative = (sx & 0x80000000U) != 0;
  const std::uint32_t hx = sx & 0x7fffffffU;

  // Filter out huge and non-finite arguments.
  if (hx >= 0x4195b844U) {    // |x| >= 27 ln2
    if (hx >= 0x42b17218U) {  // |x| >= 88.721...
      if (hx > 0x7f800000U) {
        return x + x;  // NaN
      }
      if (hx == 0x7f800000U) {
        return negative ? -1.0F : x;  // expm1(+-inf) = {inf, -1}
      }
      if (x > kOThreshold) {
        return std::numeric_limits<float>::infinity();  // overflow (huge * huge)
      }
    }
    if (negative) {
      return kTiny - kOne;  // x < -27 ln2: -1
    }
  }

  // Argument reduction.
  float c = 0.0F;
  std::int32_t k = 0;
  if (hx > 0x3eb17218U) {    // |x| > 0.5 ln2
    float hi = 0.0F;
    float lo = 0.0F;
    if (hx < 0x3f851592U) {  // and |x| < 1.5 ln2
      if (!negative) {
        hi = x - kLn2Hi;
        lo = kLn2Lo;
        k = 1;
      } else {
        hi = x + kLn2Hi;
        lo = -kLn2Lo;
        k = -1;
      }
    } else {
      k = static_cast<std::int32_t>(kInvLn2 * x + (negative ? -0.5F : 0.5F));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // t * ln2_hi is exact here
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000U) {  // |x| < 2^-25
    // fdlibm computes x - ((huge + x) - (huge + x)) only to raise inexact.
    return x;
  }

  // x is now in the primary range.
  const float hfx = 0.5F * x;
  const float hxs = x * hfx;
  const float r1 = kOne + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  float t = 3.0F - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0F - x * t));
  if (k == 0) {
    return x - (x * e - hxs);  // c is 0
  }
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) {
    return 0.5F * (x - e) - 0.5F;
  }
  if (k == 1) {
    if (x < -0.25F) {
      return -2.0F * (e - (x + 0.5F));
    }
    return kOne + 2.0F * (x - e);
  }
  // Adding k << 23 to a float's bits adds k to its exponent (unsigned
  // arithmetic: the wraparound for negative k is the intended bit pattern).
  const std::uint32_t k_exponent = static_cast<std::uint32_t>(k) << 23;
  if (k <= -2 || k > 56) {  // suffices to return exp(x) - 1
    const float y = float_of(bits_of(kOne - (e - x)) + k_exponent);
    return y - kOne;
  }
  float y = 0.0F;
  if (k < 23) {
    t = float_of(0x3f800000U - (0x1000000U >> k));  // 1 - 2^-k
    y = t - (e - x);
  } else {
    t = float_of(static_cast<std::uint32_t>(0x7f - k) << 23);  // 2^-k
    y = x - (e + t);
    y += kOne;
  }
  return float_of(bits_of(y) + k_exponent);
}

float tanh_ref(float x) {
  const std::uint32_t jx = bits_of(x);
  const bool negative = (jx & 0x80000000U) != 0;
  const std::uint32_t ix = jx & 0x7fffffffU;

  if (ix >= 0x7f800000U) {  // inf or NaN: tanh(+-inf) = +-1, tanh(NaN) = NaN
    return negative ? kOne / x - kOne : kOne / x + kOne;
  }
  float z = 0.0F;
  if (ix < 0x41b00000U) {  // |x| < 22
    if (ix == 0) {
      return x;  // +-0
    }
    if (ix < 0x24000000U) {  // |x| < 2^-55: tanh(small) = small
      return x * (kOne + x);
    }
    if (ix >= 0x3f800000U) {  // |x| >= 1
      const float t = expm1_ref(2.0F * std::fabs(x));
      z = kOne - 2.0F / (t + 2.0F);
    } else {
      const float t = expm1_ref(-2.0F * std::fabs(x));
      z = -t / (t + 2.0F);
    }
  } else {  // |x| >= 22: +-1
    z = kOne - kTiny;
  }
  return negative ? -z : z;
}

float gelu_ref(float x) {
  const float inner = gelu_c() * (x + kGeluCubic * x * x * x);
  return 0.5F * x * (1.0F + tanh_ref(inner));
}

void tanh_array(const float* x, std::int64_t n, float* y) {
  std::int64_t i = 0;
#if defined(__AVX2__)
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, tanh8(_mm256_loadu_ps(x + i)));
  }
  // gcc 12 can return through the scalar tail with the ymm upper halves
  // still dirty, which makes every legacy-SSE instruction in a caller built
  // without -mavx2 pay a transition penalty; clear them explicitly.
  _mm256_zeroupper();
#endif
  for (; i < n; ++i) {
    y[i] = tanh_ref(x[i]);
  }
}

void gelu_array(const float* x, std::int64_t n, float* y) {
  std::int64_t i = 0;
#if defined(__AVX2__)
  const __m256 c = _mm256_set1_ps(gelu_c());
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, gelu8(_mm256_loadu_ps(x + i), c));
  }
  _mm256_zeroupper();  // see tanh_array
#endif
  for (; i < n; ++i) {
    y[i] = gelu_ref(x[i]);
  }
}

}  // namespace snappix::detail

#include "tensor/gemm_s8.h"

#include <algorithm>
#include <cmath>

#include "util/common.h"
#include "util/parallel.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace snappix::detail {

namespace {

#if defined(__AVX2__)

inline std::int32_t hsum_epi32(__m256i v) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

// The four horizontal sums [sum(a), sum(b), sum(c), sum(d)] in one vector:
// two rounds of hadd pair the lanes up across all four accumulators, then
// the 128-bit halves add. Integer adds are exact, so the grouping cannot
// change a result.
inline __m128i hsum4_epi32(__m256i a, __m256i b, __m256i c, __m256i d) {
  const __m256i s = _mm256_hadd_epi32(_mm256_hadd_epi32(a, b), _mm256_hadd_epi32(c, d));
  return _mm_add_epi32(_mm256_castsi256_si128(s), _mm256_extracti128_si256(s, 1));
}

// Sign-extend 16 int8 lanes to int16 and multiply-accumulate pairs into
// int32 (vpmaddwd). Every intermediate fits: |a*b| <= 127^2 and madd's pair
// sum is formed at 32-bit width, so the arithmetic is exact.
inline __m256i dot16(__m256i acc, const std::int8_t* a, const std::int8_t* b) {
  const __m256i va = _mm256_cvtepi8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(a)));
  const __m256i vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(b)));
  return _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
}

// 2-row x 4-channel register tile: the two a-row vectors are loaded once per
// 16-k chunk and shared across four b rows, so the kernel retires ~16 MACs
// per instruction pair instead of re-streaming a for every output.
void gemm_s8_rows(const std::int8_t* a, const std::int8_t* b, std::int32_t* c,
                  std::int64_t i0, std::int64_t i1, std::int64_t k, std::int64_t n) {
  std::int64_t i = i0;
  for (; i + 2 <= i1; i += 2) {
    const std::int8_t* a0 = a + i * k;
    const std::int8_t* a1 = a0 + k;
    std::int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const std::int8_t* b0 = b + j * k;
      const std::int8_t* b1 = b0 + k;
      const std::int8_t* b2 = b1 + k;
      const std::int8_t* b3 = b2 + k;
      __m256i acc00 = _mm256_setzero_si256(), acc01 = _mm256_setzero_si256();
      __m256i acc02 = _mm256_setzero_si256(), acc03 = _mm256_setzero_si256();
      __m256i acc10 = _mm256_setzero_si256(), acc11 = _mm256_setzero_si256();
      __m256i acc12 = _mm256_setzero_si256(), acc13 = _mm256_setzero_si256();
      std::int64_t l = 0;
      for (; l + 16 <= k; l += 16) {
        const __m256i va0 =
            _mm256_cvtepi8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(a0 + l)));
        const __m256i va1 =
            _mm256_cvtepi8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(a1 + l)));
        const __m256i vb0 =
            _mm256_cvtepi8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(b0 + l)));
        const __m256i vb1 =
            _mm256_cvtepi8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(b1 + l)));
        const __m256i vb2 =
            _mm256_cvtepi8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(b2 + l)));
        const __m256i vb3 =
            _mm256_cvtepi8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(b3 + l)));
        acc00 = _mm256_add_epi32(acc00, _mm256_madd_epi16(va0, vb0));
        acc01 = _mm256_add_epi32(acc01, _mm256_madd_epi16(va0, vb1));
        acc02 = _mm256_add_epi32(acc02, _mm256_madd_epi16(va0, vb2));
        acc03 = _mm256_add_epi32(acc03, _mm256_madd_epi16(va0, vb3));
        acc10 = _mm256_add_epi32(acc10, _mm256_madd_epi16(va1, vb0));
        acc11 = _mm256_add_epi32(acc11, _mm256_madd_epi16(va1, vb1));
        acc12 = _mm256_add_epi32(acc12, _mm256_madd_epi16(va1, vb2));
        acc13 = _mm256_add_epi32(acc13, _mm256_madd_epi16(va1, vb3));
      }
      std::int32_t* c0 = c + i * n + j;
      std::int32_t* c1 = c0 + n;
      _mm_storeu_si128(reinterpret_cast<__m128i*>(c0), hsum4_epi32(acc00, acc01, acc02, acc03));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(c1), hsum4_epi32(acc10, acc11, acc12, acc13));
      for (; l < k; ++l) {
        const std::int32_t av0 = a0[l], av1 = a1[l];
        c0[0] += av0 * b0[l];
        c0[1] += av0 * b1[l];
        c0[2] += av0 * b2[l];
        c0[3] += av0 * b3[l];
        c1[0] += av1 * b0[l];
        c1[1] += av1 * b1[l];
        c1[2] += av1 * b2[l];
        c1[3] += av1 * b3[l];
      }
    }
    for (; j < n; ++j) {  // channel tail
      const std::int8_t* brow = b + j * k;
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      std::int64_t l = 0;
      for (; l + 16 <= k; l += 16) {
        acc0 = dot16(acc0, a0 + l, brow + l);
        acc1 = dot16(acc1, a1 + l, brow + l);
      }
      std::int32_t s0 = hsum_epi32(acc0), s1 = hsum_epi32(acc1);
      for (; l < k; ++l) {
        s0 += static_cast<std::int32_t>(a0[l]) * brow[l];
        s1 += static_cast<std::int32_t>(a1[l]) * brow[l];
      }
      c[i * n + j] = s0;
      c[(i + 1) * n + j] = s1;
    }
  }
  for (; i < i1; ++i) {  // row tail
    const std::int8_t* arow = a + i * k;
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int8_t* brow = b + j * k;
      __m256i acc = _mm256_setzero_si256();
      std::int64_t l = 0;
      for (; l + 16 <= k; l += 16) {
        acc = dot16(acc, arow + l, brow + l);
      }
      std::int32_t s = hsum_epi32(acc);
      for (; l < k; ++l) {
        s += static_cast<std::int32_t>(arow[l]) * brow[l];
      }
      c[i * n + j] = s;
    }
  }
}

#else  // scalar fallback

void gemm_s8_rows(const std::int8_t* a, const std::int8_t* b, std::int32_t* c,
                  std::int64_t i0, std::int64_t i1, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = i0; i < i1; ++i) {
    const std::int8_t* arow = a + i * k;
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int8_t* brow = b + j * k;
      std::int32_t acc = 0;
      for (std::int64_t l = 0; l < k; ++l) {
        acc += static_cast<std::int32_t>(arow[l]) * static_cast<std::int32_t>(brow[l]);
      }
      c[i * n + j] = acc;
    }
  }
}

#endif

}  // namespace

void gemm_s8_nt(const std::int8_t* a, const std::int8_t* b, std::int32_t* c, std::int64_t m,
                std::int64_t k, std::int64_t n) {
  SNAPPIX_CHECK(k <= kGemmS8MaxK, "gemm_s8_nt reduction depth k = "
                                      << k << " can overflow the int32 accumulator (max "
                                      << kGemmS8MaxK << ")");
  auto rows = [&](std::int64_t i0, std::int64_t i1) { gemm_s8_rows(a, b, c, i0, i1, k, n); };
  // Same fan-out policy as the float gemm_nn: spawning threads only pays off
  // past real work, and int32 accumulation is exact, so the partition can
  // never change an output value. The threshold comparison divides instead
  // of multiplying — m * k * n itself could overflow int64 on adversarial
  // shapes, and signed overflow is UB.
  constexpr std::int64_t kParallelWork = 1 << 22;
  const std::int64_t row_work = std::max<std::int64_t>(1, k * n);
  if (m < (kParallelWork + row_work - 1) / row_work) {
    rows(0, m);
    return;
  }
  parallel_for(m, rows, /*grain=*/std::max<std::int64_t>(1, kParallelWork / row_work));
}

void gemm_s8_nt_ref(const std::int8_t* a, const std::int8_t* b, std::int32_t* c,
                    std::int64_t m, std::int64_t k, std::int64_t n) {
  SNAPPIX_CHECK(k <= kGemmS8MaxK, "gemm_s8_nt_ref reduction depth k = "
                                      << k << " can overflow the int32 accumulator (max "
                                      << kGemmS8MaxK << ")");
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::int32_t acc = 0;
      for (std::int64_t l = 0; l < k; ++l) {
        acc += static_cast<std::int32_t>(a[i * k + l]) * static_cast<std::int32_t>(b[j * k + l]);
      }
      c[i * n + j] = acc;
    }
  }
}

bool gemm_s8_simd_enabled() {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

float absmax(const float* x, std::int64_t n) {
  float amax = 0.0F;
  for (std::int64_t i = 0; i < n; ++i) {
    amax = std::max(amax, std::fabs(x[i]));
  }
  return amax;
}

float symmetric_scale(float absmax_value) {
  return absmax_value > 0.0F ? absmax_value / 127.0F : 1.0F;
}

void quantize_symmetric_ref(const float* x, std::int64_t n, float scale, std::int8_t* q) {
  const float inv = 1.0F / scale;
  for (std::int64_t i = 0; i < n; ++i) {
    const float r = std::nearbyintf(x[i] * inv);
    q[i] = static_cast<std::int8_t>(std::max(-127.0F, std::min(127.0F, r)));
  }
}

#if defined(__AVX2__)
namespace {

// Shared tail of both int8 quantizers: clamp in fp32 FIRST so vcvtps2dq can
// never overflow to INT_MIN (whose saturating pack would flip a huge
// positive input to -128); clamping before or after nearest-even rounding is
// equivalent on [-127, 127], so results stay bit-identical to the scalar
// references. Packs four 8-float vectors into 32 int8s, restoring byte
// order after the two in-lane packs (epi32 -> epi16 -> epi8).
inline __m256i clamp_round_pack_epi8(const __m256 (&scaled)[4]) {
  const __m256 lo = _mm256_set1_ps(-127.0F);
  const __m256 hi = _mm256_set1_ps(127.0F);
  const __m256i unshuffle = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  __m256i v[4];
  for (int c = 0; c < 4; ++c) {
    v[c] = _mm256_cvtps_epi32(_mm256_max_ps(lo, _mm256_min_ps(hi, scaled[c])));
  }
  const __m256i p8 = _mm256_packs_epi16(_mm256_packs_epi32(v[0], v[1]),
                                        _mm256_packs_epi32(v[2], v[3]));
  return _mm256_permutevar8x32_epi32(p8, unshuffle);
}

}  // namespace
#endif

void quantize_symmetric(const float* x, std::int64_t n, float scale, std::int8_t* q) {
#if defined(__AVX2__)
  const __m256 inv = _mm256_set1_ps(1.0F / scale);
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256 scaled[4];
    for (int c = 0; c < 4; ++c) {
      scaled[c] = _mm256_mul_ps(_mm256_loadu_ps(x + i + c * 8), inv);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + i), clamp_round_pack_epi8(scaled));
  }
  if (i < n) {
    quantize_symmetric_ref(x + i, n - i, scale, q + i);
  }
#else
  quantize_symmetric_ref(x, n, scale, q);
#endif
}

void requantize_rows_ref(const std::int32_t* acc, const float* deq, const float* bias,
                         float inv_scale, std::int8_t* q, std::int64_t rows,
                         std::int64_t n) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int32_t* arow = acc + r * n;
    std::int8_t* qrow = q + r * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float v = (static_cast<float>(arow[j]) * deq[j] + bias[j]) * inv_scale;
      const float rounded = std::nearbyintf(v);
      qrow[j] = static_cast<std::int8_t>(std::max(-127.0F, std::min(127.0F, rounded)));
    }
  }
}

void requantize_rows(const std::int32_t* acc, const float* deq, const float* bias,
                     float inv_scale, std::int8_t* q, std::int64_t rows, std::int64_t n) {
#if defined(__AVX2__)
  const __m256 vs = _mm256_set1_ps(inv_scale);
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int32_t* arow = acc + r * n;
    std::int8_t* qrow = q + r * n;
    std::int64_t j = 0;
    for (; j + 32 <= n; j += 32) {
      __m256 scaled[4];
      for (int c = 0; c < 4; ++c) {
        const std::int64_t o = j + c * 8;
        const __m256 f = _mm256_cvtepi32_ps(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arow + o)));
        scaled[c] = _mm256_mul_ps(
            _mm256_add_ps(_mm256_mul_ps(f, _mm256_loadu_ps(deq + o)),
                          _mm256_loadu_ps(bias + o)),
            vs);
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(qrow + j),
                          clamp_round_pack_epi8(scaled));
    }
    if (j < n) {
      requantize_rows_ref(arow + j, deq + j, bias + j, inv_scale, qrow + j, 1, n - j);
    }
  }
#else
  requantize_rows_ref(acc, deq, bias, inv_scale, q, rows, n);
#endif
}

void quantize_weights_per_channel(const float* w, std::int64_t k, std::int64_t n,
                                  std::int8_t* wq, float* scales) {
  for (std::int64_t j = 0; j < n; ++j) {
    float amax = 0.0F;
    for (std::int64_t l = 0; l < k; ++l) {
      amax = std::max(amax, std::fabs(w[l * n + j]));
    }
    const float scale = symmetric_scale(amax);
    const float inv = 1.0F / scale;
    scales[j] = scale;
    for (std::int64_t l = 0; l < k; ++l) {
      const float r = std::nearbyintf(w[l * n + j] * inv);
      wq[j * k + l] = static_cast<std::int8_t>(std::max(-127.0F, std::min(127.0F, r)));
    }
  }
}

}  // namespace snappix::detail

#include "runtime/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>

#include "obs/trace.h"
#include "tensor/exp.h"
#include "tensor/gelu.h"
#include "tensor/gemm.h"
#include "tensor/gemm_s8.h"
#include "util/common.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace snappix::runtime {

namespace {

constexpr float kLayerNormEps = 1e-5F;  // nn::LayerNorm's default

// The elementwise helpers below run one IEEE operation per element, which is
// exact at any vector width: the 8-lane forms give the scalar loops' (and
// the tape ops') bits. Explicit intrinsics throughout this file: the library
// builds at -O2, where gcc leaves runtime-width loops scalar.

// out[i] = out[i] + in[i]: the bias, positional, residual and pooling adds
// of both tiers.
inline void add_into(float* out, const float* in, std::int64_t count) {
  std::int64_t i = 0;
#if defined(__AVX2__)
  for (; i + 8 <= count; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(out + i), _mm256_loadu_ps(in + i)));
  }
#endif
  for (; i < count; ++i) {
    out[i] = out[i] + in[i];
  }
}

// x[i] = x[i] * s.
inline void scale_into(float* x, std::int64_t count, float s) {
  std::int64_t i = 0;
#if defined(__AVX2__)
  const __m256 vs = _mm256_set1_ps(s);
  for (; i + 8 <= count; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), vs));
  }
#endif
  for (; i < count; ++i) {
    x[i] = x[i] * s;
  }
}

// out(rows, n) = in(rows, k) @ w(k, n) + bias(n), matching Linear::forward:
// matmul into zeroed accumulators, then a separate broadcast bias add.
void linear_rows(const float* in, const float* w, const float* bias, float* out,
                 std::int64_t rows, std::int64_t k, std::int64_t n) {
  std::memset(out, 0, static_cast<std::size_t>(rows * n) * sizeof(float));
  detail::gemm_nn(in, w, out, rows, k, n);
  for (std::int64_t r = 0; r < rows; ++r) {
    add_into(out + r * n, bias, n);
  }
}

// --- 8 rows in 8 lanes ------------------------------------------------------
//
// A per-row reduction (a LayerNorm mean, a softmax max or denominator) is a
// serial chain along the row whose order the bits depend on, so it cannot be
// split across lanes. Transposing 8 rows into a (width, 8) tile instead
// lets lane r run row r's own chain, op for op, 8 rows per instruction.

#if defined(__AVX2__)
// dst[i * dst_stride + j] = src[j * src_stride + i] for an 8 x 8 block: pure
// data movement (unpack, shuffle, 128-bit lane swap).
inline void transpose8x8(const float* src, std::int64_t src_stride, float* dst,
                         std::int64_t dst_stride) {
  __m256 r[8];
  for (int i = 0; i < 8; ++i) {
    r[i] = _mm256_loadu_ps(src + i * src_stride);
  }
  __m256 t[8];
  for (int i = 0; i < 8; i += 2) {
    t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
    t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
  }
  __m256 u[8];
  for (int i = 0; i < 8; i += 4) {
    u[i] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(1, 0, 1, 0));
    u[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(3, 2, 3, 2));
    u[i + 2] = _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(1, 0, 1, 0));
    u[i + 3] = _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(3, 2, 3, 2));
  }
  for (int i = 0; i < 4; ++i) {
    _mm256_storeu_ps(dst + i * dst_stride, _mm256_permute2f128_ps(u[i], u[i + 4], 0x20));
    _mm256_storeu_ps(dst + (i + 4) * dst_stride, _mm256_permute2f128_ps(u[i], u[i + 4], 0x31));
  }
}

// tile[c * 8 + r] = rows[r * stride + c] for c < width; lanes >= `lanes`
// (the absent rows of a last partial group) read +0.
void rows_to_lanes(const float* rows, std::int64_t stride, std::int64_t lanes, std::int64_t width,
                   float* tile) {
  std::int64_t c = 0;
  if (lanes == 8) {
    for (; c + 8 <= width; c += 8) {
      transpose8x8(rows + c, stride, tile + c * 8, 8);
    }
  }
  for (; c < width; ++c) {
    for (std::int64_t r = 0; r < 8; ++r) {
      tile[c * 8 + r] = r < lanes ? rows[r * stride + c] : 0.0F;
    }
  }
}

// The inverse for the first `lanes` rows: rows[r * stride + c] = tile[c * 8 + r].
void lanes_to_rows(const float* tile, std::int64_t lanes, std::int64_t width, float* rows,
                   std::int64_t stride) {
  std::int64_t c = 0;
  if (lanes == 8) {
    for (; c + 8 <= width; c += 8) {
      transpose8x8(tile + c * 8, 8, rows + c, stride);
    }
  }
  for (; c < width; ++c) {
    for (std::int64_t r = 0; r < lanes; ++r) {
      rows[r * stride + c] = tile[c * 8 + r];
    }
  }
}
#endif

// --- softmax -----------------------------------------------------------------

// Fast exp for the int8 tier's softmax: 2^(x log2 e) assembled from the
// exponent bits and a cubic on the fraction (~1e-3 relative error, which the
// softmax normalization largely cancels). Pure float arithmetic, so it is
// deterministic across runs and hosts, just not bit-equal to exp_ref. The
// fp32 engine MUST run the tape's exp (tensor/exp.h); only the already-
// approximate int8 tier may trade exp accuracy for speed.
inline float fast_exp_negative(float x) {
  x = std::max(x, -80.0F);  // softmax inputs are <= 0 after max subtraction
  const float z = x * 1.44269504F;
  const float zf = std::floor(z);
  const float f = z - zf;
  const float p =
      1.0F + f * (0.69314718F + f * (0.24022651F + f * (0.05204867F + f * 0.01353997F)));
  const std::uint32_t bits = static_cast<std::uint32_t>(static_cast<int>(zf) + 127) << 23;
  float scale = 0.0F;
  std::memcpy(&scale, &bits, sizeof scale);
  return scale * p;
}

// The tape's softmax on one row: max-subtracted exp, a sequential sum, a
// divide; exp is exp_ref for the fp32 tier, fast_exp_negative for int8
// (kFastExp).
template <bool kFastExp>
void softmax_row(float* row, std::int64_t n) {
  float mx = -std::numeric_limits<float>::infinity();
  for (std::int64_t i = 0; i < n; ++i) {
    mx = std::max(mx, row[i]);
  }
  float denom = 0.0F;
  for (std::int64_t i = 0; i < n; ++i) {
    row[i] = kFastExp ? fast_exp_negative(row[i] - mx) : detail::exp_ref(row[i] - mx);
    denom += row[i];
  }
  for (std::int64_t i = 0; i < n; ++i) {
    row[i] /= denom;
  }
}

#if defined(__AVX2__)
// fast_exp_negative on 8 lanes, the same operation sequence: bit-identical.
inline __m256 fast_exp_negative8(__m256 x) {
  x = _mm256_max_ps(_mm256_set1_ps(-80.0F), x);  // std::max(x, -80) lane order
  const __m256 z = _mm256_mul_ps(x, _mm256_set1_ps(1.44269504F));
  const __m256 zf = _mm256_floor_ps(z);
  const __m256 f = _mm256_sub_ps(z, zf);
  __m256 p = _mm256_add_ps(_mm256_set1_ps(0.05204867F),
                           _mm256_mul_ps(f, _mm256_set1_ps(0.01353997F)));
  p = _mm256_add_ps(_mm256_set1_ps(0.24022651F), _mm256_mul_ps(f, p));
  p = _mm256_add_ps(_mm256_set1_ps(0.69314718F), _mm256_mul_ps(f, p));
  p = _mm256_add_ps(_mm256_set1_ps(1.0F), _mm256_mul_ps(f, p));
  const __m256i bits = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvttps_epi32(zf), _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(_mm256_castsi256_ps(bits), p);
}
#endif

// softmax_row<kFastExp> over `count` rows of n (stride n). The AVX2 path
// runs 8 rows in the 8 lanes of a (n, 8) `tile`: each lane runs its row's
// max chain (_mm256_max_ps(x, mx) picks exactly what std::max(mx, x) picks,
// ±0 and NaN included), its exps (for fp32 one exp_array call over the
// max-subtracted tile: exp_ref's bits, 8 lanes wide), its sequential sum and
// its divides, in the scalar order.
template <bool kFastExp>
void softmax_rows(float* rows, std::int64_t count, std::int64_t n, float* tile) {
#if defined(__AVX2__)
  for (std::int64_t r0 = 0; r0 < count; r0 += 8) {
    float* block = rows + r0 * n;
    const std::int64_t lanes = std::min<std::int64_t>(8, count - r0);
    rows_to_lanes(block, n, lanes, n, tile);
    __m256 mx = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
    for (std::int64_t j = 0; j < n; ++j) {
      mx = _mm256_max_ps(_mm256_loadu_ps(tile + j * 8), mx);
    }
    if constexpr (!kFastExp) {
      for (std::int64_t j = 0; j < n; ++j) {
        _mm256_storeu_ps(tile + j * 8, _mm256_sub_ps(_mm256_loadu_ps(tile + j * 8), mx));
      }
      detail::exp_array(tile, n * 8, tile);
    }
    __m256 denom = _mm256_setzero_ps();
    for (std::int64_t j = 0; j < n; ++j) {
      float* t = tile + j * 8;
      if constexpr (kFastExp) {
        _mm256_storeu_ps(t, fast_exp_negative8(_mm256_sub_ps(_mm256_loadu_ps(t), mx)));
      }
      denom = _mm256_add_ps(denom, _mm256_loadu_ps(t));
    }
    for (std::int64_t j = 0; j < n; ++j) {
      _mm256_storeu_ps(tile + j * 8, _mm256_div_ps(_mm256_loadu_ps(tile + j * 8), denom));
    }
    lanes_to_rows(tile, lanes, n, block, n);
  }
#else
  (void)tile;
  for (std::int64_t r = 0; r < count; ++r) {
    softmax_row<kFastExp>(rows + r * n, n);
  }
#endif
}

// --- LayerNorm ---------------------------------------------------------------

// y = ((x - mu) / denom) * gamma + beta along one row: the tape LayerNorm's
// normalize pass, elementwise (sqrt and the divide are exact IEEE
// operations, so this pass runs along d at any width).
inline void normalize_row(const float* x, float* y, std::int64_t d, float mu, float denom,
                          const float* gamma, const float* beta) {
  std::int64_t j = 0;
#if defined(__AVX2__)
  const __m256 vmu = _mm256_set1_ps(mu);
  const __m256 vdenom = _mm256_set1_ps(denom);
  for (; j + 8 <= d; j += 8) {
    const __m256 normalized = _mm256_div_ps(_mm256_sub_ps(_mm256_loadu_ps(x + j), vmu), vdenom);
    _mm256_storeu_ps(y + j, _mm256_add_ps(_mm256_mul_ps(normalized, _mm256_loadu_ps(gamma + j)),
                                          _mm256_loadu_ps(beta + j)));
  }
#endif
  for (; j < d; ++j) {
    const float normalized = (x[j] - mu) / denom;
    y[j] = normalized * gamma[j] + beta[j];
  }
}

// LayerNorm over (rows, d), replicating the tape op's formula (mean() is sum
// times reciprocal). Each row's mean and variance are ascending chains over
// d that the fp32 engine's bit-exactness depends on; the AVX2 path runs 8
// rows in the lanes of a (d, 8) `tile`, then normalizes along d. The int8
// engine runs layer_norm_rows_fast below.
void layer_norm_rows(const float* in, float* out, std::int64_t rows, std::int64_t d,
                     const float* gamma, const float* beta, float* tile) {
  const float inv_d = 1.0F / static_cast<float>(d);
  std::int64_t r0 = 0;
#if defined(__AVX2__)
  const __m256 vinv_d = _mm256_set1_ps(inv_d);
  for (; r0 < rows; r0 += 8) {
    const float* x = in + r0 * d;
    const std::int64_t lanes = std::min<std::int64_t>(8, rows - r0);
    rows_to_lanes(x, d, lanes, d, tile);
    __m256 acc = _mm256_setzero_ps();
    for (std::int64_t j = 0; j < d; ++j) {
      acc = _mm256_add_ps(acc, _mm256_loadu_ps(tile + j * 8));
    }
    const __m256 mu = _mm256_mul_ps(acc, vinv_d);
    __m256 var_acc = _mm256_setzero_ps();
    for (std::int64_t j = 0; j < d; ++j) {
      const __m256 centered = _mm256_sub_ps(_mm256_loadu_ps(tile + j * 8), mu);
      var_acc = _mm256_add_ps(var_acc, _mm256_mul_ps(centered, centered));
    }
    const __m256 var = _mm256_mul_ps(var_acc, vinv_d);
    const __m256 denom = _mm256_sqrt_ps(_mm256_add_ps(var, _mm256_set1_ps(kLayerNormEps)));
    float mus[8] = {};
    float denoms[8] = {};
    _mm256_storeu_ps(mus, mu);
    _mm256_storeu_ps(denoms, denom);
    for (std::int64_t r = 0; r < lanes; ++r) {
      normalize_row(x + r * d, out + (r0 + r) * d, d, mus[r], denoms[r], gamma, beta);
    }
  }
#else
  (void)tile;
#endif
  for (; r0 < rows; ++r0) {  // the builds without AVX2
    const float* x = in + r0 * d;
    float acc = 0.0F;
    for (std::int64_t j = 0; j < d; ++j) {
      acc += x[j];
    }
    const float mu = acc * inv_d;
    float var_acc = 0.0F;
    for (std::int64_t j = 0; j < d; ++j) {
      const float centered = x[j] - mu;
      var_acc += centered * centered;
    }
    const float var = var_acc * inv_d;
    normalize_row(x, out + r0 * d, d, mu, std::sqrt(var + kLayerNormEps), gamma, beta);
  }
}

// --- attention ---------------------------------------------------------------

#if defined(__AVX2__)
// A kRows x (kVec8 8-lane blocks + an optional 4-lane block) output tile,
// accumulated in ONE reduction loop so its kRows * (kVec8 + kVec4) FMA chains
// overlap: out[r * out_stride + e] = sum over ascending l of
// coef[r * coef_stride + l] * rows[l * stride + e].
template <int kRows, int kVec8, bool kVec4>
inline void dot_tile(const float* coef, std::int64_t coef_stride, const float* rows,
                     std::int64_t stride, std::int64_t len, float* out,
                     std::int64_t out_stride) {
  static_assert(kVec8 >= 0 && kVec8 <= 2, "at most two 8-lane blocks");
  __m256 acc0[kRows];
  __m256 acc1[kRows];
  __m128 acc4[kRows];
#pragma GCC unroll 4
  for (int r = 0; r < kRows; ++r) {
    acc0[r] = _mm256_setzero_ps();
    acc1[r] = _mm256_setzero_ps();
    acc4[r] = _mm_setzero_ps();
  }
  for (std::int64_t l = 0; l < len; ++l) {
    const float* src = rows + l * stride;
#pragma GCC unroll 4
    for (int r = 0; r < kRows; ++r) {
      const float c = coef[r * coef_stride + l];
      if constexpr (kVec8 >= 1) {
        acc0[r] = _mm256_fmadd_ps(_mm256_set1_ps(c), _mm256_loadu_ps(src), acc0[r]);
      }
      if constexpr (kVec8 >= 2) {
        acc1[r] = _mm256_fmadd_ps(_mm256_set1_ps(c), _mm256_loadu_ps(src + 8), acc1[r]);
      }
      if constexpr (kVec4) {
        acc4[r] = _mm_fmadd_ps(_mm_set1_ps(c), _mm_loadu_ps(src + 8 * kVec8), acc4[r]);
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < kRows; ++r) {
    float* dst = out + r * out_stride;
    if constexpr (kVec8 >= 1) {
      _mm256_storeu_ps(dst, acc0[r]);
    }
    if constexpr (kVec8 >= 2) {
      _mm256_storeu_ps(dst + 8, acc1[r]);
    }
    if constexpr (kVec4) {
      _mm_storeu_ps(dst + 8 * kVec8, acc4[r]);
    }
  }
}

// dot_tile over a row group's width: 16-lane blocks, then 8+4 or 8, then 4
// lanes. Leaves `e` at the first column it did not cover.
template <int kRows>
void dot_tiles(const float* coef, std::int64_t coef_stride, const float* rows,
               std::int64_t stride, std::int64_t len, std::int64_t width, float* out,
               std::int64_t out_stride, std::int64_t& e) {
  for (; e + 16 <= width; e += 16) {
    dot_tile<kRows, 2, false>(coef, coef_stride, rows + e, stride, len, out + e, out_stride);
  }
  if (width - e >= 12) {
    dot_tile<kRows, 1, true>(coef, coef_stride, rows + e, stride, len, out + e, out_stride);
    e += 12;
  } else if (width - e >= 8) {
    dot_tile<kRows, 1, false>(coef, coef_stride, rows + e, stride, len, out + e, out_stride);
    e += 8;
  }
  if (width - e >= 4) {
    dot_tile<kRows, 0, true>(coef, coef_stride, rows + e, stride, len, out + e, out_stride);
    e += 4;
  }
}
#endif

// out[r * out_stride + e] = sum over ascending l of coef[r * coef_stride + l]
// * rows[l * stride + e] for r < count, e < width: broadcast-times-row
// products, vectorized across the OUTPUT elements in tiles of 4 (then 1)
// rows by 16, 8+4, 8 or 4 lanes. Each element stays its own +0-started
// chain of fused multiply-adds in ascending l: gemm_nn's chain, so the bits
// are the tape matmul's.
void dot_rows(const float* coef, std::int64_t coef_stride, const float* rows,
              std::int64_t stride, std::int64_t len, std::int64_t count, std::int64_t width,
              float* out, std::int64_t out_stride) {
  for (std::int64_t r0 = 0; r0 < count;) {
    const std::int64_t group = count - r0 >= 4 ? 4 : 1;
    const float* c = coef + r0 * coef_stride;
    float* o = out + r0 * out_stride;
    std::int64_t e = 0;
#if defined(__AVX2__)
    if (group == 4) {
      dot_tiles<4>(c, coef_stride, rows, stride, len, width, o, out_stride, e);
    } else {
      dot_tiles<1>(c, coef_stride, rows, stride, len, width, o, out_stride, e);
    }
#endif
    for (std::int64_t r = 0; r < group; ++r) {
      for (std::int64_t j = e; j < width; ++j) {  // scalar tail (non-AVX2: whole rows)
        float acc = 0.0F;
        for (std::int64_t l = 0; l < len; ++l) {
          acc = std::fma(c[r * coef_stride + l], rows[l * stride + j], acc);
        }
        o[r * out_stride + j] = acc;
      }
    }
    r0 += group;
  }
}

// Multi-head self-attention over the fused qkv rows (batch*N, 3D), context
// into ctx (batch*N, D); `scores` ((N, N)), `kt` ((hd, N)) and `tile`
// ((N, 8)) are scratch, reused per (b, head). Both tiers run this one loop
// nest and differ only in the softmax: exp_array (bit-exact vs the tape) for
// fp32, fast_exp_negative (kFastExp) for int8.
//
// The head's k rows are packed into a contiguous k^T tile, so the scores are
// q rows times the tile's rows and the context is attn rows times v's rows
// (dot_rows: 4 query rows x 16 tokens, or x 8+4 head lanes, per loop), and
// the softmax runs 8 query rows in lanes (softmax_rows). Every score,
// probability and context element keeps its scalar operation chain —
// exactly the tape's q @ k^T -> scale -> softmax -> @ v (scale as its own
// multiply, after the dot) — so lanes change the speed, not a bit.
template <bool kFastExp>
void attention_rows(const float* qkv, float* ctx, float* scores, float* kt, float* tile,
                    std::int64_t batch, std::int64_t n, std::int64_t d, std::int64_t heads) {
  const std::int64_t hd = d / heads;
  const float scale = 1.0F / std::sqrt(static_cast<float>(hd));
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* qkv_base = qkv + b * n * 3 * d;
    for (std::int64_t head = 0; head < heads; ++head) {
      // The head's q/k/v live strided inside the qkv rows:
      // q[t][e] = qkv[b, t, head*hd + e], k at +D, v at +2D.
      const std::int64_t q_off = head * hd;
      for (std::int64_t j = 0; j < n; ++j) {
        const float* k_row = qkv_base + j * 3 * d + d + q_off;
        for (std::int64_t l = 0; l < hd; ++l) {
          kt[l * n + j] = k_row[l];
        }
      }
      dot_rows(qkv_base + q_off, 3 * d, kt, n, hd, n, n, scores, n);
      scale_into(scores, n * n, scale);
      softmax_rows<kFastExp>(scores, n, n, tile);
      dot_rows(scores, n, qkv_base + 2 * d + q_off, 3 * d, n, n, hd, ctx + b * n * d + q_off,
               d);
    }
  }
}

// The 8 partial sums of a lane-chain reduction, folded pairwise:
// (0+4, 1+5, 2+6, 3+7), then (0+2, 1+3), then 0+1.
inline float fold_lanes(const float (&v)[8]) {
  const float s0 = v[0] + v[4], s1 = v[1] + v[5], s2 = v[2] + v[6], s3 = v[3] + v[7];
  return (s0 + s2) + (s1 + s3);
}

// Vector-friendly LayerNorm for the int8 tier: lane-chain reductions instead
// of the tape's pinned ascending sums, and a multiply by the reciprocal
// instead of a divide. Not bit-equal to layer_norm_rows. Each row's mean and
// variance sums run as 8 lane chains over the 8-wide blocks (lane i takes
// j = i mod 8), folded by fold_lanes, then the d % 8 tail in ascending
// order, and the scalar build runs the same chains and fold: the int8 tier
// is deterministic across builds (AVX2 or scalar) by construction.
void layer_norm_rows_fast(const float* in, float* out, std::int64_t rows, std::int64_t d,
                          const float* gamma, const float* beta) {
  const float inv_d = 1.0F / static_cast<float>(d);
  const std::int64_t d8 = d - d % 8;
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* x = in + r * d;
    float* y = out + r * d;
    float lanes[8] = {};
#if defined(__AVX2__)
    __m256 vsum = _mm256_setzero_ps();
    for (std::int64_t j = 0; j < d8; j += 8) {
      vsum = _mm256_add_ps(vsum, _mm256_loadu_ps(x + j));
    }
    _mm256_storeu_ps(lanes, vsum);
#else
    for (std::int64_t j = 0; j < d8; j += 8) {
      for (int i = 0; i < 8; ++i) {
        lanes[i] += x[j + i];
      }
    }
#endif
    float acc = fold_lanes(lanes);
    for (std::int64_t j = d8; j < d; ++j) {
      acc += x[j];
    }
    const float mu = acc * inv_d;
#if defined(__AVX2__)
    const __m256 vmu = _mm256_set1_ps(mu);
    __m256 vvar = _mm256_setzero_ps();
    for (std::int64_t j = 0; j < d8; j += 8) {
      const __m256 c = _mm256_sub_ps(_mm256_loadu_ps(x + j), vmu);
      vvar = _mm256_add_ps(vvar, _mm256_mul_ps(c, c));
    }
    _mm256_storeu_ps(lanes, vvar);
#else
    std::fill(lanes, lanes + 8, 0.0F);
    for (std::int64_t j = 0; j < d8; j += 8) {
      for (int i = 0; i < 8; ++i) {
        const float centered = x[j + i] - mu;
        lanes[i] += centered * centered;
      }
    }
#endif
    float var_acc = fold_lanes(lanes);
    for (std::int64_t j = d8; j < d; ++j) {
      const float centered = x[j] - mu;
      var_acc += centered * centered;
    }
    const float var = var_acc * inv_d;
    const float inv_denom = 1.0F / std::sqrt(var + kLayerNormEps);
    std::int64_t jj = 0;
#if defined(__AVX2__)
    const __m256 vinv = _mm256_set1_ps(inv_denom);
    for (; jj + 8 <= d; jj += 8) {
      const __m256 normalized =
          _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x + jj), vmu), vinv);
      _mm256_storeu_ps(y + jj, _mm256_add_ps(_mm256_mul_ps(normalized,
                                                           _mm256_loadu_ps(gamma + jj)),
                                             _mm256_loadu_ps(beta + jj)));
    }
#endif
    for (; jj < d; ++jj) {
      y[jj] = (x[jj] - mu) * inv_denom * gamma[jj] + beta[jj];
    }
  }
}

// out(rows, n) = float(acc) * deq[j] + bias[j] — the int8 tier's per-channel
// requantization back to fp32 at a layer boundary, AVX2-wide.
inline void dequant_rows_fast(const std::int32_t* acc, const float* deq, const float* bias,
                              float* out, std::int64_t rows, std::int64_t n) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int32_t* arow = acc + r * n;
    float* row = out + r * n;
    std::int64_t j = 0;
#if defined(__AVX2__)
    for (; j + 8 <= n; j += 8) {
      const __m256 v = _mm256_cvtepi32_ps(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arow + j)));
      _mm256_storeu_ps(row + j, _mm256_add_ps(_mm256_mul_ps(v, _mm256_loadu_ps(deq + j)),
                                              _mm256_loadu_ps(bias + j)));
    }
#endif
    for (; j < n; ++j) {
      row[j] = static_cast<float>(arow[j]) * deq[j] + bias[j];
    }
  }
}

// Patchify: patches[(b, gy*gw+gx), py*p+px] = coded[b, gy*p+py, gx*p+px].
void patchify_rows(const float* coded, float* patches, std::int64_t batch,
                   const models::ViTConfig& config) {
  const std::int64_t n = config.tokens();
  const int patch = config.patch;
  const std::int64_t pp = static_cast<std::int64_t>(patch) * patch;
  const std::int64_t gw = config.image_w / patch;
  const std::int64_t w = config.image_w;
  const std::int64_t h = config.image_h;
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* image = coded + b * h * w;
    for (std::int64_t t = 0; t < n; ++t) {
      const std::int64_t gy = t / gw;
      const std::int64_t gx = t % gw;
      float* dst = patches + (b * n + t) * pp;
      for (int py = 0; py < patch; ++py) {
        const float* src = image + (gy * patch + py) * w + gx * patch;
        std::memcpy(dst + static_cast<std::int64_t>(py) * patch, src,
                    static_cast<std::size_t>(patch) * sizeof(float));
      }
    }
  }
}

// Scatter decoded tiles into the video — the exact index map of
// nn::unpatchify_video: video[b, f, gy*p+py, gx*p+px] =
// rec[(b*N + gy*gw+gx), (f*p + py)*p + px]. Pure data movement.
void scatter_video(const float* rec, float* video, std::int64_t batch, int frames,
                   const models::ViTConfig& config) {
  const std::int64_t n = config.tokens();
  const int patch = config.patch;
  const std::int64_t gw = config.image_w / patch;
  const std::int64_t h = config.image_h;
  const std::int64_t w = config.image_w;
  const std::int64_t out = static_cast<std::int64_t>(frames) * patch * patch;
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t t = 0; t < n; ++t) {
      const std::int64_t gy = t / gw;
      const std::int64_t gx = t % gw;
      const float* src = rec + (b * n + t) * out;
      for (std::int64_t f = 0; f < frames; ++f) {
        for (int py = 0; py < patch; ++py) {
          float* dst = video + ((b * frames + f) * h + gy * patch + py) * w + gx * patch;
          std::memcpy(dst, src + (f * patch + py) * patch,
                      static_cast<std::size_t>(patch) * sizeof(float));
        }
      }
    }
  }
}

std::vector<float> take(const std::map<std::string, Tensor>& params, const std::string& name,
                        std::int64_t expected_numel) {
  const auto it = params.find(name);
  SNAPPIX_CHECK(it != params.end(), "engine: classifier has no parameter `" << name << "`");
  SNAPPIX_CHECK(it->second.numel() == expected_numel,
                "engine: parameter `" << name << "` has " << it->second.numel()
                                      << " values, expected " << expected_numel);
  return it->second.data();
}

std::map<std::string, Tensor> param_map(const nn::Module& module) {
  std::map<std::string, Tensor> params;
  for (const auto& [name, tensor] : module.named_parameters()) {
    params.emplace(name, tensor);
  }
  return params;
}

inline void fold_absmax(float& slot, const float* x, std::int64_t n) {
  slot = std::max(slot, detail::absmax(x, n));
}

}  // namespace

// --- VitEngine: the shell both tiers run --------------------------------------

VitEngine::VitEngine(const models::SnapPixClassifier& model,
                     const models::SnapPixReconstructor& reconstructor, int max_batch,
                     Precision precision)
    : config_(model.encoder()->config()),
      hidden_(static_cast<std::int64_t>(static_cast<float>(config_.dim) * config_.mlp_ratio)),
      max_batch_(max_batch),
      frames_(reconstructor.frames()),
      precision_(precision) {
  SNAPPIX_CHECK(max_batch > 0, "engine max_batch must be positive");
  SNAPPIX_CHECK(reconstructor.encoder().get() == model.encoder().get(),
                "engine: the reconstructor must share the classifier's encoder — one trunk "
                "snapshot cannot serve two different encoders");
  const std::int64_t d = config_.dim;
  const std::int64_t n = config_.tokens();
  const std::int64_t pp = static_cast<std::int64_t>(config_.patch) * config_.patch;

  const auto params = param_map(model);
  pos_embed_ = take(params, "encoder.pos_embed", n * d);
  norms_.resize(static_cast<std::size_t>(config_.depth));
  for (int i = 0; i < config_.depth; ++i) {
    const std::string p = "encoder.blocks." + std::to_string(i) + ".";
    BlockNorms& b = norms_[static_cast<std::size_t>(i)];
    b.norm1_gamma = take(params, p + "norm1.gamma", d);
    b.norm1_beta = take(params, p + "norm1.beta", d);
    b.norm2_gamma = take(params, p + "norm2.gamma", d);
    b.norm2_beta = take(params, p + "norm2.beta", d);
  }
  norm_gamma_ = take(params, "encoder.norm.gamma", d);
  norm_beta_ = take(params, "encoder.norm.beta", d);

  const std::int64_t rows = static_cast<std::int64_t>(max_batch) * n;
  ws_.patches.resize(static_cast<std::size_t>(rows * pp));
  ws_.x.resize(static_cast<std::size_t>(rows * d));
  ws_.norm.resize(static_cast<std::size_t>(rows * d));
  ws_.qkv.resize(static_cast<std::size_t>(rows * 3 * d));
  ws_.ctx.resize(static_cast<std::size_t>(rows * d));
  ws_.proj.resize(static_cast<std::size_t>(rows * d));
  ws_.scores.resize(static_cast<std::size_t>(n * n));
  ws_.kt.resize(static_cast<std::size_t>((d / config_.heads) * n));
  ws_.lane_tile.resize(static_cast<std::size_t>(8 * std::max(d, n)));
  ws_.pooled.resize(static_cast<std::size_t>(static_cast<std::int64_t>(max_batch) * d));
}

std::int64_t VitEngine::checked_batch(const Tensor& coded) const {
  SNAPPIX_CHECK(coded.ndim() == 3 && coded.shape()[1] == config_.image_h &&
                    coded.shape()[2] == config_.image_w,
                "engine expects (B, " << config_.image_h << ", " << config_.image_w
                                      << "), got " << coded.shape().to_string());
  return coded.shape()[0];
}

void VitEngine::pool_tokens(std::int64_t batch) const {
  const std::int64_t d = config_.dim;
  const std::int64_t n = config_.tokens();
  const float inv_n = 1.0F / static_cast<float>(n);
  std::memset(ws_.pooled.data(), 0, static_cast<std::size_t>(batch * d) * sizeof(float));
  for (std::int64_t b = 0; b < batch; ++b) {
    float* pooled = ws_.pooled.data() + b * d;
    for (std::int64_t t = 0; t < n; ++t) {
      add_into(pooled, ws_.norm.data() + (b * n + t) * d, d);
    }
    scale_into(pooled, d, inv_n);
  }
}

Tensor VitEngine::classify_logits(const Tensor& coded) const {
  const std::int64_t batch = checked_batch(coded);
  const std::int64_t classes = config_.num_classes;
  std::vector<float> logits(static_cast<std::size_t>(batch * classes));
  for_each_chunk(coded, [&](const float* rows, std::int64_t begin, std::int64_t chunk) {
    encode_chunk(rows, chunk);
    obs::ScopedSpan span("classify_head");
    pool_tokens(chunk);
    head_linear(chunk, logits.data() + begin * classes);
  });
  return Tensor::from_vector(std::move(logits), Shape{batch, classes});
}

Tensor VitEngine::reconstruct(const Tensor& coded) const {
  const std::int64_t batch = checked_batch(coded);
  const std::int64_t n = config_.tokens();
  const std::int64_t h = config_.image_h;
  const std::int64_t w = config_.image_w;
  const std::int64_t frame_elems = static_cast<std::int64_t>(frames_) * h * w;
  std::vector<float> video(static_cast<std::size_t>(batch * frame_elems));
  for_each_chunk(coded, [&](const float* rows, std::int64_t begin, std::int64_t chunk) {
    // ws_.rec — the engine's largest buffer — is sized on the first
    // reconstruct() call, so classification-only traffic never pays for it.
    const std::size_t rec_size = static_cast<std::size_t>(
        static_cast<std::int64_t>(max_batch_) * n * frames_ * config_.patch * config_.patch);
    if (ws_.rec.size() < rec_size) {
      ws_.rec.resize(rec_size);
    }
    encode_chunk(rows, chunk);
    obs::ScopedSpan span("rec_decode");
    rec_linear(chunk * n, ws_.rec.data());
    scatter_video(ws_.rec.data(), video.data() + begin * frame_elems, chunk, frames_, config_);
  });
  return Tensor::from_vector(std::move(video), Shape{batch, frames_, h, w});
}

// --- BatchedVitEngine: the fp32 trunk and heads -------------------------------

BatchedVitEngine::BatchedVitEngine(const models::SnapPixClassifier& model,
                                   const models::SnapPixReconstructor& reconstructor,
                                   int max_batch)
    : VitEngine(model, reconstructor, max_batch, Precision::kFp32) {
  const std::int64_t d = config_.dim;
  const std::int64_t pp = static_cast<std::int64_t>(config_.patch) * config_.patch;
  const std::int64_t out = static_cast<std::int64_t>(frames_) * pp;

  const auto params = param_map(model);
  embed_w = take(params, "encoder.patch_embed.proj.weight", pp * d);
  embed_b = take(params, "encoder.patch_embed.proj.bias", d);
  blocks_.resize(static_cast<std::size_t>(config_.depth));
  for (int i = 0; i < config_.depth; ++i) {
    const std::string p = "encoder.blocks." + std::to_string(i) + ".";
    auto& b = blocks_[static_cast<std::size_t>(i)];
    b.qkv_w = take(params, p + "attn.qkv.weight", d * 3 * d);
    b.qkv_b = take(params, p + "attn.qkv.bias", 3 * d);
    b.proj_w = take(params, p + "attn.proj.weight", d * d);
    b.proj_b = take(params, p + "attn.proj.bias", d);
    b.fc1_w = take(params, p + "mlp.fc1.weight", d * hidden_);
    b.fc1_b = take(params, p + "mlp.fc1.bias", hidden_);
    b.fc2_w = take(params, p + "mlp.fc2.weight", hidden_ * d);
    b.fc2_b = take(params, p + "mlp.fc2.bias", d);
  }
  head_w = take(params, "head.weight", d * config_.num_classes);
  head_b = take(params, "head.bias", config_.num_classes);
  const auto rec_params = param_map(reconstructor);
  rec_w = take(rec_params, "head.weight", d * out);
  rec_b = take(rec_params, "head.bias", out);

  hidden_rows_.resize(
      static_cast<std::size_t>(static_cast<std::int64_t>(max_batch) * config_.tokens() * hidden_));
}

void BatchedVitEngine::encode_chunk(const float* coded, std::int64_t batch) const {
  encode(coded, batch, nullptr);
}

void BatchedVitEngine::encode(const float* coded, std::int64_t batch,
                              ActivationRanges* ranges) const {
  const std::int64_t d = config_.dim;
  const std::int64_t n = config_.tokens();
  const std::int64_t pp = static_cast<std::int64_t>(config_.patch) * config_.patch;
  const std::int64_t rows = batch * n;
  const std::int64_t heads = config_.heads;

  obs::ScopedSpan encode_span("encode");

  patchify_rows(coded, ws_.patches.data(), batch, config_);
  if (ranges != nullptr) {
    fold_absmax(ranges->embed_in, ws_.patches.data(), rows * pp);
  }

  {
    // Embedding: (patches @ We + be) + pos — bias first, then the positional
    // add, matching Linear::forward followed by ViTEncoder::embed's add().
    obs::ScopedSpan span("embed");
    std::memset(ws_.x.data(), 0, static_cast<std::size_t>(rows * d) * sizeof(float));
    detail::gemm_nn(ws_.patches.data(), embed_w.data(), ws_.x.data(), rows, pp, d);
    for (std::int64_t b = 0; b < batch; ++b) {
      for (std::int64_t t = 0; t < n; ++t) {
        float* row = ws_.x.data() + (b * n + t) * d;
        add_into(row, embed_b.data(), d);
        add_into(row, pos_embed_.data() + t * d, d);
      }
    }
  }

  for (std::size_t bi = 0; bi < blocks_.size(); ++bi) {
    const BlockWeights& blk = blocks_[bi];
    const BlockNorms& ln = norms_[bi];
    ActivationRanges::BlockRanges* blk_ranges =
        ranges != nullptr ? &ranges->blocks[bi] : nullptr;
    // --- attention sublayer ---------------------------------------------
    {
      obs::ScopedSpan span("qkv");
      layer_norm_rows(ws_.x.data(), ws_.norm.data(), rows, d, ln.norm1_gamma.data(),
                      ln.norm1_beta.data(), ws_.lane_tile.data());
      if (blk_ranges != nullptr) {
        fold_absmax(blk_ranges->qkv_in, ws_.norm.data(), rows * d);
      }
      linear_rows(ws_.norm.data(), blk.qkv_w.data(), blk.qkv_b.data(), ws_.qkv.data(), rows, d,
                  3 * d);
    }
    {
      obs::ScopedSpan span("attention");
      attention_rows<false>(ws_.qkv.data(), ws_.ctx.data(), ws_.scores.data(), ws_.kt.data(),
                            ws_.lane_tile.data(), batch, n, d, heads);
    }
    if (blk_ranges != nullptr) {
      fold_absmax(blk_ranges->proj_in, ws_.ctx.data(), rows * d);
    }
    {
      obs::ScopedSpan span("proj");
      linear_rows(ws_.ctx.data(), blk.proj_w.data(), blk.proj_b.data(), ws_.proj.data(), rows,
                  d, d);
      add_into(ws_.x.data(), ws_.proj.data(), rows * d);
    }

    // --- MLP sublayer ----------------------------------------------------
    obs::ScopedSpan mlp_span("mlp");
    layer_norm_rows(ws_.x.data(), ws_.norm.data(), rows, d, ln.norm2_gamma.data(),
                    ln.norm2_beta.data(), ws_.lane_tile.data());
    if (blk_ranges != nullptr) {
      fold_absmax(blk_ranges->fc1_in, ws_.norm.data(), rows * d);
    }
    linear_rows(ws_.norm.data(), blk.fc1_w.data(), blk.fc1_b.data(), hidden_rows_.data(), rows,
                d, hidden_);
    if (blk_ranges != nullptr) {
      fold_absmax(blk_ranges->gelu_in, hidden_rows_.data(), rows * hidden_);
    }
    detail::gelu_array(hidden_rows_.data(), rows * hidden_, hidden_rows_.data());
    if (blk_ranges != nullptr) {
      fold_absmax(blk_ranges->fc2_in, hidden_rows_.data(), rows * hidden_);
    }
    linear_rows(hidden_rows_.data(), blk.fc2_w.data(), blk.fc2_b.data(), ws_.proj.data(), rows,
                hidden_, d);
    add_into(ws_.x.data(), ws_.proj.data(), rows * d);
  }

  layer_norm_rows(ws_.x.data(), ws_.norm.data(), rows, d, norm_gamma_.data(),
                  norm_beta_.data(), ws_.lane_tile.data());
  if (ranges != nullptr) {
    fold_absmax(ranges->rec_in, ws_.norm.data(), rows * d);
  }
}

void BatchedVitEngine::head_linear(std::int64_t batch, float* logits) const {
  linear_rows(ws_.pooled.data(), head_w.data(), head_b.data(), logits, batch, config_.dim,
              config_.num_classes);
}

void BatchedVitEngine::rec_linear(std::int64_t rows, float* out) const {
  // The per-patch decoder: the same Linear-over-token-rows the tape head runs.
  linear_rows(ws_.norm.data(), rec_w.data(), rec_b.data(), out, rows, config_.dim,
              static_cast<std::int64_t>(rec_b.size()));
}

void BatchedVitEngine::collect_activation_ranges(const Tensor& coded,
                                                 ActivationRanges& ranges) const {
  checked_batch(coded);
  ranges.blocks.resize(blocks_.size());
  for_each_chunk(coded, [&](const float* rows, std::int64_t, std::int64_t chunk) {
    encode(rows, chunk, &ranges);
    // The AR head reads the pooled tokens: fold their range.
    pool_tokens(chunk);
    fold_absmax(ranges.head_in, ws_.pooled.data(), chunk * config_.dim);
  });
}

// --- QuantizedVitEngine: the int8 trunk and heads -----------------------------

QuantizedVitEngine::QuantLinear QuantizedVitEngine::make_quant_linear(
    const std::vector<float>& w, const std::vector<float>& bias, float act_scale,
    std::int64_t k, std::int64_t n) {
  QuantLinear lin;
  lin.act_scale = act_scale;
  lin.bias = bias;
  std::vector<std::int8_t> wq(static_cast<std::size_t>(n * k));
  std::vector<float> scales(static_cast<std::size_t>(n));
  detail::quantize_weights_per_channel(w.data(), k, n, wq.data(), scales.data());
  lin.w = detail::pack_s8_weights(wq.data(), k, n);
  lin.deq.resize(static_cast<std::size_t>(n));
  for (std::int64_t j = 0; j < n; ++j) {
    lin.deq[static_cast<std::size_t>(j)] = act_scale * scales[static_cast<std::size_t>(j)];
  }
  return lin;
}

QuantizedVitEngine::QuantizedVitEngine(const models::SnapPixClassifier& model,
                                       const models::SnapPixReconstructor& reconstructor,
                                       const QuantSpec& spec, int max_batch)
    : VitEngine(model, reconstructor, max_batch, Precision::kInt8) {
  SNAPPIX_CHECK(static_cast<int>(spec.blocks.size()) == config_.depth,
                "QuantSpec has " << spec.blocks.size() << " block scales for a depth-"
                                 << config_.depth << " model — calibrate against this model");
  const std::int64_t d = config_.dim;
  const std::int64_t n = config_.tokens();
  const std::int64_t pp = static_cast<std::int64_t>(config_.patch) * config_.patch;
  const std::int64_t out = static_cast<std::int64_t>(frames_) * pp;

  const auto params = param_map(model);
  embed_ = make_quant_linear(take(params, "encoder.patch_embed.proj.weight", pp * d),
                             take(params, "encoder.patch_embed.proj.bias", d), spec.embed_in,
                             pp, d);
  blocks_.resize(static_cast<std::size_t>(config_.depth));
  for (int i = 0; i < config_.depth; ++i) {
    const std::string p = "encoder.blocks." + std::to_string(i) + ".";
    const QuantBlockScales& bs = spec.blocks[static_cast<std::size_t>(i)];
    auto& b = blocks_[static_cast<std::size_t>(i)];
    b.qkv = make_quant_linear(take(params, p + "attn.qkv.weight", d * 3 * d),
                              take(params, p + "attn.qkv.bias", 3 * d), bs.qkv_in, d, 3 * d);
    b.proj = make_quant_linear(take(params, p + "attn.proj.weight", d * d),
                               take(params, p + "attn.proj.bias", d), bs.proj_in, d, d);
    b.fc1 = make_quant_linear(take(params, p + "mlp.fc1.weight", d * hidden_),
                              take(params, p + "mlp.fc1.bias", hidden_), bs.fc1_in, d, hidden_);
    b.fc2 = make_quant_linear(take(params, p + "mlp.fc2.weight", hidden_ * d),
                              take(params, p + "mlp.fc2.bias", d), bs.fc2_in, hidden_, d);
    // Bake the GELU into a 256-entry table: entry q (an int8 on the gelu_in
    // grid) maps to gelu(q * gelu_in) requantized onto the fc2_in grid — the
    // GELU runs 256 times here and never again.
    b.gelu_inv_scale = 1.0F / bs.gelu_in;
    b.gelu_lut.resize(256);
    const float fc2_inv = 1.0F / bs.fc2_in;
    for (int q = -128; q < 128; ++q) {
      const float x = static_cast<float>(q) * bs.gelu_in;
      const float r = std::nearbyintf(detail::gelu_ref(x) * fc2_inv);
      b.gelu_lut[static_cast<std::size_t>(static_cast<std::uint8_t>(q))] =
          static_cast<std::int8_t>(std::max(-127.0F, std::min(127.0F, r)));
    }
  }
  head_ = make_quant_linear(take(params, "head.weight", d * config_.num_classes),
                            take(params, "head.bias", config_.num_classes), spec.head_in, d,
                            config_.num_classes);
  const auto rec_params = param_map(reconstructor);
  rec_ = make_quant_linear(take(rec_params, "head.weight", d * out),
                           take(rec_params, "head.bias", out), spec.rec_in, d, out);

  // One quantized-input and one int32-accumulator buffer cover every linear
  // of the trunk and the AR head: size them for the widest input / output
  // row. (There is no fp32 hidden buffer: the MLP's hidden activations live
  // in qin_ as int8 — see mlp_s8.)
  const std::int64_t rows = static_cast<std::int64_t>(max_batch) * n;
  const std::int64_t max_in = std::max({pp, d, hidden_});
  const std::int64_t max_out = std::max({3 * d, hidden_, d, config_.num_classes});
  qin_.resize(static_cast<std::size_t>(rows * max_in));
  a16_.resize(static_cast<std::size_t>(rows * 2 * detail::s8_pair_count(max_in)));
  acc_.resize(static_cast<std::size_t>(rows * max_out));
}

void QuantizedVitEngine::linear_s8(const float* in, const QuantLinear& lin, float* out,
                                   std::int64_t rows) const {
  {
    obs::ScopedSpan span("quantize");
    detail::quantize_symmetric(in, rows * lin.w.k, lin.act_scale, qin_.data());
  }
  {
    obs::ScopedSpan span("gemm_s8");
    detail::gemm_s8_rows(qin_.data(), lin.w, acc_.data(), rows, a16_.data());
  }
  obs::ScopedSpan span("requant");
  dequant_rows_fast(acc_.data(), lin.deq.data(), lin.bias.data(), out, rows, lin.w.n);
}

void QuantizedVitEngine::mlp_s8(const float* in, const BlockWeights& blk, float* out,
                                std::int64_t rows) const {
  {
    obs::ScopedSpan span("quantize");
    detail::quantize_symmetric(in, rows * blk.fc1.w.k, blk.fc1.act_scale, qin_.data());
  }
  {
    obs::ScopedSpan span("gemm_s8");
    detail::gemm_s8_rows(qin_.data(), blk.fc1.w, acc_.data(), rows, a16_.data());
  }
  {
    // fc1 output -> GELU -> fc2 input without leaving int8: requantize each
    // accumulator onto the gelu_in grid (tensor/gemm_s8.h's shared pack
    // pipeline), then map through the 256-entry LUT. qin_ is rewritten in
    // place (the fc1 input it held is spent) and is fc2's input.
    obs::ScopedSpan span("requant");
    const std::int64_t total = rows * blk.fc1.w.n;
    detail::requantize_rows(acc_.data(), blk.fc1.deq.data(), blk.fc1.bias.data(),
                            blk.gelu_inv_scale, qin_.data(), rows, blk.fc1.w.n);
    const std::int8_t* lut = blk.gelu_lut.data();
    std::int8_t* q = qin_.data();
    for (std::int64_t i = 0; i < total; ++i) {
      q[i] = lut[static_cast<std::uint8_t>(q[i])];
    }
  }
  {
    obs::ScopedSpan span("gemm_s8");
    detail::gemm_s8_rows(qin_.data(), blk.fc2.w, acc_.data(), rows, a16_.data());
  }
  obs::ScopedSpan span("requant");
  dequant_rows_fast(acc_.data(), blk.fc2.deq.data(), blk.fc2.bias.data(), out, rows,
                    blk.fc2.w.n);
}

void QuantizedVitEngine::encode_chunk(const float* coded, std::int64_t batch) const {
  obs::ScopedSpan encode_span("encode");
  const std::int64_t d = config_.dim;
  const std::int64_t n = config_.tokens();
  const std::int64_t rows = batch * n;
  const std::int64_t heads = config_.heads;

  patchify_rows(coded, ws_.patches.data(), batch, config_);
  linear_s8(ws_.patches.data(), embed_, ws_.x.data(), rows);
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t t = 0; t < n; ++t) {
      add_into(ws_.x.data() + (b * n + t) * d, pos_embed_.data() + t * d, d);
    }
  }

  for (std::size_t bi = 0; bi < blocks_.size(); ++bi) {
    const BlockWeights& blk = blocks_[bi];
    const BlockNorms& ln = norms_[bi];
    layer_norm_rows_fast(ws_.x.data(), ws_.norm.data(), rows, d, ln.norm1_gamma.data(),
                         ln.norm1_beta.data());
    linear_s8(ws_.norm.data(), blk.qkv, ws_.qkv.data(), rows);
    attention_rows<true>(ws_.qkv.data(), ws_.ctx.data(), ws_.scores.data(), ws_.kt.data(),
                         ws_.lane_tile.data(), batch, n, d, heads);
    linear_s8(ws_.ctx.data(), blk.proj, ws_.proj.data(), rows);
    add_into(ws_.x.data(), ws_.proj.data(), rows * d);

    layer_norm_rows_fast(ws_.x.data(), ws_.norm.data(), rows, d, ln.norm2_gamma.data(),
                         ln.norm2_beta.data());
    mlp_s8(ws_.norm.data(), blk, ws_.proj.data(), rows);
    add_into(ws_.x.data(), ws_.proj.data(), rows * d);
  }

  layer_norm_rows_fast(ws_.x.data(), ws_.norm.data(), rows, d, norm_gamma_.data(),
                       norm_beta_.data());
}

void QuantizedVitEngine::head_linear(std::int64_t batch, float* logits) const {
  linear_s8(ws_.pooled.data(), head_, logits, batch);
}

void QuantizedVitEngine::rec_linear(std::int64_t rows, float* out) const {
  // The REC head's int32 output is the widest: grow acc_ to it on the first
  // reconstruct(), like the shell's ws_.rec.
  const std::size_t acc_size = static_cast<std::size_t>(
      static_cast<std::int64_t>(max_batch_) * config_.tokens() * rec_.w.n);
  if (acc_.size() < acc_size) {
    acc_.resize(acc_size);
  }
  linear_s8(ws_.norm.data(), rec_, out, rows);
}

}  // namespace snappix::runtime

#include "runtime/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>

#include "obs/trace.h"
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

// out(rows, n) = in(rows, k) @ w(k, n) + bias(n), matching Linear::forward:
// matmul into zeroed accumulators, then a separate broadcast bias add.
void linear_rows(const float* in, const float* w, const float* bias, float* out,
                 std::int64_t rows, std::int64_t k, std::int64_t n) {
  std::memset(out, 0, static_cast<std::size_t>(rows * n) * sizeof(float));
  detail::gemm_nn(in, w, out, rows, k, n);
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = out + r * n;
    for (std::int64_t j = 0; j < n; ++j) {
      row[j] = row[j] + bias[j];
    }
  }
}

void softmax_row(float* row, std::int64_t n) {
  float mx = -std::numeric_limits<float>::infinity();
  for (std::int64_t i = 0; i < n; ++i) {
    mx = std::max(mx, row[i]);
  }
  float denom = 0.0F;
  for (std::int64_t i = 0; i < n; ++i) {
    row[i] = std::exp(row[i] - mx);
    denom += row[i];
  }
  for (std::int64_t i = 0; i < n; ++i) {
    row[i] /= denom;
  }
}

// Fast exp for the int8 tier's softmax: 2^(x log2 e) assembled from the
// exponent bits and a cubic on the fraction (~1e-3 relative error, which the
// softmax normalization largely cancels). Pure float arithmetic — no libm —
// so it is deterministic across runs and hosts, just not bit-equal to
// std::exp. The fp32 engine MUST keep softmax_row above; only the already-
// approximate int8 tier may trade exp accuracy for the ~10x speedup.
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

void softmax_row_fast(float* row, std::int64_t n) {
  float mx = -std::numeric_limits<float>::infinity();
  for (std::int64_t i = 0; i < n; ++i) {
    mx = std::max(mx, row[i]);
  }
  std::int64_t i = 0;
#if defined(__AVX2__)
  const __m256 vmx = _mm256_set1_ps(mx);
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(row + i, fast_exp_negative8(_mm256_sub_ps(_mm256_loadu_ps(row + i), vmx)));
  }
#endif
  for (; i < n; ++i) {
    row[i] = fast_exp_negative(row[i] - mx);
  }
  float denom = 0.0F;  // sequential, like softmax_row
  for (i = 0; i < n; ++i) {
    denom += row[i];
  }
  for (i = 0; i < n; ++i) {
    row[i] /= denom;
  }
}

// LayerNorm over (rows, d), replicating the tape op's formula (mean() is sum
// times reciprocal). The fp32 engine's bit-exactness depends on this exact
// operation sequence; the int8 engine runs layer_norm_rows_fast below.
void layer_norm_rows(const float* in, float* out, std::int64_t rows, std::int64_t d,
                     const float* gamma, const float* beta) {
  const float inv_d = 1.0F / static_cast<float>(d);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* x = in + r * d;
    float* y = out + r * d;
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
    const float denom = std::sqrt(var + kLayerNormEps);
    for (std::int64_t j = 0; j < d; ++j) {
      const float normalized = (x[j] - mu) / denom;
      y[j] = normalized * gamma[j] + beta[j];
    }
  }
}

// Multi-head self-attention over the fused qkv rows (batch*N, 3D), context
// into ctx (batch*N, D); `scores` ((N, N)) and `kt` ((hd, N)) are scratch,
// reused per (b, head). Both tiers run this one loop nest and differ only in
// `Softmax`: softmax_row (std::exp, bit-exact vs the tape) for fp32,
// softmax_row_fast for int8.
//
// Vectorized across OUTPUT elements, never across a reduction: the head's k
// rows are packed into a contiguous k^T tile so q . k^T fills 8 (then 4)
// scores at a time as broadcast-times-row, and attn . v fills head_dim in 8-
// and 4-lane blocks (12 = 8 + 4 at SnapPix-S). Every score and context
// element is still its own zero-started chain of separate mul and add in
// ascending reduction order — exactly the tape's q @ k^T -> scale ->
// softmax -> @ v (scale as its own multiply, after the dot) — so lanes
// change the speed, not a bit. Explicit intrinsics: the library builds at
// -O2, where gcc leaves these runtime-width loops scalar.
template <void (*Softmax)(float*, std::int64_t)>
void attention_rows(const float* qkv, float* ctx, float* scores, float* kt, std::int64_t batch,
                    std::int64_t n, std::int64_t d, std::int64_t heads) {
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
      for (std::int64_t i = 0; i < n; ++i) {
        const float* q_row = qkv_base + i * 3 * d + q_off;
        float* score_row = scores + i * n;
        std::int64_t j0 = 0;
#if defined(__AVX2__)
        for (; j0 + 8 <= n; j0 += 8) {
          __m256 acc = _mm256_setzero_ps();
          for (std::int64_t l = 0; l < hd; ++l) {
            acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(q_row[l]),
                                                   _mm256_loadu_ps(kt + l * n + j0)));
          }
          _mm256_storeu_ps(score_row + j0, _mm256_mul_ps(acc, _mm256_set1_ps(scale)));
        }
        for (; j0 + 4 <= n; j0 += 4) {
          __m128 acc = _mm_setzero_ps();
          for (std::int64_t l = 0; l < hd; ++l) {
            acc = _mm_add_ps(acc, _mm_mul_ps(_mm_set1_ps(q_row[l]), _mm_loadu_ps(kt + l * n + j0)));
          }
          _mm_storeu_ps(score_row + j0, _mm_mul_ps(acc, _mm_set1_ps(scale)));
        }
#endif
        for (; j0 < n; ++j0) {  // scalar tail (and the non-AVX2 whole loop)
          float acc = 0.0F;
          for (std::int64_t l = 0; l < hd; ++l) {
            acc += q_row[l] * kt[l * n + j0];
          }
          score_row[j0] = acc * scale;
        }
        Softmax(score_row, n);
      }
      for (std::int64_t t = 0; t < n; ++t) {
        const float* attn_row = scores + t * n;
        const float* v_base = qkv_base + 2 * d + q_off;  // v row j at v_base + j*3D
        float* ctx_row = ctx + (b * n + t) * d + q_off;
        std::int64_t e0 = 0;
#if defined(__AVX2__)
        for (; e0 + 8 <= hd; e0 += 8) {
          __m256 acc = _mm256_setzero_ps();
          for (std::int64_t j = 0; j < n; ++j) {
            acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(attn_row[j]),
                                                   _mm256_loadu_ps(v_base + j * 3 * d + e0)));
          }
          _mm256_storeu_ps(ctx_row + e0, acc);
        }
        for (; e0 + 4 <= hd; e0 += 4) {
          __m128 acc = _mm_setzero_ps();
          for (std::int64_t j = 0; j < n; ++j) {
            acc = _mm_add_ps(acc, _mm_mul_ps(_mm_set1_ps(attn_row[j]),
                                             _mm_loadu_ps(v_base + j * 3 * d + e0)));
          }
          _mm_storeu_ps(ctx_row + e0, acc);
        }
#endif
        for (; e0 < hd; ++e0) {
          float acc = 0.0F;
          for (std::int64_t j = 0; j < n; ++j) {
            acc += attn_row[j] * v_base[j * 3 * d + e0];
          }
          ctx_row[e0] = acc;
        }
      }
    }
  }
}

// out[i] (+)= in[i] elementwise, AVX2-wide (the -O2 build does not vectorize
// runtime-width loops on its own). Int8 tier only — the fp32 engine's
// residual adds stay in its own pinned loops.
inline void add_rows_fast(float* out, const float* in, std::int64_t count) {
  std::int64_t i = 0;
#if defined(__AVX2__)
  for (; i + 8 <= count; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(out + i),
                                            _mm256_loadu_ps(in + i)));
  }
#endif
  for (; i < count; ++i) {
    out[i] += in[i];
  }
}

// Vector-friendly LayerNorm for the int8 tier: tree-order reductions instead
// of the tape's pinned ascending sums. Deterministic, not bit-equal to
// layer_norm_rows.
void layer_norm_rows_fast(const float* in, float* out, std::int64_t rows, std::int64_t d,
                          const float* gamma, const float* beta) {
  const float inv_d = 1.0F / static_cast<float>(d);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* x = in + r * d;
    float* y = out + r * d;
#if defined(__AVX2__)
    __m256 vsum = _mm256_setzero_ps();
    std::int64_t j = 0;
    for (; j + 8 <= d; j += 8) {
      vsum = _mm256_add_ps(vsum, _mm256_loadu_ps(x + j));
    }
    __m128 s = _mm_add_ps(_mm256_castps256_ps128(vsum), _mm256_extractf128_ps(vsum, 1));
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    float acc = _mm_cvtss_f32(s);
    for (; j < d; ++j) {
      acc += x[j];
    }
    const float mu = acc * inv_d;
    const __m256 vmu = _mm256_set1_ps(mu);
    __m256 vvar = _mm256_setzero_ps();
    j = 0;
    for (; j + 8 <= d; j += 8) {
      const __m256 c = _mm256_sub_ps(_mm256_loadu_ps(x + j), vmu);
      vvar = _mm256_add_ps(vvar, _mm256_mul_ps(c, c));
    }
    __m128 v = _mm_add_ps(_mm256_castps256_ps128(vvar), _mm256_extractf128_ps(vvar, 1));
    v = _mm_add_ps(v, _mm_movehl_ps(v, v));
    v = _mm_add_ss(v, _mm_shuffle_ps(v, v, 1));
    float var_acc = _mm_cvtss_f32(v);
    for (; j < d; ++j) {
      const float centered = x[j] - mu;
      var_acc += centered * centered;
    }
#else
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
#endif
    const float var = var_acc * inv_d;
    const float inv_denom = 1.0F / std::sqrt(var + kLayerNormEps);
    std::int64_t jj = 0;
#if defined(__AVX2__)
    const __m256 vmu2 = _mm256_set1_ps(mu);
    const __m256 vinv = _mm256_set1_ps(inv_denom);
    for (; jj + 8 <= d; jj += 8) {
      const __m256 normalized =
          _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x + jj), vmu2), vinv);
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

BatchedVitEngine::BatchedVitEngine(const models::SnapPixClassifier& model,
                                   const models::SnapPixReconstructor& reconstructor,
                                   int max_batch)
    : BatchedVitEngine(model, max_batch) {
  SNAPPIX_CHECK(reconstructor.encoder().get() == model.encoder().get(),
                "engine: the reconstructor must share the classifier's encoder — one trunk "
                "snapshot cannot be bit-exact for two different encoders");
  frames_ = reconstructor.frames();
  const std::int64_t d = config_.dim;
  const std::int64_t out =
      static_cast<std::int64_t>(frames_) * config_.patch * config_.patch;
  const auto params = param_map(reconstructor);
  rec_w = take(params, "head.weight", d * out);
  rec_b = take(params, "head.bias", out);
  // ws_.rec — the engine's largest buffer — is allocated on the first
  // reconstruct() call, so classification-only traffic never pays for it.
}

BatchedVitEngine::BatchedVitEngine(const models::SnapPixClassifier& model, int max_batch)
    : config_(model.encoder()->config()), max_batch_(max_batch) {
  SNAPPIX_CHECK(max_batch > 0, "engine max_batch must be positive");
  const std::int64_t d = config_.dim;
  const std::int64_t n = config_.tokens();
  const std::int64_t pp = static_cast<std::int64_t>(config_.patch) * config_.patch;
  hidden_ = static_cast<std::int64_t>(static_cast<float>(d) * config_.mlp_ratio);

  const auto params = param_map(model);

  embed_w = take(params, "encoder.patch_embed.proj.weight", pp * d);
  embed_b = take(params, "encoder.patch_embed.proj.bias", d);
  pos_embed = take(params, "encoder.pos_embed", n * d);
  blocks_.resize(static_cast<std::size_t>(config_.depth));
  for (int i = 0; i < config_.depth; ++i) {
    const std::string p = "encoder.blocks." + std::to_string(i) + ".";
    auto& b = blocks_[static_cast<std::size_t>(i)];
    b.norm1_gamma = take(params, p + "norm1.gamma", d);
    b.norm1_beta = take(params, p + "norm1.beta", d);
    b.qkv_w = take(params, p + "attn.qkv.weight", d * 3 * d);
    b.qkv_b = take(params, p + "attn.qkv.bias", 3 * d);
    b.proj_w = take(params, p + "attn.proj.weight", d * d);
    b.proj_b = take(params, p + "attn.proj.bias", d);
    b.norm2_gamma = take(params, p + "norm2.gamma", d);
    b.norm2_beta = take(params, p + "norm2.beta", d);
    b.fc1_w = take(params, p + "mlp.fc1.weight", d * hidden_);
    b.fc1_b = take(params, p + "mlp.fc1.bias", hidden_);
    b.fc2_w = take(params, p + "mlp.fc2.weight", hidden_ * d);
    b.fc2_b = take(params, p + "mlp.fc2.bias", d);
  }
  norm_gamma = take(params, "encoder.norm.gamma", d);
  norm_beta = take(params, "encoder.norm.beta", d);
  head_w = take(params, "head.weight", d * config_.num_classes);
  head_b = take(params, "head.bias", config_.num_classes);

  const std::int64_t rows = static_cast<std::int64_t>(max_batch) * n;
  ws_.patches.resize(static_cast<std::size_t>(rows * pp));
  ws_.x.resize(static_cast<std::size_t>(rows * d));
  ws_.norm.resize(static_cast<std::size_t>(rows * d));
  ws_.qkv.resize(static_cast<std::size_t>(rows * 3 * d));
  ws_.ctx.resize(static_cast<std::size_t>(rows * d));
  ws_.proj.resize(static_cast<std::size_t>(rows * d));
  ws_.hidden.resize(static_cast<std::size_t>(rows * hidden_));
  ws_.scores.resize(static_cast<std::size_t>(n * n));
  ws_.kt.resize(static_cast<std::size_t>((d / config_.heads) * n));
  ws_.pooled.resize(static_cast<std::size_t>(static_cast<std::int64_t>(max_batch) * d));
}

void BatchedVitEngine::encode_chunk(const float* coded, std::int64_t batch,
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
        const float* pos = pos_embed.data() + t * d;
        for (std::int64_t j = 0; j < d; ++j) {
          row[j] = (row[j] + embed_b[j]) + pos[j];
        }
      }
    }
  }

  for (std::size_t bi = 0; bi < blocks_.size(); ++bi) {
    const BlockWeights& blk = blocks_[bi];
    ActivationRanges::BlockRanges* blk_ranges =
        ranges != nullptr ? &ranges->blocks[bi] : nullptr;
    // --- attention sublayer ---------------------------------------------
    {
      obs::ScopedSpan span("qkv");
      layer_norm_rows(ws_.x.data(), ws_.norm.data(), rows, d, blk.norm1_gamma.data(),
                      blk.norm1_beta.data());
      if (blk_ranges != nullptr) {
        fold_absmax(blk_ranges->qkv_in, ws_.norm.data(), rows * d);
      }
      linear_rows(ws_.norm.data(), blk.qkv_w.data(), blk.qkv_b.data(), ws_.qkv.data(), rows, d,
                  3 * d);
    }
    {
      obs::ScopedSpan span("attention");
      attention_rows<softmax_row>(ws_.qkv.data(), ws_.ctx.data(), ws_.scores.data(),
                                  ws_.kt.data(), batch, n, d, heads);
    }
    if (blk_ranges != nullptr) {
      fold_absmax(blk_ranges->proj_in, ws_.ctx.data(), rows * d);
    }
    {
      obs::ScopedSpan span("proj");
      linear_rows(ws_.ctx.data(), blk.proj_w.data(), blk.proj_b.data(), ws_.proj.data(), rows,
                  d, d);
      for (std::int64_t i = 0; i < rows * d; ++i) {
        ws_.x[static_cast<std::size_t>(i)] =
            ws_.x[static_cast<std::size_t>(i)] + ws_.proj[static_cast<std::size_t>(i)];
      }
    }

    // --- MLP sublayer ----------------------------------------------------
    obs::ScopedSpan mlp_span("mlp");
    layer_norm_rows(ws_.x.data(), ws_.norm.data(), rows, d, blk.norm2_gamma.data(),
                    blk.norm2_beta.data());
    if (blk_ranges != nullptr) {
      fold_absmax(blk_ranges->fc1_in, ws_.norm.data(), rows * d);
    }
    linear_rows(ws_.norm.data(), blk.fc1_w.data(), blk.fc1_b.data(), ws_.hidden.data(), rows, d,
                hidden_);
    if (blk_ranges != nullptr) {
      fold_absmax(blk_ranges->gelu_in, ws_.hidden.data(), rows * hidden_);
    }
    detail::gelu_array(ws_.hidden.data(), rows * hidden_, ws_.hidden.data());
    if (blk_ranges != nullptr) {
      fold_absmax(blk_ranges->fc2_in, ws_.hidden.data(), rows * hidden_);
    }
    linear_rows(ws_.hidden.data(), blk.fc2_w.data(), blk.fc2_b.data(), ws_.proj.data(), rows,
                hidden_, d);
    for (std::int64_t i = 0; i < rows * d; ++i) {
      ws_.x[static_cast<std::size_t>(i)] =
          ws_.x[static_cast<std::size_t>(i)] + ws_.proj[static_cast<std::size_t>(i)];
    }
  }

  layer_norm_rows(ws_.x.data(), ws_.norm.data(), rows, d, norm_gamma.data(), norm_beta.data());
  if (ranges != nullptr) {
    fold_absmax(ranges->rec_in, ws_.norm.data(), rows * d);
  }
}

void BatchedVitEngine::classify_chunk(std::int64_t batch, float* logits) const {
  obs::ScopedSpan span("classify_head");
  const std::int64_t d = config_.dim;
  const std::int64_t n = config_.tokens();

  // Token pooling: mean over N = sum in token order times 1/N.
  const float inv_n = 1.0F / static_cast<float>(n);
  std::memset(ws_.pooled.data(), 0, static_cast<std::size_t>(batch * d) * sizeof(float));
  for (std::int64_t b = 0; b < batch; ++b) {
    float* pooled = ws_.pooled.data() + b * d;
    for (std::int64_t t = 0; t < n; ++t) {
      const float* row = ws_.norm.data() + (b * n + t) * d;
      for (std::int64_t j = 0; j < d; ++j) {
        pooled[j] += row[j];
      }
    }
    for (std::int64_t j = 0; j < d; ++j) {
      pooled[j] *= inv_n;
    }
  }

  linear_rows(ws_.pooled.data(), head_w.data(), head_b.data(), logits, batch, d,
              config_.num_classes);
}

void BatchedVitEngine::reconstruct_chunk(std::int64_t batch, float* video) const {
  obs::ScopedSpan span("rec_decode");
  const std::int64_t d = config_.dim;
  const std::int64_t n = config_.tokens();
  const std::int64_t out =
      static_cast<std::int64_t>(frames_) * config_.patch * config_.patch;

  // Per-patch decoder: the same Linear-over-token-rows the tape head runs.
  linear_rows(ws_.norm.data(), rec_w.data(), rec_b.data(), ws_.rec.data(), batch * n, d, out);
  scatter_video(ws_.rec.data(), video, batch, frames_, config_);
}

void BatchedVitEngine::check_coded_shape(const Tensor& coded) const {
  SNAPPIX_CHECK(coded.ndim() == 3 && coded.shape()[1] == config_.image_h &&
                    coded.shape()[2] == config_.image_w,
                "engine expects (B, " << config_.image_h << ", " << config_.image_w
                                      << "), got " << coded.shape().to_string());
}

Tensor BatchedVitEngine::classify_logits(const Tensor& coded) const {
  check_coded_shape(coded);
  const std::int64_t batch = coded.shape()[0];
  std::vector<float> logits(static_cast<std::size_t>(batch * config_.num_classes));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::int64_t begin = 0; begin < batch; begin += max_batch_) {
      const std::int64_t chunk = std::min<std::int64_t>(max_batch_, batch - begin);
      encode_chunk(coded.data().data() + begin * config_.image_h * config_.image_w, chunk);
      classify_chunk(chunk, logits.data() + begin * config_.num_classes);
    }
  }
  return Tensor::from_vector(std::move(logits), Shape{batch, config_.num_classes});
}

void BatchedVitEngine::collect_activation_ranges(const Tensor& coded,
                                                 ActivationRanges& ranges) const {
  check_coded_shape(coded);
  const std::int64_t batch = coded.shape()[0];
  ranges.blocks.resize(blocks_.size());
  std::vector<float> logits(
      static_cast<std::size_t>(std::min<std::int64_t>(batch, max_batch_) *
                               config_.num_classes));
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::int64_t begin = 0; begin < batch; begin += max_batch_) {
    const std::int64_t chunk = std::min<std::int64_t>(max_batch_, batch - begin);
    encode_chunk(coded.data().data() + begin * config_.image_h * config_.image_w, chunk,
                 &ranges);
    // The AR head reads the pooled tokens; run the pooling (classify_chunk)
    // and fold its input range. The logits themselves are discarded.
    classify_chunk(chunk, logits.data());
    fold_absmax(ranges.head_in, ws_.pooled.data(),
                static_cast<std::int64_t>(chunk) * config_.dim);
  }
}

Tensor BatchedVitEngine::reconstruct(const Tensor& coded) const {
  SNAPPIX_CHECK(has_rec_head(),
                "engine was built without a reconstruction head — use the "
                "(classifier, reconstructor) constructor for REC serving");
  check_coded_shape(coded);
  const std::int64_t batch = coded.shape()[0];
  const std::int64_t h = config_.image_h;
  const std::int64_t w = config_.image_w;
  const std::int64_t frame_elems = static_cast<std::int64_t>(frames_) * h * w;
  std::vector<float> video(static_cast<std::size_t>(batch * frame_elems));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t rec_size = static_cast<std::size_t>(
        static_cast<std::int64_t>(max_batch_) * config_.tokens() * frames_ *
        config_.patch * config_.patch);
    if (ws_.rec.size() < rec_size) {
      ws_.rec.resize(rec_size);
    }
    for (std::int64_t begin = 0; begin < batch; begin += max_batch_) {
      const std::int64_t chunk = std::min<std::int64_t>(max_batch_, batch - begin);
      encode_chunk(coded.data().data() + begin * h * w, chunk);
      reconstruct_chunk(chunk, video.data() + begin * frame_elems);
    }
  }
  return Tensor::from_vector(std::move(video), Shape{batch, frames_, h, w});
}

// --- QuantizedVitEngine ------------------------------------------------------

QuantizedVitEngine::QuantLinear QuantizedVitEngine::make_quant_linear(
    const std::vector<float>& w, const std::vector<float>& bias, float act_scale,
    std::int64_t k, std::int64_t n) {
  QuantLinear lin;
  lin.k = k;
  lin.n = n;
  lin.act_scale = act_scale;
  lin.bias = bias;
  lin.wq.resize(static_cast<std::size_t>(n * k));
  std::vector<float> scales(static_cast<std::size_t>(n));
  detail::quantize_weights_per_channel(w.data(), k, n, lin.wq.data(), scales.data());
  lin.deq.resize(static_cast<std::size_t>(n));
  for (std::int64_t j = 0; j < n; ++j) {
    lin.deq[static_cast<std::size_t>(j)] = act_scale * scales[static_cast<std::size_t>(j)];
  }
  return lin;
}

QuantizedVitEngine::QuantizedVitEngine(const models::SnapPixClassifier& model,
                                       const models::SnapPixReconstructor& reconstructor,
                                       const QuantSpec& spec, int max_batch)
    : QuantizedVitEngine(model, spec, max_batch) {
  SNAPPIX_CHECK(reconstructor.encoder().get() == model.encoder().get(),
                "engine: the reconstructor must share the classifier's encoder");
  frames_ = reconstructor.frames();
  const std::int64_t d = config_.dim;
  const std::int64_t out =
      static_cast<std::int64_t>(frames_) * config_.patch * config_.patch;
  const auto params = param_map(reconstructor);
  rec_ = make_quant_linear(take(params, "head.weight", d * out),
                           take(params, "head.bias", out), spec_.rec_in, d, out);
  // ws_.rec / the matching int32 accumulator are allocated on the first
  // reconstruct() call, like the fp32 engine.
}

QuantizedVitEngine::QuantizedVitEngine(const models::SnapPixClassifier& model,
                                       const QuantSpec& spec, int max_batch)
    : config_(model.encoder()->config()), max_batch_(max_batch), spec_(spec) {
  SNAPPIX_CHECK(max_batch > 0, "engine max_batch must be positive");
  SNAPPIX_CHECK(static_cast<int>(spec.blocks.size()) == config_.depth,
                "QuantSpec has " << spec.blocks.size() << " block scales for a depth-"
                                 << config_.depth << " model — calibrate against this model");
  const std::int64_t d = config_.dim;
  const std::int64_t n = config_.tokens();
  const std::int64_t pp = static_cast<std::int64_t>(config_.patch) * config_.patch;
  hidden_ = static_cast<std::int64_t>(static_cast<float>(d) * config_.mlp_ratio);

  const auto params = param_map(model);

  embed_ = make_quant_linear(take(params, "encoder.patch_embed.proj.weight", pp * d),
                             take(params, "encoder.patch_embed.proj.bias", d), spec_.embed_in,
                             pp, d);
  pos_embed = take(params, "encoder.pos_embed", n * d);
  blocks_.resize(static_cast<std::size_t>(config_.depth));
  for (int i = 0; i < config_.depth; ++i) {
    const std::string p = "encoder.blocks." + std::to_string(i) + ".";
    const QuantBlockScales& bs = spec_.blocks[static_cast<std::size_t>(i)];
    auto& b = blocks_[static_cast<std::size_t>(i)];
    b.norm1_gamma = take(params, p + "norm1.gamma", d);
    b.norm1_beta = take(params, p + "norm1.beta", d);
    b.qkv = make_quant_linear(take(params, p + "attn.qkv.weight", d * 3 * d),
                              take(params, p + "attn.qkv.bias", 3 * d), bs.qkv_in, d, 3 * d);
    b.proj = make_quant_linear(take(params, p + "attn.proj.weight", d * d),
                               take(params, p + "attn.proj.bias", d), bs.proj_in, d, d);
    b.norm2_gamma = take(params, p + "norm2.gamma", d);
    b.norm2_beta = take(params, p + "norm2.beta", d);
    b.fc1 = make_quant_linear(take(params, p + "mlp.fc1.weight", d * hidden_),
                              take(params, p + "mlp.fc1.bias", hidden_), bs.fc1_in, d, hidden_);
    b.fc2 = make_quant_linear(take(params, p + "mlp.fc2.weight", hidden_ * d),
                              take(params, p + "mlp.fc2.bias", d), bs.fc2_in, hidden_, d);
    // Bake the GELU into a 256-entry table: entry q (an int8 on the gelu_in
    // grid) maps to gelu(q * gelu_in) requantized onto the fc2_in grid — the
    // tanh runs 256 times here and never again.
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
  norm_gamma = take(params, "encoder.norm.gamma", d);
  norm_beta = take(params, "encoder.norm.beta", d);
  head_ = make_quant_linear(take(params, "head.weight", d * config_.num_classes),
                            take(params, "head.bias", config_.num_classes), spec_.head_in, d,
                            config_.num_classes);

  const std::int64_t rows = static_cast<std::int64_t>(max_batch) * n;
  ws_.patches.resize(static_cast<std::size_t>(rows * pp));
  ws_.x.resize(static_cast<std::size_t>(rows * d));
  ws_.norm.resize(static_cast<std::size_t>(rows * d));
  ws_.qkv.resize(static_cast<std::size_t>(rows * 3 * d));
  ws_.ctx.resize(static_cast<std::size_t>(rows * d));
  ws_.proj.resize(static_cast<std::size_t>(rows * d));
  ws_.scores.resize(static_cast<std::size_t>(n * n));
  ws_.kt.resize(static_cast<std::size_t>((d / config_.heads) * n));
  ws_.pooled.resize(static_cast<std::size_t>(static_cast<std::int64_t>(max_batch) * d));
  // One quantized-input and one int32-accumulator buffer cover every linear:
  // size them for the widest input row / output row the trunk sees. (There
  // is no fp32 hidden buffer: the MLP's hidden activations live in qin as
  // int8 — see mlp_s8.)
  const std::int64_t max_in = std::max({pp, d, hidden_});
  const std::int64_t max_out = std::max({3 * d, hidden_, d, config_.num_classes});
  ws_.qin.resize(static_cast<std::size_t>(rows * max_in));
  ws_.acc.resize(static_cast<std::size_t>(rows * max_out));
}

void QuantizedVitEngine::linear_s8(const float* in, const QuantLinear& lin, float* out,
                                   std::int64_t rows) const {
  {
    obs::ScopedSpan span("quantize");
    detail::quantize_symmetric(in, rows * lin.k, lin.act_scale, ws_.qin.data());
  }
  {
    obs::ScopedSpan span("gemm_s8");
    detail::gemm_s8_nt(ws_.qin.data(), lin.wq.data(), ws_.acc.data(), rows, lin.k, lin.n);
  }
  obs::ScopedSpan span("requant");
  dequant_rows_fast(ws_.acc.data(), lin.deq.data(), lin.bias.data(), out, rows, lin.n);
}

void QuantizedVitEngine::mlp_s8(const float* in, const BlockWeights& blk, float* out,
                                std::int64_t rows) const {
  {
    obs::ScopedSpan span("quantize");
    detail::quantize_symmetric(in, rows * blk.fc1.k, blk.fc1.act_scale, ws_.qin.data());
  }
  {
    obs::ScopedSpan span("gemm_s8");
    detail::gemm_s8_nt(ws_.qin.data(), blk.fc1.wq.data(), ws_.acc.data(), rows, blk.fc1.k,
                       blk.fc1.n);
  }
  {
    // fc1 output -> GELU -> fc2 input without leaving int8: requantize each
    // accumulator onto the gelu_in grid (tensor/gemm_s8.h's shared pack
    // pipeline), then map through the 256-entry LUT. ws_.qin is rewritten in
    // place (the fc1 input it held is spent).
    obs::ScopedSpan span("requant");
    const std::int64_t total = rows * blk.fc1.n;
    detail::requantize_rows(ws_.acc.data(), blk.fc1.deq.data(), blk.fc1.bias.data(),
                            blk.gelu_inv_scale, ws_.qin.data(), rows, blk.fc1.n);
    const std::int8_t* lut = blk.gelu_lut.data();
    std::int8_t* q = ws_.qin.data();
    for (std::int64_t i = 0; i < total; ++i) {
      q[i] = lut[static_cast<std::uint8_t>(q[i])];
    }
  }
  {
    obs::ScopedSpan span("gemm_s8");
    detail::gemm_s8_nt(ws_.qin.data(), blk.fc2.wq.data(), ws_.acc.data(), rows, blk.fc2.k,
                       blk.fc2.n);
  }
  obs::ScopedSpan span("requant");
  dequant_rows_fast(ws_.acc.data(), blk.fc2.deq.data(), blk.fc2.bias.data(), out, rows,
                    blk.fc2.n);
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
      add_rows_fast(ws_.x.data() + (b * n + t) * d, pos_embed.data() + t * d, d);
    }
  }

  for (const BlockWeights& blk : blocks_) {
    layer_norm_rows_fast(ws_.x.data(), ws_.norm.data(), rows, d, blk.norm1_gamma.data(),
                         blk.norm1_beta.data());
    linear_s8(ws_.norm.data(), blk.qkv, ws_.qkv.data(), rows);
    attention_rows<softmax_row_fast>(ws_.qkv.data(), ws_.ctx.data(), ws_.scores.data(),
                                     ws_.kt.data(), batch, n, d, heads);
    linear_s8(ws_.ctx.data(), blk.proj, ws_.proj.data(), rows);
    add_rows_fast(ws_.x.data(), ws_.proj.data(), rows * d);

    layer_norm_rows_fast(ws_.x.data(), ws_.norm.data(), rows, d, blk.norm2_gamma.data(),
                         blk.norm2_beta.data());
    mlp_s8(ws_.norm.data(), blk, ws_.proj.data(), rows);
    add_rows_fast(ws_.x.data(), ws_.proj.data(), rows * d);
  }

  layer_norm_rows_fast(ws_.x.data(), ws_.norm.data(), rows, d, norm_gamma.data(),
                       norm_beta.data());
}

void QuantizedVitEngine::classify_chunk(std::int64_t batch, float* logits) const {
  obs::ScopedSpan span("classify_head");
  const std::int64_t d = config_.dim;
  const std::int64_t n = config_.tokens();
  const float inv_n = 1.0F / static_cast<float>(n);
  std::memset(ws_.pooled.data(), 0, static_cast<std::size_t>(batch * d) * sizeof(float));
  for (std::int64_t b = 0; b < batch; ++b) {
    float* pooled = ws_.pooled.data() + b * d;
    for (std::int64_t t = 0; t < n; ++t) {
      add_rows_fast(pooled, ws_.norm.data() + (b * n + t) * d, d);
    }
    for (std::int64_t j = 0; j < d; ++j) {
      pooled[j] *= inv_n;
    }
  }
  linear_s8(ws_.pooled.data(), head_, logits, batch);
}

void QuantizedVitEngine::reconstruct_chunk(std::int64_t batch, float* video) const {
  obs::ScopedSpan span("rec_decode");
  linear_s8(ws_.norm.data(), rec_, ws_.rec.data(), batch * config_.tokens());
  scatter_video(ws_.rec.data(), video, batch, frames_, config_);
}

void QuantizedVitEngine::check_coded_shape(const Tensor& coded) const {
  SNAPPIX_CHECK(coded.ndim() == 3 && coded.shape()[1] == config_.image_h &&
                    coded.shape()[2] == config_.image_w,
                "engine expects (B, " << config_.image_h << ", " << config_.image_w
                                      << "), got " << coded.shape().to_string());
}

Tensor QuantizedVitEngine::classify_logits(const Tensor& coded) const {
  check_coded_shape(coded);
  const std::int64_t batch = coded.shape()[0];
  std::vector<float> logits(static_cast<std::size_t>(batch * config_.num_classes));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::int64_t begin = 0; begin < batch; begin += max_batch_) {
      const std::int64_t chunk = std::min<std::int64_t>(max_batch_, batch - begin);
      encode_chunk(coded.data().data() + begin * config_.image_h * config_.image_w, chunk);
      classify_chunk(chunk, logits.data() + begin * config_.num_classes);
    }
  }
  return Tensor::from_vector(std::move(logits), Shape{batch, config_.num_classes});
}

Tensor QuantizedVitEngine::reconstruct(const Tensor& coded) const {
  SNAPPIX_CHECK(has_rec_head(),
                "engine was built without a reconstruction head — use the "
                "(classifier, reconstructor, spec) constructor for REC serving");
  check_coded_shape(coded);
  const std::int64_t batch = coded.shape()[0];
  const std::int64_t h = config_.image_h;
  const std::int64_t w = config_.image_w;
  const std::int64_t frame_elems = static_cast<std::int64_t>(frames_) * h * w;
  std::vector<float> video(static_cast<std::size_t>(batch * frame_elems));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::int64_t rec_rows =
        static_cast<std::int64_t>(max_batch_) * config_.tokens();
    const std::size_t rec_size = static_cast<std::size_t>(rec_rows * rec_.n);
    if (ws_.rec.size() < rec_size) {
      ws_.rec.resize(rec_size);
    }
    if (ws_.acc.size() < rec_size) {
      ws_.acc.resize(rec_size);
    }
    for (std::int64_t begin = 0; begin < batch; begin += max_batch_) {
      const std::int64_t chunk = std::min<std::int64_t>(max_batch_, batch - begin);
      encode_chunk(coded.data().data() + begin * h * w, chunk);
      reconstruct_chunk(chunk, video.data() + begin * frame_elems);
    }
  }
  return Tensor::from_vector(std::move(video), Shape{batch, frames_, h, w});
}

}  // namespace snappix::runtime

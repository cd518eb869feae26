// Fused, allocation-free serving engines for the CE-optimized ViT, covering
// both task heads (AR classification and REC reconstruction) at two
// precision tiers that run one shell (VitEngine):
//
//   BatchedVitEngine    fp32, bit-identical to the tape framework
//   QuantizedVitEngine  int8 weights/activations, calibrated (quant.h),
//                       deterministic + batch-invariant, NOT bit-equal fp32
//
// The autograd framework is built for training: every op allocates an output
// tensor, records tape metadata, and dispatches through std::function. At
// serving batch sizes that machinery dominates the actual math — profiling
// the (B, H, W) -> logits forward at our geometry shows most wall time spent
// outside the GEMM kernels. These engines snapshot the model weights once,
// preallocate one workspace, and run the whole forward pass as fused loops
// with zero steady-state allocations.
//
// VitEngine is the shell both tiers share: it checks the input shape, takes
// the lock, chunks the batch by max_batch, pools the normed tokens for the
// AR head, scatters the REC head's tiles back into (B, T, H, W) video (the
// layout inverse of nn::unpatchify_video, pure data movement), and owns the
// state both trunks read — the config, the positional embedding, the
// LayerNorm parameters and the shared workspace rows. A tier supplies only
// its trunk (encode_chunk: patchify -> embed -> blocks -> final norm) and
// its two head linears; the trunks are where the tiers differ (tape-order
// LayerNorm and exp_array for fp32; tree LayerNorm, a fast exp, int8
// linears and a GELU table for int8).
//
// Bit-exactness contract (fp32 tier): BatchedVitEngine reproduces the
// framework forward *bit-identically* (not just approximately). It calls the
// kernels the tape ops call — the GEMM under matmul (tensor/gemm.h), the GELU
// under gelu (tensor/gelu.h) and the exp under softmax (tensor/exp.h) — and
// replicates every other elementwise formula and accumulation order of the
// tape ops (LayerNorm's sum-times-reciprocal mean, max-subtracted softmax
// with a sequential sum, scale-after-matmul attention). The only libm
// functions left in the fp32 engine are sqrt and, in scalar builds, fma,
// which IEEE rounds correctly, so its bits are the same on every host. The
// invariant that permits SIMD: each output element keeps its own
// ascending-order chain, with no reassociation. A matmul element's chain
// (the GEMM's, and the attention score and context chains that mirror the
// tape's q @ k^T and p @ v) is one fused multiply-add per product from +0;
// every other chain is separate IEEE operations. So the loops vectorize
// ACROSS output elements (GEMM tiles, GELU lanes, attention score and
// context lanes) or, for a per-row reduction (LayerNorm's mean and
// variance, the softmax's max and sum), across ROWS: 8 rows transposed into
// the 8 lanes, each lane running its row's chain. Elementwise add, mul, div
// and sqrt are single IEEE operations, exact at any width, so the bias,
// positional, residual and pooling adds run 8 lanes wide too. None of it
// moves a bit. Because every per-row computation is independent of which
// batch it rides in, batched outputs are also bit-identical to batch-1
// outputs — the property the streaming runtime's determinism tests pin
// down. This holds for classify_logits() against
// SnapPixSystem::classify_logits_coded AND reconstruct() against
// SnapPixSystem::reconstruct_coded.
//
// Determinism contract (int8 tier): QuantizedVitEngine runs every linear as
// an int8 x int8 -> int32 GEMM (tensor/gemm_s8.h) over weights packed once,
// when the engine is built, with per-output-channel weight scales and
// calibrated per-tensor activation scales, dequantizing to fp32 at each
// layer boundary; LayerNorm/GELU/softmax/attention/residuals stay fp32.
// Integer accumulation is exact and every fp32 step has one order in every
// build (the scalar LayerNorm runs the AVX2 path's lane chains), so outputs
// are deterministic across runs, builds, thread counts, and batch
// compositions (batch == batch-1 bitwise) — but they are NOT bit-identical
// to the fp32 tier: quantization
// is a bounded approximation, measured by the accuracy-vs-throughput
// frontier bench (BENCH_int8.json).
//
// Thread-safety: classify_logits()/reconstruct() serialize on an internal
// mutex (one workspace). The intended topology is one engine per resident
// EngineCache entry; concurrency comes from one cache per consumer shard,
// not from sharing one engine. A forward runs on its caller's thread (the
// GEMM kernels never fan out; only the tape's matmul op does) and, once
// warm, allocates only the tensor it returns.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <vector>

#include "models/vit.h"
#include "runtime/precision.h"
#include "runtime/quant.h"
#include "tensor/gemm_s8.h"
#include "tensor/tensor.h"

namespace snappix::runtime {

// Absmax of every quantized-GEMM input activation, folded (max) over all
// frames pushed through collect_activation_ranges(). quant.h's calibrate()
// turns these into the QuantSpec scales.
struct ActivationRanges {
  struct BlockRanges {
    float qkv_in = 0.0F, proj_in = 0.0F, fc1_in = 0.0F, fc2_in = 0.0F;
    float gelu_in = 0.0F;  // fc1 output BEFORE the GELU (feeds the int8 LUT)
  };
  float embed_in = 0.0F;
  std::vector<BlockRanges> blocks;
  float head_in = 0.0F;
  float rec_in = 0.0F;
};

// The serving engine the EngineCache hands out: one fused forward per task
// head, tagged with the precision tier that produced it.
class VitEngine {
 public:
  virtual ~VitEngine() = default;

  // (B, H, W) exposure-normalized coded images -> (B, num_classes) logits.
  Tensor classify_logits(const Tensor& coded) const;
  std::vector<std::int64_t> classify(const Tensor& coded) const {
    return argmax_last_axis(classify_logits(coded));
  }
  // (B, H, W) exposure-normalized coded images -> (B, T, H, W) reconstructed
  // video.
  Tensor reconstruct(const Tensor& coded) const;

  Precision precision() const { return precision_; }
  const models::ViTConfig& config() const { return config_; }
  int frames() const { return frames_; }

 protected:
  // Snapshots the shared state. The reconstructor must share the
  // classifier's encoder (as SnapPixSystem guarantees) — one trunk snapshot
  // serves both heads. `max_batch` sizes the workspace (larger batches run
  // in max_batch-sized chunks, which does not change per-row results).
  VitEngine(const models::SnapPixClassifier& model,
            const models::SnapPixReconstructor& reconstructor, int max_batch,
            Precision precision);

  struct BlockNorms {
    std::vector<float> norm1_gamma, norm1_beta;
    std::vector<float> norm2_gamma, norm2_beta;
  };

  // Scratch both trunks use, sized for max_batch; reused across calls
  // (guarded by mutex_).
  struct Workspace {
    std::vector<float> patches;    // (B*N, p*p)
    std::vector<float> x;          // (B*N, D) residual stream
    std::vector<float> norm;       // (B*N, D); the final norm's rows feed both heads
    std::vector<float> qkv;        // (B*N, 3D)
    std::vector<float> ctx;        // (B*N, D)
    std::vector<float> proj;       // (B*N, D)
    std::vector<float> scores;     // (N, N) per (b, head)
    std::vector<float> kt;         // (head_dim, N) packed k^T per (b, head)
    std::vector<float> lane_tile;  // (max(D, N), 8): 8 rows transposed, one per lane
    std::vector<float> pooled;     // (B, D)
    std::vector<float> rec;        // (B*N, T*p*p), sized on the first reconstruct()
  };

  // Runs fn(chunk's first image, its index in the batch, images in the chunk)
  // per max_batch chunk of the shape-checked `coded`, under the workspace
  // lock.
  template <typename Fn>
  void for_each_chunk(const Tensor& coded, Fn&& fn) const {
    const std::int64_t batch = coded.shape()[0];
    const std::int64_t image = config_.image_h * config_.image_w;
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::int64_t begin = 0; begin < batch; begin += max_batch_) {
      const std::int64_t chunk = std::min<std::int64_t>(max_batch_, batch - begin);
      fn(coded.data().data() + begin * image, begin, chunk);
    }
  }
  // Throws unless `coded` is (B, image_h, image_w); returns B.
  std::int64_t checked_batch(const Tensor& coded) const;
  // ws_.pooled (batch, D) = the mean over tokens of ws_.norm's rows: a sum
  // in token order times 1/N.
  void pool_tokens(std::int64_t batch) const;

  models::ViTConfig config_;
  std::int64_t hidden_;  // MLP width
  int max_batch_;
  int frames_;  // REC head output frames
  std::vector<float> pos_embed_;  // (N, D)
  std::vector<BlockNorms> norms_;
  std::vector<float> norm_gamma_, norm_beta_;  // the final norm
  mutable Workspace ws_;

 private:
  // The tier's trunk: patchify -> embed -> blocks -> final norm, leaving the
  // normed token rows (batch*N, D) in ws_.norm.
  virtual void encode_chunk(const float* coded, std::int64_t batch) const = 0;
  // logits(batch, C) = the AR head over ws_.pooled.
  virtual void head_linear(std::int64_t batch, float* logits) const = 0;
  // out(rows, T*p*p) = the per-patch REC decoder over ws_.norm's rows.
  virtual void rec_linear(std::int64_t rows, float* out) const = 0;

  Precision precision_;
  mutable std::mutex mutex_;
};

class BatchedVitEngine : public VitEngine {
 public:
  // Snapshots the classifier's weights and the reconstructor's per-patch
  // decoder head.
  BatchedVitEngine(const models::SnapPixClassifier& model,
                   const models::SnapPixReconstructor& reconstructor, int max_batch = 64);

  // Calibration hook: runs the fp32 trunk (and the token pooling) over
  // `coded`, folding each quantized-GEMM input's absmax into `ranges` — max
  // over calls, so several representative batches can be streamed through.
  // Pure observation: serving results are unaffected.
  void collect_activation_ranges(const Tensor& coded, ActivationRanges& ranges) const;

 private:
  struct BlockWeights {
    std::vector<float> qkv_w, qkv_b;    // (D, 3D), (3D)
    std::vector<float> proj_w, proj_b;  // (D, D), (D)
    std::vector<float> fc1_w, fc1_b;    // (D, hidden), (hidden)
    std::vector<float> fc2_w, fc2_b;    // (hidden, D), (D)
  };

  void encode_chunk(const float* coded, std::int64_t batch) const override;
  void head_linear(std::int64_t batch, float* logits) const override;
  void rec_linear(std::int64_t rows, float* out) const override;
  // The trunk; a non-null `ranges` records activation absmax per stage
  // (calibration) without changing any output.
  void encode(const float* coded, std::int64_t batch, ActivationRanges* ranges) const;

  std::vector<float> embed_w, embed_b;  // (p*p, D), (D)
  std::vector<BlockWeights> blocks_;
  std::vector<float> head_w, head_b;  // (D, C), (C)
  std::vector<float> rec_w, rec_b;    // (D, T*p*p), (T*p*p)
  mutable std::vector<float> hidden_rows_;  // (B*N, hidden) MLP activations
};

// Int8 tier: snapshots the model ONCE as per-output-channel int8 weights
// (packed for gemm_s8_rows's pair and AMX tile kernels) and serves both
// heads with int8 GEMMs, int32 accumulation, and fp32 requantization at
// layer boundaries.
class QuantizedVitEngine : public VitEngine {
 public:
  // `spec` comes from quant.h's calibrate(); its block count must match the
  // model depth.
  QuantizedVitEngine(const models::SnapPixClassifier& model,
                     const models::SnapPixReconstructor& reconstructor, const QuantSpec& spec,
                     int max_batch = 64);

 private:
  // One quantized linear: per-output-channel int8 weights, packed once into
  // the int8 kernel's panels (tensor/gemm_s8.h), the fused dequantization
  // scale per channel (act_scale * weight_scale[j]), and the fp32 bias.
  struct QuantLinear {
    detail::PackedS8Weights w;  // (n, k) in 16-channel panels (tensor/gemm_s8.h)
    std::vector<float> deq;     // (n)
    std::vector<float> bias;    // (n)
    float act_scale = 1.0F;
  };

  struct BlockWeights {
    QuantLinear qkv, proj, fc1, fc2;
    // 256-entry int8 -> int8 GELU table (indexed by the fc1 output
    // requantized onto the gelu_in grid; yields values on the fc2_in grid).
    std::vector<std::int8_t> gelu_lut;
    float gelu_inv_scale = 1.0F;  // 1 / gelu_in scale
  };

  static QuantLinear make_quant_linear(const std::vector<float>& w,
                                       const std::vector<float>& bias, float act_scale,
                                       std::int64_t k, std::int64_t n);
  void encode_chunk(const float* coded, std::int64_t batch) const override;
  void head_linear(std::int64_t batch, float* logits) const override;
  void rec_linear(std::int64_t rows, float* out) const override;
  // out(rows, n) = dequant(gemm_s8(quantize(in), wq)) + bias.
  void linear_s8(const float* in, const QuantLinear& lin, float* out, std::int64_t rows) const;
  // The fused MLP sublayer: fc1 -> GELU LUT -> fc2, reading the normed rows
  // and writing the fc2 output (fp32) to `out`. The hidden activations never
  // leave the int8 domain — see the LUT note in quant.h.
  void mlp_s8(const float* in, const BlockWeights& blk, float* out, std::int64_t rows) const;

  QuantLinear embed_;
  std::vector<BlockWeights> blocks_;
  QuantLinear head_;
  QuantLinear rec_;
  // GEMM scratch (guarded by the shell's lock): the quantized input, its
  // rows widened to k-pairs for gemm_s8_rows, and the int32 output. `acc`
  // grows to the REC head's width on the first reconstruct().
  mutable std::vector<std::int8_t> qin_;
  mutable std::vector<std::int16_t> a16_;
  mutable std::vector<std::int32_t> acc_;
};

}  // namespace snappix::runtime

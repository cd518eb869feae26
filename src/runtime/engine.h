// Fused, allocation-free serving engines for the CE-optimized ViT, covering
// both task heads (AR classification and REC reconstruction) at two
// precision tiers behind one interface (VitEngine):
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
// with zero steady-state allocations. Both heads share the encoder trunk
// (patchify -> embed -> blocks -> final norm); classification pools the
// normed tokens through the linear AR head, reconstruction pushes them
// through the per-patch decoder and scatters tiles back into (B, T, H, W)
// video — the layout inverse of nn::unpatchify_video, pure data movement.
//
// Bit-exactness contract (fp32 tier): BatchedVitEngine reproduces the
// framework forward *bit-identically* (not just approximately). It calls the
// kernels the tape ops call — the GEMM under matmul (tensor/gemm.h), the GELU
// under gelu (tensor/gelu.h) and the exp under softmax (tensor/exp.h) — and
// replicates every other elementwise formula and accumulation order of the
// tape ops (LayerNorm's sum-times-reciprocal mean, max-subtracted softmax
// with a sequential sum, scale-after-matmul attention). The only libm
// function left in the fp32 engine is sqrt, which IEEE rounds correctly, so
// its bits are the same on every host. The invariant that permits SIMD: each
// output element keeps its own ascending-order chain of separate mul and add
// (no FMA, no reassociation). So the loops vectorize ACROSS output elements
// (GEMM tiles, GELU lanes, attention score and context lanes) or, for a
// per-row reduction (LayerNorm's mean and variance, the softmax's max and
// sum), across ROWS: 8 rows transposed into the 8 lanes, each lane running
// its row's chain. Elementwise add, mul, div and sqrt are single IEEE
// operations, exact at any width, so the bias, positional, residual and
// pooling adds run 8 lanes wide too. None of it moves a bit. Because every
// per-row computation is independent of which batch it rides in, batched
// outputs are also bit-identical to batch-1 outputs — the property the
// streaming runtime's determinism tests pin down. This holds for
// classify_logits() against SnapPixSystem::classify_logits_coded AND
// reconstruct() against SnapPixSystem::reconstruct_coded.
//
// Determinism contract (int8 tier): QuantizedVitEngine runs every linear as
// an int8 x int8 -> int32 GEMM (tensor/gemm_s8.h) over weights packed once,
// when the engine is built, with per-output-channel weight scales and
// calibrated per-tensor activation scales, dequantizing to fp32 at each
// layer boundary; LayerNorm/GELU/softmax/attention/residuals stay fp32.
// Integer accumulation is exact, so outputs are deterministic
// across runs, thread counts, and batch compositions (batch == batch-1
// bitwise) — but they are NOT bit-identical to the fp32 tier: quantization
// is a bounded approximation, measured by the accuracy-vs-throughput
// frontier bench (BENCH_int8.json).
//
// Thread-safety: classify_logits()/reconstruct() serialize on an internal
// mutex (one workspace). The intended topology is one engine per resident
// EngineCache entry; concurrency comes from sharding the cache, not from
// sharing one engine. A forward runs on its caller's thread (the GEMM
// kernels never fan out; only the tape's matmul op does) and, once warm,
// allocates only the tensor it returns.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "models/vit.h"
#include "runtime/precision.h"
#include "runtime/quant.h"
#include "tensor/gemm_s8.h"
#include "tensor/tensor.h"

namespace snappix::runtime {

// The serving-engine interface the EngineCache hands out: one fused forward
// per task head, tagged with the precision tier that produced it.
class VitEngine {
 public:
  virtual ~VitEngine() = default;

  // (B, H, W) exposure-normalized coded images -> (B, num_classes) logits.
  virtual Tensor classify_logits(const Tensor& coded) const = 0;
  std::vector<std::int64_t> classify(const Tensor& coded) const {
    return argmax_last_axis(classify_logits(coded));
  }

  // (B, H, W) exposure-normalized coded images -> (B, T, H, W) reconstructed
  // video. Requires an engine built with the reconstruction head.
  virtual Tensor reconstruct(const Tensor& coded) const = 0;
  virtual bool has_rec_head() const = 0;

  virtual Precision precision() const = 0;
  virtual const models::ViTConfig& config() const = 0;
};

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

class BatchedVitEngine : public VitEngine {
 public:
  // Snapshots the classifier's current weights; `max_batch` sizes the
  // workspace (larger batches are processed in max_batch-sized chunks, which
  // does not change per-row results). Engines built this way serve
  // classification only.
  explicit BatchedVitEngine(const models::SnapPixClassifier& model, int max_batch = 64);

  // Additionally snapshots the reconstructor's per-patch decoder head so
  // reconstruct() serves through the same fused trunk. The reconstructor must
  // share the classifier's encoder (as SnapPixSystem guarantees) — otherwise
  // one trunk snapshot could not be bit-exact for both heads.
  BatchedVitEngine(const models::SnapPixClassifier& model,
                   const models::SnapPixReconstructor& reconstructor, int max_batch = 64);

  Tensor classify_logits(const Tensor& coded) const override;
  Tensor reconstruct(const Tensor& coded) const override;
  bool has_rec_head() const override { return frames_ > 0; }
  int frames() const { return frames_; }
  Precision precision() const override { return Precision::kFp32; }

  // Calibration hook: runs the fp32 trunk (and the classify pooling) over
  // `coded`, folding each quantized-GEMM input's absmax into `ranges` — max
  // over calls, so several representative batches can be streamed through.
  // Pure observation: serving results are unaffected.
  void collect_activation_ranges(const Tensor& coded, ActivationRanges& ranges) const;

  const models::ViTConfig& config() const override { return config_; }
  int max_batch() const { return max_batch_; }

 private:
  struct BlockWeights {
    std::vector<float> norm1_gamma, norm1_beta;
    std::vector<float> qkv_w, qkv_b;      // (D, 3D), (3D)
    std::vector<float> proj_w, proj_b;    // (D, D), (D)
    std::vector<float> norm2_gamma, norm2_beta;
    std::vector<float> fc1_w, fc1_b;      // (D, hidden), (hidden)
    std::vector<float> fc2_w, fc2_b;      // (hidden, D), (D)
  };

  // Scratch sized for max_batch; reused across calls (guarded by mutex_).
  struct Workspace {
    std::vector<float> patches;  // (B*N, p*p)
    std::vector<float> x;        // (B*N, D) residual stream
    std::vector<float> norm;     // (B*N, D)
    std::vector<float> qkv;      // (B*N, 3D)
    std::vector<float> ctx;      // (B*N, D)
    std::vector<float> proj;     // (B*N, D)
    std::vector<float> hidden;   // (B*N, hidden)
    std::vector<float> scores;   // (N, N) per (b, head)
    std::vector<float> kt;       // (head_dim, N) packed k^T per (b, head)
    std::vector<float> pooled;   // (B, D)
    std::vector<float> rec;      // (B*N, T*p*p), only with a REC head
    std::vector<float> lane_tile;  // (max(D, N), 8): 8 rows transposed, one per lane
  };

  // Shared trunk: patchify -> embed -> blocks -> final norm. Leaves the
  // normed token rows (batch*N, D) in ws_.norm. A non-null `ranges` records
  // activation absmax per stage (calibration) without changing any output.
  void encode_chunk(const float* coded, std::int64_t batch,
                    ActivationRanges* ranges = nullptr) const;
  // Task heads, both reading ws_.norm.
  void classify_chunk(std::int64_t batch, float* logits) const;
  void reconstruct_chunk(std::int64_t batch, float* video) const;  // (batch, T, H, W)
  void check_coded_shape(const Tensor& coded) const;

  models::ViTConfig config_;
  std::int64_t hidden_;
  int max_batch_;
  int frames_ = 0;  // REC head output frames; 0 = classification-only engine

  std::vector<float> embed_w, embed_b;  // (p*p, D), (D)
  std::vector<float> pos_embed;         // (N, D)
  std::vector<BlockWeights> blocks_;
  std::vector<float> norm_gamma, norm_beta;
  std::vector<float> head_w, head_b;  // (D, C), (C)
  std::vector<float> rec_w, rec_b;    // (D, T*p*p), (T*p*p)

  mutable std::mutex mutex_;
  mutable Workspace ws_;
};

// Int8 tier: snapshots the model ONCE as per-output-channel int8 weights
// (packed for gemm_s8_rows's pair and AMX tile kernels) and serves both
// heads with int8 GEMMs, int32 accumulation, and fp32 requantization at
// layer boundaries.
// Same workspace discipline as the fp32 engine: zero steady-state
// allocations, one mutex, chunked batches.
class QuantizedVitEngine : public VitEngine {
 public:
  // `spec` comes from quant.h's calibrate(); its block count must match the
  // model depth. Classification-only form.
  QuantizedVitEngine(const models::SnapPixClassifier& model, const QuantSpec& spec,
                     int max_batch = 64);
  // With the per-patch REC decoder head (reconstructor must share the
  // classifier's encoder, as for the fp32 engine).
  QuantizedVitEngine(const models::SnapPixClassifier& model,
                     const models::SnapPixReconstructor& reconstructor, const QuantSpec& spec,
                     int max_batch = 64);

  Tensor classify_logits(const Tensor& coded) const override;
  Tensor reconstruct(const Tensor& coded) const override;
  bool has_rec_head() const override { return frames_ > 0; }
  int frames() const { return frames_; }
  Precision precision() const override { return Precision::kInt8; }

  const models::ViTConfig& config() const override { return config_; }
  int max_batch() const { return max_batch_; }
  const QuantSpec& spec() const { return spec_; }

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
    std::vector<float> norm1_gamma, norm1_beta;
    std::vector<float> norm2_gamma, norm2_beta;
    QuantLinear qkv, proj, fc1, fc2;
    // 256-entry int8 -> int8 GELU table (indexed by the fc1 output
    // requantized onto the gelu_in grid; yields values on the fc2_in grid).
    std::vector<std::int8_t> gelu_lut;
    float gelu_inv_scale = 1.0F;  // 1 / gelu_in scale
  };

  struct Workspace {
    std::vector<float> patches;      // (B*N, p*p)
    std::vector<float> x;            // (B*N, D)
    std::vector<float> norm;         // (B*N, D)
    std::vector<float> qkv;          // (B*N, 3D)
    std::vector<float> ctx;          // (B*N, D)
    std::vector<float> proj;         // (B*N, D)
    std::vector<float> scores;       // (N, N) per (b, head)
    std::vector<float> kt;           // (head_dim, N) packed k^T per (b, head)
    std::vector<float> lane_tile;    // (N, 8): 8 score rows transposed, one per lane
    std::vector<float> pooled;       // (B, D)
    std::vector<float> rec;          // (B*N, T*p*p), only with a REC head
    std::vector<std::int8_t> qin;    // quantized GEMM input, max row width
    std::vector<std::int16_t> a16;   // gemm_s8_rows scratch: qin rows widened to k-pairs
    std::vector<std::int32_t> acc;   // int32 GEMM output, max row width
  };

  static QuantLinear make_quant_linear(const std::vector<float>& w,
                                       const std::vector<float>& bias, float act_scale,
                                       std::int64_t k, std::int64_t n);
  // out(rows, n) = dequant(gemm_s8(quantize(in), wq)) + bias.
  void linear_s8(const float* in, const QuantLinear& lin, float* out, std::int64_t rows) const;
  // The fused MLP sublayer: fc1 -> GELU LUT -> fc2, reading the normed rows
  // and writing the fc2 output (fp32) to `out`. The hidden activations never
  // leave the int8 domain — see the LUT note in quant.h.
  void mlp_s8(const float* in, const BlockWeights& blk, float* out, std::int64_t rows) const;
  void encode_chunk(const float* coded, std::int64_t batch) const;
  void classify_chunk(std::int64_t batch, float* logits) const;
  void reconstruct_chunk(std::int64_t batch, float* video) const;
  void check_coded_shape(const Tensor& coded) const;

  models::ViTConfig config_;
  std::int64_t hidden_;
  int max_batch_;
  int frames_ = 0;
  QuantSpec spec_;

  QuantLinear embed_;
  std::vector<float> pos_embed;  // (N, D), fp32
  std::vector<BlockWeights> blocks_;
  std::vector<float> norm_gamma, norm_beta;
  QuantLinear head_;
  QuantLinear rec_;

  mutable std::mutex mutex_;
  mutable Workspace ws_;
};

}  // namespace snappix::runtime

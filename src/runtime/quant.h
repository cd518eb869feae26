// Post-training quantization for the serving tier: calibration produces a
// QuantSpec, the recipe a QuantizedVitEngine (engine.h) needs to serve a
// model at int8.
//
// Scheme (standard symmetric post-training quantization):
//   weights      per-OUTPUT-CHANNEL symmetric int8, scales baked at engine
//                construction from the fp32 weights themselves
//   activations  per-TENSOR symmetric int8, scales calibrated offline by
//                running representative coded frames through the *fp32*
//                engine and recording each quantized-GEMM input's absmax
//                (BatchedVitEngine::collect_activation_ranges)
//   GEMMs        int8 x int8 -> int32 (tensor/gemm_s8.h), exact accumulation
//   boundaries   dequantize to fp32 after every GEMM; LayerNorm, softmax,
//                attention, residual adds and pooling stay fp32
//   GELU         a 256-entry int8 -> int8 lookup table per block (I-BERT
//                style): fc1's int32 output requantizes onto the calibrated
//                gelu_in grid, the table folds dequant + GELU + fc2-in
//                requant into one lookup — the GELU never runs at serve time
//
// Determinism: calibrate() is a pure function of its inputs (single pass,
// fixed iteration order, no threads mutate the ranges), and
// make_calibration_frames() is a pure function of (pattern, geometry, seed).
// So an evicted-and-rebuilt int8 cache entry recalibrates to the SAME spec
// and serves bit-identical int8 results — the quantized tier keeps the
// cache's evict/refetch invariant even though it is not bit-equal to fp32.
#pragma once

#include <cstdint>
#include <vector>

#include "ce/pattern.h"
#include "models/vit.h"
#include "tensor/tensor.h"

namespace snappix::runtime {

// Per-tensor activation scales for one transformer block's quantized GEMMs,
// in forward order. Each scale maps fp32 activations onto the [-127, 127]
// int8 grid (value = q * scale).
struct QuantBlockScales {
  float qkv_in = 1.0F;   // norm1 output -> fused QKV projection
  float proj_in = 1.0F;  // attention context -> output projection
  float fc1_in = 1.0F;   // norm2 output -> MLP expand
  float gelu_in = 1.0F;  // fc1 output (pre-GELU) -> the int8 GELU lookup table
  float fc2_in = 1.0F;   // GELU output -> MLP contract
};

// Everything activation-side a QuantizedVitEngine needs. Weight scales are
// not stored here: they derive deterministically from the weights at engine
// construction (per-output-channel absmax / 127).
struct QuantSpec {
  float embed_in = 1.0F;  // patchified pixels -> patch embedding
  std::vector<QuantBlockScales> blocks;
  float head_in = 1.0F;  // pooled tokens -> AR classification head
  float rec_in = 1.0F;   // final-norm token rows -> per-patch REC decoder
  std::int64_t calibration_frames = 0;  // how many frames produced the spec
};

// Runs `coded` — (B, H, W) exposure-normalized coded frames — through the
// fp32 fused engine built from the given heads and converts the observed
// per-tensor absmax ranges into symmetric scales. The reconstructor must
// share the classifier's encoder (the SnapPixSystem invariant). Throws
// std::invalid_argument when `coded` is empty or mis-shaped.
QuantSpec calibrate(const models::SnapPixClassifier& classifier,
                    const models::SnapPixReconstructor& reconstructor, const Tensor& coded);

// Server-side calibration policy: how the EngineCache factory synthesizes
// representative frames when an int8 engine is built for a pattern.
struct QuantCalibration {
  int frames = 32;             // calibration frames per pattern
  std::uint64_t seed = 9001;   // scene seed; same seed -> same spec, always
};

// Renders `config.frames` deterministic synthetic clips, CE-encodes them
// with `pattern`, and exposure-normalizes — the same edge-side path camera
// frames take — returning (frames, image_h, image_w). Pure function of its
// arguments, so cache rebuilds recalibrate identically.
Tensor make_calibration_frames(const ce::CePattern& pattern, std::int64_t image_h,
                               std::int64_t image_w, const QuantCalibration& config);

}  // namespace snappix::runtime

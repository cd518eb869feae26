// Int8 GEMM kernels + symmetric quantization helpers for the quantized
// serving engine (runtime/engine.cpp).
//
// Unlike the float kernels in gemm.h — whose accumulation ORDER is part of
// the bit-exactness contract — int8 x int8 products accumulate into int32
// exactly (no rounding), so the AVX2 path, the scalar fallback, and any
// row partition produce identical results by construction. The contract
// here is exactness against the naive reference (gemm_s8_nt_ref), which the
// quantization tests pin down.
//
// Weights are quantized PRE-TRANSPOSED: b is (n, k) row-major, one output
// channel per row (quantize_weights_per_channel), and then packed once, when
// an engine is built (pack_s8_weights), into 16-channel panels in two
// layouts:
// - int16 k-pairs for the pair kernel, an outer product: a broadcast
//   activation pair (the int8 activations widened per call) times a panel's
//   8-channel vector per vpmaddwd, so it never sums horizontally;
// - where the host grants AMX-INT8 and k % 4 == 0, int8 4-byte k-groups, the
//   B-tile layout of the tile kernel (tdpbssd), which reads the int8
//   activations as they are.
// gemm_s8_rows, the entry the engines call, runs the tile kernel on every
// whole 16-row block it can and the pair kernel on the rest. The layouts
// only reorder and zero-pad exact integer operands, so neither the layout
// nor the kernel can change a result.
#pragma once

#include <cstdint>
#include <vector>

namespace snappix::detail {

// Largest reduction depth the int32 accumulator provably holds: every
// partial sum is bounded by k * 128 * 128 (int8 magnitudes are <= 128), so
// k <= 2^31 / 2^14 keeps the scalar accumulation inside int32 — beyond it a
// dot product could overflow, which for the SIGNED scalar accumulator is
// undefined behavior (the AVX2 lanes would silently wrap to a different
// answer). pack_s8_weights (so gemm_s8_nt) and gemm_s8_nt_ref reject larger
// k up front; pinned by GemmS8.RejectsAccumulatorOverflowDepth in
// tests/test_quant.cpp.
constexpr std::int64_t kGemmS8MaxK = (std::int64_t{1} << 31) / (128 * 128) - 1;

// Channels per packed weight panel: one 4-row x 16-channel tile of the
// kernel, two 8-lane vectors.
constexpr std::int64_t kS8PanelWidth = 16;

// k values travel in pairs (one vpmaddwd lane each); odd k pads one zero.
constexpr std::int64_t s8_pair_count(std::int64_t k) { return (k + 1) / 2; }

// b (n, k) packed for both kernels, zero where 16 p + ch >= n:
// - panels[((p * pairs + q) * 16 + ch) * 2 + e] = b[16 p + ch, 2 q + e]
//   (zero where 2 q + e >= k);
// - tiles[((p * k / 4 + g) * 16 + ch) * 4 + e] = b[16 p + ch, 4 g + e]: row g
//   of panel p's B tiles. Empty unless gemm_s8_amx_enabled() held at pack
//   time and k % 4 == 0.
struct PackedS8Weights {
  std::vector<std::int16_t> panels;
  std::vector<std::int8_t> tiles;
  std::int64_t k = 0, n = 0;
};

// Packs (n, k) int8 weights once, when an engine is built. Requires
// k <= kGemmS8MaxK (throws std::runtime_error beyond it).
PackedS8Weights pack_s8_weights(const std::int8_t* b, std::int64_t k, std::int64_t n);

// True when the tile kernel may run: the build has AVX2 on x86-64 Linux, the
// CPU reports AMX-TILE and AMX-INT8, XCR0 enables tile state, and the kernel
// granted this process tile data (arch_prctl ARCH_REQ_XCOMP_PERM) — probed
// once per process — and no ScopedS8PairKernel is alive.
bool gemm_s8_amx_enabled();

// Test hook: while alive, pack_s8_weights builds no tiles and gemm_s8_rows
// runs the pair kernel on every row, so one AMX host can pin the two
// kernels to each other. Create it only while no int8 GEMM runs.
class ScopedS8PairKernel {
 public:
  ScopedS8PairKernel();
  ~ScopedS8PairKernel();
  ScopedS8PairKernel(const ScopedS8PairKernel&) = delete;
  ScopedS8PairKernel& operator=(const ScopedS8PairKernel&) = delete;

 private:
  bool previous_;
};

// c(m, n) = a(m, k) @ b(n, k)^T from int8 activations (row-major, row
// stride k) and packed weights, with int32 accumulation — what the engines
// call. When b carries tiles and gemm_s8_amx_enabled(), the tile kernel runs
// every whole 16-row block; the remaining rows (all of them otherwise) are
// widened into `scratch` (m * 2 * s8_pair_count(k) int16 k-pairs, an odd
// k's last pair padded with zero) for the pair kernel: AVX2 4x16 vpmaddwd
// tiles when compiled in, scalar over the same layout otherwise. Exact, so
// bit-identical on every path. `c` is fully overwritten; runs on the
// calling thread.
void gemm_s8_rows(const std::int8_t* a, const PackedS8Weights& b, std::int32_t* c,
                  std::int64_t m, std::int16_t* scratch);

// c(m, n) = a(m, k) @ b(n, k)^T from unpacked operands: packs b into
// per-call scratch, then runs gemm_s8_rows.
// Requires k <= kGemmS8MaxK (throws std::runtime_error beyond it).
void gemm_s8_nt(const std::int8_t* a, const std::int8_t* b, std::int32_t* c,
                std::int64_t m, std::int64_t k, std::int64_t n);

// Naive triple-loop reference, always scalar; the exactness oracle for tests.
void gemm_s8_nt_ref(const std::int8_t* a, const std::int8_t* b, std::int32_t* c,
                    std::int64_t m, std::int64_t k, std::int64_t n);

// True when the pair kernel runs the AVX2 path (build had -mavx2).
bool gemm_s8_simd_enabled();

// max(|x[i]|) over n values; 0 for an empty range.
float absmax(const float* x, std::int64_t n);

// Symmetric scale for the int8 grid [-127, 127]: absmax / 127, or 1 when the
// tensor is all zero (any scale quantizes zero to zero).
float symmetric_scale(float absmax_value);

// q[i] = clamp(nearbyint(x[i] / scale), -127, 127). Round-to-nearest-even
// (the default FP environment), deterministic across runs and hosts. AVX2
// (clamp in fp32, then vcvtps2dq's nearest-even rounding + saturating packs)
// when compiled in, scalar otherwise — bit-identical either way, pinned by
// quantize_symmetric_ref in the tests.
void quantize_symmetric(const float* x, std::int64_t n, float scale, std::int8_t* q);

// Always-scalar reference for quantize_symmetric; the exactness oracle.
void quantize_symmetric_ref(const float* x, std::int64_t n, float scale, std::int8_t* q);

// Per-channel requantization of int32 GEMM output straight onto an int8
// grid: q[r, j] = clamp(nearbyint((acc[r, j] * deq[j] + bias[j]) * inv_scale))
// — the fused dequantize + rescale the quantized engine uses between
// back-to-back int8 GEMMs (fc1 -> GELU LUT -> fc2). Same AVX2
// clamp-before-round pack pipeline as quantize_symmetric, bit-identical to
// the scalar reference.
void requantize_rows(const std::int32_t* acc, const float* deq, const float* bias,
                     float inv_scale, std::int8_t* q, std::int64_t rows, std::int64_t n);

// Always-scalar reference for requantize_rows; the exactness oracle.
void requantize_rows_ref(const std::int32_t* acc, const float* deq, const float* bias,
                         float inv_scale, std::int8_t* q, std::int64_t rows, std::int64_t n);

// Per-output-channel symmetric weight quantization with layout transpose:
// w is (k, n) with one output channel per COLUMN (the layout Linear weights
// use); wq is (n, k) with channel j's weights contiguous in row j, quantized
// with its own scale scales[j] = absmax(w[:, j]) / 127.
void quantize_weights_per_channel(const float* w, std::int64_t k, std::int64_t n,
                                  std::int8_t* wq, float* scales);

}  // namespace snappix::detail

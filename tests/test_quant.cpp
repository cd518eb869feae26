// Quantized serving tier tests: per-channel quantize/dequantize round-trip
// bounds, int8 GEMM exactness against the scalar reference, calibration
// determinism, the QuantizedVitEngine's determinism/batch-invariance
// contracts, the heap allocations of a warm forward at both precision tiers
// (through alloc_counter.h's counting operator new), precision-keyed
// caching, config validation, and a mixed fp32/int8 heterogeneous fleet
// through the sharded InferenceServer.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "alloc_counter.h"
#include "core/snappix.h"
#include "runtime/camera.h"
#include "runtime/engine.h"
#include "runtime/engine_cache.h"
#include "runtime/quant.h"
#include "runtime/server.h"
#include "serving_fixtures.h"
#include "tensor/gemm_s8.h"
#include "util/rng.h"

namespace snappix {
namespace {

using fixtures::small_scene;
using fixtures::small_system_config;
using runtime::EngineCache;
using runtime::EngineCacheConfig;
using runtime::InferenceServer;
using runtime::PatternRef;
using runtime::Precision;
using runtime::QuantCalibration;
using runtime::QuantizedVitEngine;
using runtime::QuantSpec;
using runtime::ServerConfig;
using runtime::Task;
using runtime::TaskResult;

bool specs_identical(const QuantSpec& a, const QuantSpec& b) {
  if (a.embed_in != b.embed_in || a.head_in != b.head_in || a.rec_in != b.rec_in ||
      a.blocks.size() != b.blocks.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    if (a.blocks[i].qkv_in != b.blocks[i].qkv_in ||
        a.blocks[i].proj_in != b.blocks[i].proj_in ||
        a.blocks[i].fc1_in != b.blocks[i].fc1_in ||
        a.blocks[i].gelu_in != b.blocks[i].gelu_in ||
        a.blocks[i].fc2_in != b.blocks[i].fc2_in) {
      return false;
    }
  }
  return true;
}

// --- quantization helpers ----------------------------------------------------

TEST(QuantizeSymmetric, RoundTripErrorBoundedByHalfStep) {
  Rng rng(11);
  const Tensor x = Tensor::randn(Shape{512}, rng, 2.0F);
  const float amax = detail::absmax(x.data().data(), 512);
  const float scale = detail::symmetric_scale(amax);
  std::vector<std::int8_t> q(512);
  detail::quantize_symmetric(x.data().data(), 512, scale, q.data());
  for (int i = 0; i < 512; ++i) {
    const float back = static_cast<float>(q[i]) * scale;
    // In-range values round to the nearest grid point: error <= scale/2.
    EXPECT_LE(std::fabs(back - x.data()[static_cast<std::size_t>(i)]),
              scale * 0.5F + 1e-6F)
        << "element " << i;
    EXPECT_GE(q[i], -127);
    EXPECT_LE(q[i], 127);
  }
}

TEST(QuantizeSymmetric, MatchesScalarReferenceIncludingClampAndTails) {
  Rng rng(13);
  // Odd length exercises the AVX2 tail; the huge values exercise the clamp
  // (including the positive-overflow path the fp pre-clamp guards).
  for (const std::int64_t n : {1, 7, 31, 32, 33, 100, 257}) {
    std::vector<float> x(static_cast<std::size_t>(n));
    for (auto& v : x) {
      v = (rng.uniform() - 0.5F) * 1000.0F;
    }
    x[0] = 1e30F;
    if (n > 2) {
      x[1] = -1e30F;
      x[2] = 0.0F;
    }
    std::vector<std::int8_t> fast(static_cast<std::size_t>(n)),
        ref(static_cast<std::size_t>(n));
    detail::quantize_symmetric(x.data(), n, 0.37F, fast.data());
    detail::quantize_symmetric_ref(x.data(), n, 0.37F, ref.data());
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(fast[static_cast<std::size_t>(i)], ref[static_cast<std::size_t>(i)])
          << "n=" << n << " i=" << i << " x=" << x[static_cast<std::size_t>(i)];
    }
  }
}

TEST(RequantizeRows, MatchesScalarReferenceIncludingClampAndTails) {
  Rng rng(15);
  for (const auto& [rows, n] : std::vector<std::array<std::int64_t, 2>>{
           {1, 1}, {2, 31}, {3, 32}, {4, 33}, {2, 100}}) {
    std::vector<std::int32_t> acc(static_cast<std::size_t>(rows * n));
    std::vector<float> deq(static_cast<std::size_t>(n)), bias(static_cast<std::size_t>(n));
    for (auto& v : acc) {
      v = static_cast<std::int32_t>((rng.uniform() - 0.5F) * 2e6F);
    }
    for (auto& v : deq) {
      v = rng.uniform(1e-4F, 1e-2F);
    }
    for (auto& v : bias) {
      v = rng.uniform(-1.0F, 1.0F);
    }
    acc[0] = 2000000000;  // clamp path, both signs
    if (acc.size() > 1) {
      acc[1] = -2000000000;
    }
    std::vector<std::int8_t> fast(acc.size()), ref(acc.size());
    detail::requantize_rows(acc.data(), deq.data(), bias.data(), 3.7F, fast.data(), rows, n);
    detail::requantize_rows_ref(acc.data(), deq.data(), bias.data(), 3.7F, ref.data(), rows,
                                n);
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_EQ(fast[i], ref[i]) << "rows=" << rows << " n=" << n << " i=" << i;
    }
  }
}

TEST(QuantizeWeights, PerChannelScalesAndTransposedLayout) {
  Rng rng(17);
  const std::int64_t k = 5, n = 3;
  const Tensor w = Tensor::randn(Shape{k, n}, rng);
  std::vector<std::int8_t> wq(static_cast<std::size_t>(n * k));
  std::vector<float> scales(static_cast<std::size_t>(n));
  detail::quantize_weights_per_channel(w.data().data(), k, n, wq.data(), scales.data());
  for (std::int64_t j = 0; j < n; ++j) {
    float amax = 0.0F;
    for (std::int64_t l = 0; l < k; ++l) {
      amax = std::max(amax, std::fabs(w.data()[static_cast<std::size_t>(l * n + j)]));
    }
    EXPECT_FLOAT_EQ(scales[static_cast<std::size_t>(j)], amax / 127.0F);
    for (std::int64_t l = 0; l < k; ++l) {
      const float back = static_cast<float>(wq[static_cast<std::size_t>(j * k + l)]) *
                         scales[static_cast<std::size_t>(j)];
      EXPECT_LE(std::fabs(back - w.data()[static_cast<std::size_t>(l * n + j)]),
                scales[static_cast<std::size_t>(j)] * 0.5F + 1e-7F);
    }
  }
}

// --- int8 GEMM ---------------------------------------------------------------

// Operands over the whole int8 range, with a share of the extremes +-127 and
// -128 (the packed kernel widens to int16 pairs; -128 * -128 is the largest
// product).
std::vector<std::int8_t> s8_operand(std::int64_t count, Rng& rng) {
  constexpr std::array<std::int8_t, 3> kExtremes = {127, -127, -128};
  std::vector<std::int8_t> v(static_cast<std::size_t>(count));
  for (auto& x : v) {
    const bool extreme = rng.uniform() < 0.25F;
    const float u = rng.uniform();
    x = extreme ? kExtremes[static_cast<std::size_t>(u * 2.999F)]
                : static_cast<std::int8_t>(static_cast<int>(u * 255.999F) - 128);
  }
  return v;
}

void expect_s8_matches_reference(const std::vector<std::int8_t>& a,
                                 const std::vector<std::int8_t>& b, std::int64_t m,
                                 std::int64_t k, std::int64_t n) {
  std::vector<std::int32_t> c(static_cast<std::size_t>(m * n), -1),
      expected(static_cast<std::size_t>(m * n), -1);
  detail::gemm_s8_nt(a.data(), b.data(), c.data(), m, k, n);
  detail::gemm_s8_nt_ref(a.data(), b.data(), expected.data(), m, k, n);
  for (std::int64_t i = 0; i < m * n; ++i) {
    ASSERT_EQ(c[static_cast<std::size_t>(i)], expected[static_cast<std::size_t>(i)])
        << "m=" << m << " k=" << k << " n=" << n << " i=" << i;
  }
}

TEST(GemmS8, MatchesScalarReferenceExactly) {
  Rng rng(19);
  // Shapes straddle every tile boundary of the packed 4-row x 16-channel
  // kernel: m % 4 in {0..3}, n % 16 in {0, 1, 5, 8, 15}, odd and even k
  // (odd k pads the last int16 pair), k below one pair, single rows and
  // channels, and the engine's shapes.
  const std::vector<std::array<std::int64_t, 3>> shapes = {
      {1, 1, 1},     {2, 16, 4},    {3, 17, 5},   {8, 64, 48},  {33, 100, 7},
      {130, 192, 67}, {4, 1, 16},   {5, 3, 17},   {6, 97, 31},  {7, 48, 8},
      {128, 48, 144}, {128, 192, 48}, {9, 255, 32}, {11, 2, 15}};
  for (const auto& [m, k, n] : shapes) {
    expect_s8_matches_reference(s8_operand(m * k, rng), s8_operand(n * k, rng), m, k, n);
  }
}

TEST(GemmS8, ExtremeValuesAccumulateExactly) {
  // Saturated operands at a k large enough to overflow int16 partial sums if
  // the kernel were careless: (-127 * -127) * 512 = 8,258,048.
  const std::int64_t m = 2, k = 512, n = 3;
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * k), -127),
      b(static_cast<std::size_t>(n * k), -127);
  std::vector<std::int32_t> c(static_cast<std::size_t>(m * n));
  detail::gemm_s8_nt(a.data(), b.data(), c.data(), m, k, n);
  for (const std::int32_t v : c) {
    EXPECT_EQ(v, 127 * 127 * 512);
  }
}

TEST(GemmS8, RejectsAccumulatorOverflowDepth) {
  // Beyond kGemmS8MaxK a single dot product can exceed int32
  // (128 * 128 * k > 2^31 - 1), so both kernels must refuse up front rather
  // than return silently wrapped accumulators.
  const std::int64_t k_bad = detail::kGemmS8MaxK + 1;
  std::vector<std::int8_t> a(static_cast<std::size_t>(k_bad), 1),
      b(static_cast<std::size_t>(k_bad), 1);
  std::vector<std::int32_t> c(1);
  EXPECT_THROW(detail::gemm_s8_nt(a.data(), b.data(), c.data(), 1, k_bad, 1),
               std::runtime_error);
  EXPECT_THROW(detail::gemm_s8_nt_ref(a.data(), b.data(), c.data(), 1, k_bad, 1),
               std::runtime_error);
  EXPECT_THROW(detail::pack_s8_weights(b.data(), k_bad, 1), std::runtime_error);

  // The boundary itself is serviceable — and exact: a 1 x kMaxK dot product
  // of all-ones is just kMaxK.
  const std::int64_t k_ok = detail::kGemmS8MaxK;
  detail::gemm_s8_nt(a.data(), b.data(), c.data(), 1, k_ok, 1);
  EXPECT_EQ(c[0], static_cast<std::int32_t>(k_ok));

  // At the boundary depth (odd, so the last pair is padded) with m % 4 != 0
  // and n % 16 != 0: all -128 reaches the largest sum, 2^14 * kMaxK, one
  // step below INT32_MAX; mixed extremes must match the reference.
  const std::int64_t m = 5, n = 17;
  std::vector<std::int8_t> a_min(static_cast<std::size_t>(m * k_ok), -128),
      b_min(static_cast<std::size_t>(n * k_ok), -128);
  std::vector<std::int32_t> c_min(static_cast<std::size_t>(m * n));
  detail::gemm_s8_nt(a_min.data(), b_min.data(), c_min.data(), m, k_ok, n);
  for (const std::int32_t v : c_min) {
    EXPECT_EQ(v, static_cast<std::int32_t>(128 * 128 * k_ok));
  }
  Rng rng(43);
  expect_s8_matches_reference(s8_operand(m * k_ok, rng), s8_operand(n * k_ok, rng), m, k_ok,
                              n);
}

// The AMX tile kernel against the pair kernel and the reference, on one
// host: shapes straddle its 16-row blocks (m % 16 rows go to the pair
// kernel), its groups of 4 16-channel panels (n % 64, n % 16), its 64-byte
// k chunks and their tail (k % 64), and k % 4 != 0 (no tiles: pairs only).
TEST(GemmS8, TileKernelMatchesPairKernelAndReference) {
  if (!detail::gemm_s8_amx_enabled()) {
    GTEST_SKIP() << "host grants no AMX-INT8";
  }
  Rng rng(47);
  const std::vector<std::array<std::int64_t, 3>> shapes = {
      {16, 4, 1},    {16, 64, 16},  {32, 48, 144}, {37, 96, 48},   {48, 100, 17},
      {16, 128, 64}, {21, 192, 80}, {512, 48, 96}, {128, 48, 1024}, {19, 255, 33},
      {16, 6, 5},    {5, 48, 7}};
  for (const auto& [m, k, n] : shapes) {
    const std::vector<std::int8_t> a = s8_operand(m * k, rng);
    const std::vector<std::int8_t> b = s8_operand(n * k, rng);
    const detail::PackedS8Weights tiled = detail::pack_s8_weights(b.data(), k, n);
    EXPECT_EQ(tiled.tiles.empty(), k % 4 != 0) << "k=" << k;
    std::vector<std::int16_t> scratch(static_cast<std::size_t>(m * 2 * detail::s8_pair_count(k)));
    std::vector<std::int32_t> c_tiles(static_cast<std::size_t>(m * n), -1),
        c_pairs(static_cast<std::size_t>(m * n), -2), expected(static_cast<std::size_t>(m * n));
    detail::gemm_s8_rows(a.data(), tiled, c_tiles.data(), m, scratch.data());
    {
      const detail::ScopedS8PairKernel pin;
      EXPECT_FALSE(detail::gemm_s8_amx_enabled());
      detail::gemm_s8_rows(a.data(), tiled, c_pairs.data(), m, scratch.data());
    }
    detail::gemm_s8_nt_ref(a.data(), b.data(), expected.data(), m, k, n);
    for (std::int64_t i = 0; i < m * n; ++i) {
      const auto at = static_cast<std::size_t>(i);
      ASSERT_EQ(c_tiles[at], expected[at]) << "tiles m=" << m << " k=" << k << " n=" << n
                                           << " i=" << i;
      ASSERT_EQ(c_pairs[at], expected[at]) << "pairs m=" << m << " k=" << k << " n=" << n
                                           << " i=" << i;
    }
  }

  // The deepest k the tiles take (a multiple of 4 at most kGemmS8MaxK), all
  // -128: every sum is 2^14 * k, just below INT32_MAX.
  const std::int64_t m = 16, n = 17, k = detail::kGemmS8MaxK / 4 * 4;
  const std::vector<std::int8_t> a(static_cast<std::size_t>(m * k), -128),
      b(static_cast<std::size_t>(n * k), -128);
  std::vector<std::int32_t> c(static_cast<std::size_t>(m * n));
  detail::gemm_s8_nt(a.data(), b.data(), c.data(), m, k, n);
  for (const std::int32_t v : c) {
    ASSERT_EQ(v, static_cast<std::int32_t>(128 * 128 * k));
  }
}

// --- calibration -------------------------------------------------------------

TEST(Calibration, DeterministicForFixedInputAndSeed) {
  core::SnapPixSystem system(small_system_config());
  const Tensor frames = runtime::make_calibration_frames(system.pattern(), 16, 16, {});
  const QuantSpec spec_a =
      runtime::calibrate(*system.classifier(), *system.reconstructor(), frames);
  const Tensor frames_again = runtime::make_calibration_frames(system.pattern(), 16, 16, {});
  const QuantSpec spec_b =
      runtime::calibrate(*system.classifier(), *system.reconstructor(), frames_again);
  EXPECT_TRUE(specs_identical(spec_a, spec_b));
  EXPECT_EQ(spec_a.blocks.size(),
            static_cast<std::size_t>(system.classifier()->encoder()->config().depth));
  EXPECT_GT(spec_a.embed_in, 0.0F);
  EXPECT_GT(spec_a.rec_in, 0.0F);

  // A different seed sees different scenes, hence (generically) other scales.
  QuantCalibration other;
  other.seed = 777;
  const Tensor frames_other = runtime::make_calibration_frames(system.pattern(), 16, 16, other);
  const QuantSpec spec_c =
      runtime::calibrate(*system.classifier(), *system.reconstructor(), frames_other);
  EXPECT_FALSE(specs_identical(spec_a, spec_c));
}

TEST(Calibration, RejectsEmptyOrMisshapenInput) {
  core::SnapPixSystem system(small_system_config());
  Rng rng(23);
  EXPECT_THROW(runtime::calibrate(*system.classifier(), *system.reconstructor(),
                                  Tensor::rand_uniform(Shape{2, 8, 8}, rng)),
               std::invalid_argument);
  QuantCalibration zero;
  zero.frames = 0;
  EXPECT_THROW(runtime::make_calibration_frames(system.pattern(), 16, 16, zero),
               std::invalid_argument);
}

// --- QuantizedVitEngine ------------------------------------------------------

class QuantEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    system_ = std::make_unique<core::SnapPixSystem>(small_system_config());
    const Tensor frames =
        runtime::make_calibration_frames(system_->pattern(), 16, 16, {});
    spec_ = runtime::calibrate(*system_->classifier(), *system_->reconstructor(), frames);
    Rng rng(29);
    coded_ = Tensor::rand_uniform(Shape{6, 16, 16}, rng);
  }

  std::unique_ptr<core::SnapPixSystem> system_;
  QuantSpec spec_;
  Tensor coded_;
};

TEST_F(QuantEngineTest, BatchInvariantToTheBit) {
  QuantizedVitEngine engine(*system_->classifier(), *system_->reconstructor(), spec_, 8);
  const Tensor batched_logits = engine.classify_logits(coded_);
  const Tensor batched_video = engine.reconstruct(coded_);
  for (std::int64_t i = 0; i < coded_.shape()[0]; ++i) {
    const Tensor one = Tensor::from_vector(
        std::vector<float>(coded_.data().begin() + i * 256,
                           coded_.data().begin() + (i + 1) * 256),
        Shape{1, 16, 16});
    const Tensor single_logits = engine.classify_logits(one);
    for (std::int64_t c = 0; c < 4; ++c) {
      ASSERT_EQ(single_logits.data()[static_cast<std::size_t>(c)],
                batched_logits.data()[static_cast<std::size_t>(i * 4 + c)])
          << "frame " << i << " class " << c;
    }
    const Tensor single_video = engine.reconstruct(one);
    const std::int64_t elems = single_video.numel();
    for (std::int64_t v = 0; v < elems; ++v) {
      ASSERT_EQ(single_video.data()[static_cast<std::size_t>(v)],
                batched_video.data()[static_cast<std::size_t>(i * elems + v)])
          << "frame " << i << " voxel " << v;
    }
  }
}

TEST_F(QuantEngineTest, DeterministicAcrossSeparatelyBuiltEngines) {
  // Two engines from the same spec — the evict-and-rebuild scenario — must
  // serve bit-identical int8 results (and chunked != unchunked must not
  // matter either: max_batch 3 forces two chunks for the 6-frame batch).
  QuantizedVitEngine a(*system_->classifier(), *system_->reconstructor(), spec_, 8);
  QuantizedVitEngine b(*system_->classifier(), *system_->reconstructor(), spec_, 3);
  const Tensor la = a.classify_logits(coded_);
  const Tensor lb = b.classify_logits(coded_);
  for (std::size_t i = 0; i < la.data().size(); ++i) {
    ASSERT_EQ(la.data()[i], lb.data()[i]);
  }
  const Tensor va = a.reconstruct(coded_);
  const Tensor vb = b.reconstruct(coded_);
  for (std::size_t i = 0; i < va.data().size(); ++i) {
    ASSERT_EQ(va.data()[i], vb.data()[i]);
  }
}

TEST_F(QuantEngineTest, TileAndPairKernelsServeIdenticalBits) {
  // An engine packed while the pair kernel is pinned carries no AMX tiles,
  // so it serves through the pair kernel alone. Batch 6 is 24 token rows at
  // 16x16 (one 16-row tile block plus 8 pair rows), batch 8 is 32 (tiles
  // only), and batch 1 is 4 (pairs only).
  if (!detail::gemm_s8_amx_enabled()) {
    GTEST_SKIP() << "host grants no AMX-INT8";
  }
  const QuantizedVitEngine tiled(*system_->classifier(), *system_->reconstructor(), spec_, 8);
  const std::unique_ptr<QuantizedVitEngine> pairs = [&] {
    const detail::ScopedS8PairKernel pin;
    return std::make_unique<QuantizedVitEngine>(*system_->classifier(),
                                                *system_->reconstructor(), spec_, 8);
  }();
  Rng rng(31);
  for (const std::int64_t batch : {6, 8, 1}) {
    const Tensor coded = Tensor::rand_uniform(Shape{batch, 16, 16}, rng);
    const Tensor lt = tiled.classify_logits(coded);
    const Tensor lp = pairs->classify_logits(coded);
    ASSERT_EQ(lt.data(), lp.data()) << "logits, batch " << batch;
    const Tensor vt = tiled.reconstruct(coded);
    const Tensor vp = pairs->reconstruct(coded);
    ASSERT_EQ(vt.data(), vp.data()) << "video, batch " << batch;
  }
}

TEST_F(QuantEngineTest, TracksTheFp32EngineClosely) {
  runtime::BatchedVitEngine fp32(*system_->classifier(), *system_->reconstructor(), 8);
  QuantizedVitEngine int8(*system_->classifier(), *system_->reconstructor(), spec_, 8);
  // Calibration-distribution frames (the representative case, not the
  // uniform-noise one): quantization error must stay small relative to the
  // logit scale.
  QuantCalibration eval;
  eval.seed = 424242;
  eval.frames = 16;
  const Tensor eval_frames = runtime::make_calibration_frames(system_->pattern(), 16, 16, eval);
  const Tensor lf = fp32.classify_logits(eval_frames);
  const Tensor lq = int8.classify_logits(eval_frames);
  float max_abs_logit = 0.0F, max_err = 0.0F;
  for (std::size_t i = 0; i < lf.data().size(); ++i) {
    max_abs_logit = std::max(max_abs_logit, std::fabs(lf.data()[i]));
    max_err = std::max(max_err, std::fabs(lf.data()[i] - lq.data()[i]));
  }
  EXPECT_GT(max_abs_logit, 0.0F);
  EXPECT_LT(max_err, 0.1F * std::max(1.0F, max_abs_logit))
      << "int8 logits drifted more than 10% of the fp32 logit scale";
  EXPECT_EQ(int8.precision(), Precision::kInt8);
  EXPECT_EQ(fp32.precision(), Precision::kFp32);
}

TEST_F(QuantEngineTest, RejectsSpecFromAnotherDepth) {
  QuantSpec wrong = spec_;
  wrong.blocks.pop_back();
  EXPECT_THROW(QuantizedVitEngine(*system_->classifier(), *system_->reconstructor(), wrong, 4),
               std::runtime_error);
}

// --- heap allocations of a warm forward --------------------------------------

// A warm forward at either tier allocates its returned tensor and nothing
// else: no scratch (the workspace holds it) and no worker thread (the
// engines run their kernels on the calling thread). 32x32 at batch 8 puts
// the REC head's GEMM past the tape matmul's fan-out threshold.
TEST(EngineAllocations, WarmForwardAllocatesOnlyItsResult) {
  for (const std::int64_t image : {16, 32}) {
    core::SnapPixConfig cfg = small_system_config();
    cfg.image = image;
    cfg.frames = image == 16 ? 8 : 16;
    core::SnapPixSystem system(cfg);
    const QuantSpec spec =
        runtime::calibrate(*system.classifier(), *system.reconstructor(),
                           runtime::make_calibration_frames(system.pattern(), image, image, {}));
    const runtime::BatchedVitEngine fp32(*system.classifier(), *system.reconstructor(), 8);
    const QuantizedVitEngine int8(*system.classifier(), *system.reconstructor(), spec, 8);
    Rng rng(37);
    for (const std::int64_t batch : {1, 8}) {
      const Tensor coded = Tensor::rand_uniform(Shape{batch, image, image}, rng);
      for (const runtime::VitEngine* engine :
           std::array<const runtime::VitEngine*, 2>{&fp32, &int8}) {
        engine->classify_logits(coded);  // warm: the REC scratch is sized on first use
        engine->reconstruct(coded);
        const char* tier = engine->precision() == Precision::kFp32 ? "fp32" : "int8";
        EXPECT_EQ(fixtures::allocations_of([&] { engine->classify_logits(coded); }),
                  fixtures::kTensorAllocations)
            << tier << " classify, " << image << "x" << image << " batch " << batch;
        EXPECT_EQ(fixtures::allocations_of([&] { engine->reconstruct(coded); }),
                  fixtures::kTensorAllocations)
            << tier << " reconstruct, " << image << "x" << image << " batch " << batch;
      }
    }
  }
}

// --- precision-keyed EngineCache --------------------------------------------

TEST(EngineCachePrecision, TiersAreDistinctResidentsWithSplitCounters) {
  core::SnapPixSystem system(small_system_config());
  const Tensor frames = runtime::make_calibration_frames(system.pattern(), 16, 16, {});
  const QuantSpec spec =
      runtime::calibrate(*system.classifier(), *system.reconstructor(), frames);
  EngineCacheConfig cfg;
  cfg.capacity = 4;
  EngineCache cache(cfg, [&](const ce::CePattern&,
                             Precision precision) -> std::shared_ptr<runtime::VitEngine> {
    if (precision == Precision::kFp32) {
      return std::make_shared<runtime::BatchedVitEngine>(*system.classifier(),
                                                         *system.reconstructor(), 4);
    }
    return std::make_shared<QuantizedVitEngine>(*system.classifier(), *system.reconstructor(),
                                                spec, 4);
  });
  const PatternRef pattern = system.pattern_ref();
  const auto fp32_entry = cache.resolve(system.pattern_hash(), pattern, Precision::kFp32);
  const auto int8_entry = cache.resolve(system.pattern_hash(), pattern, Precision::kInt8);
  EXPECT_NE(fp32_entry->engine.get(), int8_entry->engine.get());
  EXPECT_EQ(fp32_entry->precision, Precision::kFp32);
  EXPECT_EQ(int8_entry->precision, Precision::kInt8);
  EXPECT_EQ(cache.resident(), 2U);

  cache.resolve(system.pattern_hash(), pattern, Precision::kFp32);  // hit
  cache.resolve(system.pattern_hash(), pattern, Precision::kInt8);  // hit
  const auto fp32_counters = cache.counters(Precision::kFp32);
  const auto int8_counters = cache.counters(Precision::kInt8);
  EXPECT_EQ(fp32_counters.hits, 1U);
  EXPECT_EQ(fp32_counters.misses, 1U);
  EXPECT_EQ(int8_counters.hits, 1U);
  EXPECT_EQ(int8_counters.misses, 1U);
  EXPECT_EQ(cache.counters().hits, 2U);
  EXPECT_EQ(cache.counters().misses, 2U);
}

// --- mixed-precision fleet through the sharded server ------------------------

TEST(MixedPrecisionFleet, Fp32CamerasBitExactInt8CamerasEngineExact) {
  core::SnapPixSystem system(small_system_config());
  Rng pattern_rng(97);
  std::vector<PatternRef> patterns;
  for (int p = 0; p < 3; ++p) {
    patterns.push_back(
        runtime::make_pattern_ref(ce::CePattern::random(8, 8, pattern_rng, 0.5F)));
  }

  // 6 cameras over 3 patterns; odd cameras serve int8, the last camera of
  // each parity runs REC. Replay sources so both server runs (and the direct
  // engine checks) see the same bytes.
  const std::int64_t frames_per_camera = 12;
  std::vector<std::vector<Tensor>> streams;
  std::vector<std::vector<std::int64_t>> labels;
  for (int cam = 0; cam < 6; ++cam) {
    runtime::SyntheticCameraSource source(cam, small_scene(),
                                          patterns[static_cast<std::size_t>(cam % 3)],
                                          500 + static_cast<std::uint64_t>(cam));
    std::vector<Tensor> coded;
    std::vector<std::int64_t> lab;
    for (std::int64_t i = 0; i < frames_per_camera; ++i) {
      runtime::Frame frame = source.next_frame();
      coded.push_back(std::move(frame.coded));
      lab.push_back(frame.label);
    }
    streams.push_back(std::move(coded));
    labels.push_back(std::move(lab));
  }

  const auto make_fleet_camera = [&](int cam) {
    auto camera = std::make_unique<runtime::ReplayCameraSource>(
        cam, patterns[static_cast<std::size_t>(cam % 3)],
        streams[static_cast<std::size_t>(cam)], labels[static_cast<std::size_t>(cam)]);
    if (cam % 2 == 1) {
      camera->set_precision(Precision::kInt8);
    }
    if (cam >= 4) {
      camera->set_task(Task::kReconstruct);
    }
    return camera;
  };

  const auto run_fleet = [&](std::size_t shards) {
    ServerConfig cfg;
    cfg.batch.max_batch = 4;
    cfg.shards = shards;
    InferenceServer server(system, cfg);
    for (int cam = 0; cam < 6; ++cam) {
      server.add_camera(make_fleet_camera(cam));
    }
    auto results = server.run(frames_per_camera);
    return std::make_pair(std::move(results), server.summary());
  };

  auto [single, single_summary] = run_fleet(1);
  auto [sharded, sharded_summary] = run_fleet(3);

  // Shard count must not change a bit — int8 engines are deterministic and
  // rebuild identically from the seeded calibration.
  ASSERT_EQ(single.size(), sharded.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    ASSERT_EQ(single[i].camera_id, sharded[i].camera_id);
    ASSERT_EQ(single[i].sequence, sharded[i].sequence);
    ASSERT_EQ(single[i].precision, sharded[i].precision);
    ASSERT_EQ(single[i].predicted, sharded[i].predicted) << "result " << i;
    if (single[i].task == Task::kReconstruct) {
      const auto& va = single[i].reconstruction.data();
      const auto& vb = sharded[i].reconstruction.data();
      ASSERT_EQ(va.size(), vb.size());
      for (std::size_t v = 0; v < va.size(); ++v) {
        ASSERT_EQ(va[v], vb[v]);
      }
    }
  }

  // Per-tier accounting: 3 fp32 cameras and 3 int8 cameras, 12 frames each.
  EXPECT_EQ(single_summary.fp32_frames, 36U);
  EXPECT_EQ(single_summary.int8_frames, 36U);
  EXPECT_GT(single_summary.cache_fp32.misses, 0U);
  EXPECT_GT(single_summary.cache_int8.misses, 0U);
  EXPECT_EQ(single_summary.cache_fp32.hits + single_summary.cache_int8.hits,
            single_summary.cache_hits);

  // fp32 cameras must be bit-identical to the sequential tape paths; int8
  // cameras must match a directly-built engine using the server's own
  // calibration recipe, QuantCalibration{} (same seeded frames -> same spec
  // -> same bits).
  NoGradGuard guard;
  for (const TaskResult& result : single) {
    const int cam = result.camera_id;
    const Tensor& coded = streams[static_cast<std::size_t>(cam)]
                                 [static_cast<std::size_t>(result.sequence)];
    const Tensor one =
        Tensor::from_vector(coded.data(), Shape{1, coded.shape()[0], coded.shape()[1]});
    if (result.precision == Precision::kFp32) {
      if (result.task == Task::kClassify) {
        EXPECT_EQ(result.predicted, system.classify_coded(one)[0]);
      } else {
        const Tensor expected = system.reconstruct_coded(one);
        ASSERT_EQ(result.reconstruction.data().size(), expected.data().size());
        for (std::size_t v = 0; v < expected.data().size(); ++v) {
          ASSERT_EQ(result.reconstruction.data()[v], expected.data()[v]);
        }
      }
    } else {
      const ce::CePattern& pattern = *patterns[static_cast<std::size_t>(cam % 3)];
      const Tensor calib_frames =
          runtime::make_calibration_frames(pattern, 16, 16, QuantCalibration{});
      const QuantSpec spec =
          runtime::calibrate(*system.classifier(), *system.reconstructor(), calib_frames);
      const QuantizedVitEngine engine(*system.classifier(), *system.reconstructor(), spec,
                                      4);
      if (result.task == Task::kClassify) {
        EXPECT_EQ(result.predicted, engine.classify(one)[0]);
      } else {
        const Tensor expected = engine.reconstruct(one);
        ASSERT_EQ(result.reconstruction.data().size(), expected.data().size());
        for (std::size_t v = 0; v < expected.data().size(); ++v) {
          ASSERT_EQ(result.reconstruction.data()[v], expected.data()[v]);
        }
      }
    }
  }
}

}  // namespace
}  // namespace snappix

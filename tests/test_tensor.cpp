// Unit tests for tensor structure, factories, and forward-only semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "tensor/broadcast.h"
#include "tensor/exp.h"
#include "tensor/gelu.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace snappix {
namespace {

TEST(Shape, NumelAndIndexing) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s.ndim(), 3);
  EXPECT_EQ(s[0], 2);
  EXPECT_EQ(s[-1], 4);
  EXPECT_EQ(s[-3], 2);
}

TEST(Shape, Strides) {
  const Shape s{2, 3, 4};
  const auto strides = s.strides();
  ASSERT_EQ(strides.size(), 3U);
  EXPECT_EQ(strides[0], 12);
  EXPECT_EQ(strides[1], 4);
  EXPECT_EQ(strides[2], 1);
}

TEST(Shape, EmptyShapeIsScalarLike) {
  const Shape s;
  EXPECT_EQ(s.numel(), 1);
  EXPECT_EQ(s.ndim(), 0);
}

TEST(Shape, RejectsNegativeDims) { EXPECT_THROW(Shape({2, -1}), std::runtime_error); }

TEST(Shape, OutOfRangeIndexThrows) {
  const Shape s{2, 3};
  EXPECT_THROW(s[2], std::runtime_error);
  EXPECT_THROW(s[-3], std::runtime_error);
}

TEST(Tensor, ZerosOnesFull) {
  const Tensor z = Tensor::zeros(Shape{2, 2});
  const Tensor o = Tensor::ones(Shape{2, 2});
  const Tensor f = Tensor::full(Shape{2, 2}, 3.5F);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(z.data()[static_cast<std::size_t>(i)], 0.0F);
    EXPECT_EQ(o.data()[static_cast<std::size_t>(i)], 1.0F);
    EXPECT_EQ(f.data()[static_cast<std::size_t>(i)], 3.5F);
  }
}

TEST(Tensor, FromVectorShapeMismatchThrows) {
  EXPECT_THROW(Tensor::from_vector({1.0F, 2.0F}, Shape{3}), std::runtime_error);
}

TEST(Tensor, AtAndSetAt) {
  Tensor t = Tensor::zeros(Shape{2, 3});
  t.set_at({1, 2}, 7.0F);
  EXPECT_EQ(t.at({1, 2}), 7.0F);
  EXPECT_EQ(t.at({0, 0}), 0.0F);
  EXPECT_THROW(t.at({2, 0}), std::runtime_error);
}

TEST(Tensor, ItemRequiresScalar) {
  EXPECT_EQ(Tensor::scalar(4.0F).item(), 4.0F);
  EXPECT_THROW(Tensor::zeros(Shape{2}).item(), std::runtime_error);
}

TEST(Tensor, RandnIsDeterministicPerSeed) {
  Rng rng_a(42);
  Rng rng_b(42);
  const Tensor a = Tensor::randn(Shape{16}, rng_a);
  const Tensor b = Tensor::randn(Shape{16}, rng_b);
  EXPECT_TRUE(allclose(a, b));
}

TEST(Tensor, DetachSharesNoTape) {
  Tensor a = Tensor::ones(Shape{2}, /*requires_grad=*/true);
  Tensor b = a.detach();
  EXPECT_FALSE(b.requires_grad());
  EXPECT_TRUE(allclose(a, b));
}

TEST(Broadcast, Shapes) {
  using detail::broadcast_shapes;
  EXPECT_EQ(broadcast_shapes(Shape{3, 1}, Shape{1, 4}), (Shape{3, 4}));
  EXPECT_EQ(broadcast_shapes(Shape{5}, Shape{2, 5}), (Shape{2, 5}));
  EXPECT_EQ(broadcast_shapes(Shape{1}, Shape{7}), (Shape{7}));
  EXPECT_THROW(broadcast_shapes(Shape{3}, Shape{4}), std::runtime_error);
}

TEST(ElementwiseForward, AddSubMulDiv) {
  const Tensor a = Tensor::from_vector({1, 2, 3, 4}, Shape{2, 2});
  const Tensor b = Tensor::from_vector({4, 3, 2, 1}, Shape{2, 2});
  EXPECT_TRUE(allclose(add(a, b), Tensor::full(Shape{2, 2}, 5.0F)));
  EXPECT_TRUE(allclose(sub(a, b), Tensor::from_vector({-3, -1, 1, 3}, Shape{2, 2})));
  EXPECT_TRUE(allclose(mul(a, b), Tensor::from_vector({4, 6, 6, 4}, Shape{2, 2})));
  EXPECT_TRUE(allclose(div(a, b), Tensor::from_vector({0.25F, 2.0F / 3.0F, 1.5F, 4.0F},
                                                      Shape{2, 2})));
}

TEST(ElementwiseForward, BroadcastRowAndColumn) {
  const Tensor m = Tensor::from_vector({1, 2, 3, 4, 5, 6}, Shape{2, 3});
  const Tensor row = Tensor::from_vector({10, 20, 30}, Shape{3});
  const Tensor col = Tensor::from_vector({100, 200}, Shape{2, 1});
  EXPECT_TRUE(allclose(add(m, row), Tensor::from_vector({11, 22, 33, 14, 25, 36}, Shape{2, 3})));
  EXPECT_TRUE(
      allclose(add(m, col), Tensor::from_vector({101, 102, 103, 204, 205, 206}, Shape{2, 3})));
}

TEST(ElementwiseForward, UnaryMath) {
  const Tensor a = Tensor::from_vector({-1.0F, 0.0F, 2.0F}, Shape{3});
  EXPECT_TRUE(allclose(relu(a), Tensor::from_vector({0, 0, 2}, Shape{3})));
  EXPECT_TRUE(allclose(square(a), Tensor::from_vector({1, 0, 4}, Shape{3})));
  EXPECT_TRUE(allclose(abs(a), Tensor::from_vector({1, 0, 2}, Shape{3})));
  EXPECT_TRUE(allclose(neg(a), Tensor::from_vector({1, 0, -2}, Shape{3})));
  EXPECT_NEAR(exp(Tensor::scalar(1.0F)).item(), std::exp(1.0F), 1e-6F);
  EXPECT_NEAR(log(Tensor::scalar(std::exp(2.0F))).item(), 2.0F, 1e-5F);
  EXPECT_NEAR(snappix::sqrt(Tensor::scalar(9.0F)).item(), 3.0F, 1e-6F);
}

TEST(ElementwiseForward, ClampAndBinarize) {
  const Tensor a = Tensor::from_vector({-0.5F, 0.3F, 0.7F, 1.5F}, Shape{4});
  EXPECT_TRUE(allclose(clamp(a, 0.0F, 1.0F), Tensor::from_vector({0, 0.3F, 0.7F, 1}, Shape{4})));
  EXPECT_TRUE(allclose(binarize_ste(a), Tensor::from_vector({0, 0, 1, 1}, Shape{4})));
  EXPECT_THROW(clamp(a, 1.0F, 0.0F), std::runtime_error);
}

TEST(ElementwiseForward, SigmoidTanhGelu) {
  const Tensor zero = Tensor::scalar(0.0F);
  EXPECT_NEAR(sigmoid(zero).item(), 0.5F, 1e-6F);
  EXPECT_NEAR(snappix::tanh(zero).item(), 0.0F, 1e-6F);
  EXPECT_NEAR(gelu(zero).item(), 0.0F, 1e-6F);
  // GELU approaches identity for large positive inputs.
  EXPECT_NEAR(gelu(Tensor::scalar(6.0F)).item(), 6.0F, 1e-3F);
}

TEST(MatmulForward, TwoByTwo) {
  const Tensor a = Tensor::from_vector({1, 2, 3, 4}, Shape{2, 2});
  const Tensor b = Tensor::from_vector({5, 6, 7, 8}, Shape{2, 2});
  EXPECT_TRUE(allclose(matmul(a, b), Tensor::from_vector({19, 22, 43, 50}, Shape{2, 2})));
}

TEST(MatmulForward, Batched) {
  const Tensor a = Tensor::from_vector({1, 0, 0, 1, 2, 0, 0, 2}, Shape{2, 2, 2});
  const Tensor b = Tensor::from_vector({1, 2, 3, 4, 1, 2, 3, 4}, Shape{2, 2, 2});
  const Tensor c = matmul(a, b);
  EXPECT_TRUE(allclose(c, Tensor::from_vector({1, 2, 3, 4, 2, 4, 6, 8}, Shape{2, 2, 2})));
}

TEST(MatmulForward, BatchBroadcastRhs) {
  const Tensor a = Tensor::from_vector({1, 0, 0, 1, 2, 0, 0, 2}, Shape{2, 2, 2});
  const Tensor b = Tensor::from_vector({1, 2, 3, 4}, Shape{2, 2});
  const Tensor c = matmul(a, b);
  EXPECT_TRUE(allclose(c, Tensor::from_vector({1, 2, 3, 4, 2, 4, 6, 8}, Shape{2, 2, 2})));
}

TEST(MatmulForward, MismatchThrows) {
  EXPECT_THROW(matmul(Tensor::zeros(Shape{2, 3}), Tensor::zeros(Shape{4, 2})),
               std::runtime_error);
}

// --- backward GEMM kernels ---------------------------------------------------
//
// The register-tiled gemm_nt/gemm_tn must stay BIT-identical to the
// historical streaming loops — per-element ascending-order accumulation,
// read-modify-write semantics on a nonzero c, and gemm_tn's av == 0 skip —
// because training gradients (and their optimizer trajectories) are pinned
// by the determinism suites.

namespace {

// The pre-tiling streaming kernels, verbatim: the bit-exactness oracles.
void gemm_nt_naive(const float* a, const float* b, float* c, std::int64_t m, std::int64_t n,
                   std::int64_t k) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < k; ++j) {
      const float* arow = a + i * n;
      const float* brow = b + j * n;
      float acc = 0.0F;
      for (std::int64_t l = 0; l < n; ++l) {
        acc += arow[l] * brow[l];
      }
      c[i * k + j] += acc;
    }
  }
}

void gemm_tn_naive(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
                   std::int64_t n) {
  for (std::int64_t l = 0; l < m; ++l) {
    const float* arow = a + l * k;
    const float* brow = b + l * n;
    for (std::int64_t i = 0; i < k; ++i) {
      const float av = arow[i];
      if (av == 0.0F) {
        continue;
      }
      float* crow = c + i * n;
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

// Random data with a sprinkling of exact zeros (so gemm_tn's skip is
// exercised) and a NONZERO initial c (so read-modify-write order matters).
struct GemmCase {
  std::vector<float> a, b, c;
};

GemmCase make_case(std::int64_t a_elems, std::int64_t b_elems, std::int64_t c_elems,
                   std::uint64_t seed) {
  Rng rng(seed);
  GemmCase gc;
  gc.a.resize(static_cast<std::size_t>(a_elems));
  gc.b.resize(static_cast<std::size_t>(b_elems));
  gc.c.resize(static_cast<std::size_t>(c_elems));
  for (auto& v : gc.a) {
    v = rng.uniform() < 0.2F ? 0.0F : rng.uniform(-2.0F, 2.0F);
  }
  for (auto& v : gc.b) {
    v = rng.uniform(-2.0F, 2.0F);
  }
  for (auto& v : gc.c) {
    v = rng.uniform(-1.0F, 1.0F);
  }
  return gc;
}

}  // namespace

TEST(GemmBackwardKernels, TiledNtBitIdenticalToStreaming) {
  std::uint64_t seed = 200;
  for (const auto& [m, n, k] : std::vector<std::array<std::int64_t, 3>>{
           {1, 1, 1}, {3, 5, 2}, {4, 8, 4}, {5, 9, 11}, {12, 16, 8}, {13, 7, 9}}) {
    GemmCase gc = make_case(m * n, k * n, m * k, seed++);
    std::vector<float> expected = gc.c;
    detail::gemm_nt(gc.a.data(), gc.b.data(), gc.c.data(), m, n, k);
    gemm_nt_naive(gc.a.data(), gc.b.data(), expected.data(), m, n, k);
    for (std::int64_t i = 0; i < m * k; ++i) {
      ASSERT_EQ(gc.c[static_cast<std::size_t>(i)], expected[static_cast<std::size_t>(i)])
          << "nt m=" << m << " n=" << n << " k=" << k << " i=" << i;
    }
  }
}

TEST(GemmBackwardKernels, TiledTnBitIdenticalToStreaming) {
  std::uint64_t seed = 300;
  for (const auto& [m, k, n] : std::vector<std::array<std::int64_t, 3>>{
           {1, 1, 1}, {3, 5, 2}, {4, 4, 8}, {5, 9, 11}, {12, 8, 16}, {13, 7, 9}}) {
    GemmCase gc = make_case(m * k, m * n, k * n, seed++);
    std::vector<float> expected = gc.c;
    detail::gemm_tn(gc.a.data(), gc.b.data(), gc.c.data(), m, k, n);
    gemm_tn_naive(gc.a.data(), gc.b.data(), expected.data(), m, k, n);
    for (std::int64_t i = 0; i < k * n; ++i) {
      ASSERT_EQ(gc.c[static_cast<std::size_t>(i)], expected[static_cast<std::size_t>(i)])
          << "tn m=" << m << " k=" << k << " n=" << n << " i=" << i;
    }
  }
}

// --- forward GEMM kernel ------------------------------------------------------
//
// gemm_nn (4x16 AVX2 tiles, a 4x8 tile for a remaining 8-column block, a
// streaming column tail) must equal the naive triple loop bit for bit: the
// fused serving engine's bit-exactness against the tape rests on it.

namespace {

// The contract: c starts at +0; each element sums its k products from +0 in
// ascending l with separate mul and add, then folds the sum into c.
void gemm_nn_naive(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
                   std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0F;
      for (std::int64_t l = 0; l < k; ++l) {
        acc += a[i * k + l] * b[l * n + j];
      }
      c[i * n + j] += acc;
    }
  }
}

// Uniform values mixed with +-0, subnormals and (at `inf_rate`) +-inf.
float gemm_operand(Rng& rng, float inf_rate) {
  const float u = rng.uniform();
  const float sign = rng.uniform() < 0.5F ? -1.0F : 1.0F;
  if (u < inf_rate) {
    return sign * std::numeric_limits<float>::infinity();
  }
  if (u < 0.1F) {
    return sign * 0.0F;
  }
  if (u < 0.15F) {
    return sign * std::numeric_limits<float>::denorm_min() *
           static_cast<float>(1 + static_cast<int>(rng.uniform() * 1000.0F));
  }
  return rng.uniform(-2.0F, 2.0F);
}

}  // namespace

TEST(GemmForwardKernel, TiledNnBitIdenticalToNaiveOnEveryTileAndTail) {
  std::uint64_t seed = 400;
  int nan_outputs = 0, inf_outputs = 0, subnormal_outputs = 0;
  // m % 4 in {0..3}; n % 16 in {0, 8, 5}, with and without a 16-column tile
  // before it; k from a single product to past two tile heights.
  for (const std::int64_t m : {4, 5, 6, 7}) {
    for (const std::int64_t n : {16, 32, 8, 24, 5, 21}) {
      for (const std::int64_t k : {1, 48, 97}) {
        Rng rng(seed++);
        std::vector<float> a(static_cast<std::size_t>(m * k)), b(static_cast<std::size_t>(k * n));
        for (float& v : a) {
          v = gemm_operand(rng, 0.01F);
        }
        for (float& v : b) {
          v = gemm_operand(rng, 0.005F);
        }
        std::vector<float> c(static_cast<std::size_t>(m * n), 0.0F), expected = c;
        detail::gemm_nn(a.data(), b.data(), c.data(), m, k, n);
        gemm_nn_naive(a.data(), b.data(), expected.data(), m, k, n);
        for (std::size_t i = 0; i < c.size(); ++i) {
          if (std::isnan(expected[i])) {
            ASSERT_TRUE(std::isnan(c[i])) << "m=" << m << " n=" << n << " k=" << k << " i=" << i;
            ++nan_outputs;
            continue;
          }
          ASSERT_EQ(std::memcmp(&c[i], &expected[i], sizeof(float)), 0)
              << "m=" << m << " n=" << n << " k=" << k << " i=" << i << ": " << c[i]
              << " vs " << expected[i];
          inf_outputs += std::isinf(expected[i]) ? 1 : 0;
          subnormal_outputs += std::fpclassify(expected[i]) == FP_SUBNORMAL ? 1 : 0;
        }
      }
    }
  }
  // The special inputs reached the outputs.
  EXPECT_GT(nan_outputs, 0);
  EXPECT_GT(inf_outputs, 0);
  EXPECT_GT(subnormal_outputs, 0);
}

// --- shared GELU kernel (tensor/gelu.h) ---------------------------------------

namespace {

std::uint32_t bits_of(float x) {
  std::uint32_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

float float_of(std::uint32_t u) {
  float x = 0.0F;
  std::memcpy(&x, &u, sizeof x);
  return x;
}

// {input bits, output bits} recorded from glibc 2.36 tanhf, at least one per
// fdlibm branch. k is the exponent expm1f's argument reduction picks for the
// inner expm1(+-2|x|) call; fdlibm splits on k = 0, k = -1, k <= -2 or > 56,
// 2 <= k <= 22 and 23 <= k <= 56 (tanh never passes expm1 an argument with
// k = +1 or k = 2 — kExpm1Golden covers those).
constexpr std::array<std::array<std::uint32_t, 2>, 56> kTanhGolden = {{
    {0x00000000U, 0x00000000U},  // +0
    {0x80000000U, 0x80000000U},  // -0
    {0x00000001U, 0x00000001U},  // smallest subnormal
    {0x807fffffU, 0x807fffffU},  // largest negative subnormal
    {0x00400000U, 0x00400000U},  // subnormal
    {0x00800000U, 0x00800000U},  // |x| < 2^-55: smallest normal
    {0x0d000000U, 0x0d000000U},  // |x| < 2^-55
    {0x9c000000U, 0x9c000000U},  // |x| < 2^-55
    {0x23ffffffU, 0x23ffffffU},  // |x| < 2^-55: just below
    {0xa3ffffffU, 0xa3ffffffU},  // |x| < 2^-55: just below
    {0x24000000U, 0x24000000U},  // 2^-55: expm1's |y| < 2^-25 branch
    {0xa4000000U, 0xa4000000U},  // -2^-55: expm1's |y| < 2^-25 branch
    {0x2edbe6ffU, 0x2edbe6ffU},  // 1e-10: expm1's |y| < 2^-25 branch
    {0xb14e288fU, 0xb14e288fU},  // -3e-9: expm1's |y| < 2^-25 branch
    {0x32ffffffU, 0x32ffffffU},  // k = 0: first value
    {0x33000000U, 0x33000000U},  // k = 0
    {0x3a83126fU, 0x3a83126cU},  // k = 0: 0.001
    {0xbe000000U, 0xbdfeaccaU},  // k = 0: -0.125
    {0x3e317050U, 0x3e2faf12U},  // k = 0: 0.17328
    {0x3e317217U, 0x3e2fb0ccU},  // k = 0
    {0x3e317218U, 0x3e2fb0cdU},  // k = 0: last value
    {0x3e800000U, 0x3e7acbf5U},  // k = -1: 0.25
    {0xbe99999aU, 0xbe9526edU},  // k = -1: -0.3
    {0x3f000000U, 0x3eec9a9fU},  // k = -1: 0.5
    {0x3f0514e4U, 0x3ef485edU},  // k = -1: 0.51985
    {0x3f051eb8U, 0x3ef49518U},  // k = -2: 0.52
    {0xbf400000U, 0xbf22991fU},  // k = -2: -0.75
    {0x3f666666U, 0x3f375f4cU},  // k = -3: 0.9
    {0x3f7fffffU, 0x3f42f7d5U},  // k = -3: largest |x| < 1
    {0x3f800000U, 0x3f42f7d6U},  // k = 3: 1
    {0xbf800000U, 0xbf42f7d6U},  // k = 3: -1
    {0x3fc00000U, 0x3f67b7ccU},  // k = 4: 1.5
    {0x40000000U, 0x3f76ca83U},  // k = 6: 2
    {0xc0400000U, 0xbf7ebbe9U},  // k = 9: -3
    {0x40a00000U, 0x3f7ffa0dU},  // k = 14: 5
    {0x40f00000U, 0x3f7ffff6U},  // k = 22: 7.5
    {0x40fccccdU, 0x3f7ffffbU},  // k = 23: 7.9
    {0x41000000U, 0x3f7ffffcU},  // k = 23: 8
    {0xc1200000U, 0xbf800000U},  // k = 29: -10
    {0x41700000U, 0x3f800000U},  // k = 43: 15
    {0x419a6666U, 0x3f800000U},  // k = 56: 19.3
    {0x419e6666U, 0x3f800000U},  // k = 57: 19.8
    {0xc1a00000U, 0xbf800000U},  // k = 58: -20
    {0x41ac0000U, 0x3f800000U},  // k = 62: 21.5
    {0x41afffffU, 0x3f800000U},  // k = 63: largest |x| < 22
    {0x41b00000U, 0x3f800000U},  // |x| >= 22: 22
    {0xc1b00000U, 0xbf800000U},  // |x| >= 22: -22
    {0x42c80000U, 0x3f800000U},  // |x| >= 22: 100
    {0x7f7fffffU, 0x3f800000U},  // |x| >= 22: FLT_MAX
    {0xff7fffffU, 0xbf800000U},  // |x| >= 22: -FLT_MAX
    {0x7f800000U, 0x3f800000U},  // +inf
    {0xff800000U, 0xbf800000U},  // -inf
    {0x7fc00000U, 0x7fc00000U},  // NaN
    {0xffc00000U, 0xffc00000U},  // -NaN
    {0x7f800001U, 0x7fc00001U},  // signalling NaN, quieted
    {0xffa00000U, 0xffe00000U},  // negative signalling NaN, quieted
}};

// {input bits, output bits} recorded from glibc 2.36 expm1f, for the branches
// of expm1_ref that tanh_ref never reaches (k = +1 on both sides of its
// x < -0.25 split, k = 2, the overflow/-1/NaN filter) and one per other k.
constexpr std::array<std::array<std::uint32_t, 2>, 26> kExpm1Golden = {{
    {0x2edbe6ffU, 0x2edbe6ffU},  // |x| < 2^-25: 1e-10
    {0xb22bcc77U, 0xb22bcc77U},  // |x| < 2^-25: -1e-8
    {0x3dcccccdU, 0x3dd763daU},  // k = 0: 0.1
    {0xbe4ccccdU, 0xbe399ea5U},  // k = 0: -0.2
    {0x3ecccccdU, 0x3efbd072U},  // k = 1, reduced x < -0.25: 0.4
    {0x3f4ccccdU, 0x3f9cde87U},  // k = 1, reduced x >= -0.25: 0.8
    {0xbf000000U, 0xbec974d0U},  // k = -1: -0.5
    {0x3fc00000U, 0x405ed3feU},  // k = 2: 1.5
    {0x40400000U, 0x4198af2eU},  // k = 4: 3
    {0x41200000U, 0x46ac12eeU},  // k = 14: 10
    {0x4174cccdU, 0x4a86aa4fU},  // k = 22: 15.3
    {0x41800000U, 0x4b07975eU},  // k = 23: 16
    {0x41f00000U, 0x551b8238U},  // k = 43: 30
    {0x421b3333U, 0x5b7be01bU},  // k = 56: 38.8
    {0x42200000U, 0x5c51106aU},  // k = 58: 40
    {0x42700000U, 0x6abcede5U},  // k = 87: 60
    {0x42b10000U, 0x7f4cdcc4U},  // k = 128: 88.5
    {0xbfc00000U, 0xbf46e0f1U},  // k = -2: -1.5
    {0xc0000000U, 0xbf5d5aabU},  // k = -3: -2
    {0xc0a00000U, 0xbf7e466cU},  // k = -7: -5
    {0xc1900000U, 0xbf800000U},  // k = -26: -18
    {0xc1a00000U, 0xbf800000U},  // x < -27 ln2: -20
    {0x42c80000U, 0x7f800000U},  // overflow: 100
    {0x7f800000U, 0x7f800000U},  // +inf
    {0xff800000U, 0xbf800000U},  // -inf
    {0x7fc00000U, 0x7fc00000U},  // NaN
}};

}  // namespace

TEST(GeluKernel, TanhMatchesGlibcGoldenTable) {
  // The array form runs the inputs as one buffer, so each 8-lane vector
  // mixes branches and the blends are checked against each other.
  std::vector<float> in;
  for (const auto& [x, y] : kTanhGolden) {
    EXPECT_EQ(bits_of(detail::tanh_ref(float_of(x))), y) << std::hex << "tanh_ref(0x" << x << ")";
    in.push_back(float_of(x));
  }
  std::vector<float> out(in.size());
  detail::tanh_array(in.data(), static_cast<std::int64_t>(in.size()), out.data());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(bits_of(out[i]), kTanhGolden[i][1])
        << std::hex << "tanh_array(0x" << kTanhGolden[i][0] << ")";
  }
}

TEST(GeluKernel, Expm1MatchesGlibcGoldenTable) {
  for (const auto& [x, y] : kExpm1Golden) {
    EXPECT_EQ(bits_of(detail::expm1_ref(float_of(x))), y) << std::hex << "expm1_ref(0x" << x << ")";
  }
}

// The AVX2 paths against the scalar references over a strided sweep of all
// 2^32 bit patterns (every sign, exponent, NaN payload and branch; the odd
// stride walks the mantissa bits too). Chunks of 4099 leave a scalar tail, and
// the GELU runs in place, as the serving engine calls it.
TEST(GeluKernel, ArrayPathsMatchScalarReferenceOverStridedSweep) {
  constexpr std::uint64_t kStride = 1021;
  constexpr std::int64_t kChunk = 4099;
  std::vector<float> x(kChunk), y(kChunk), g(kChunk);
  std::uint64_t tanh_mismatches = 0, gelu_mismatches = 0;
  for (std::uint64_t base = 0; base < (std::uint64_t{1} << 32);
       base += kStride * static_cast<std::uint64_t>(kChunk)) {
    for (std::int64_t i = 0; i < kChunk; ++i) {
      x[static_cast<std::size_t>(i)] =
          float_of(static_cast<std::uint32_t>(base + kStride * static_cast<std::uint64_t>(i)));
    }
    detail::tanh_array(x.data(), kChunk, y.data());
    g = x;
    detail::gelu_array(g.data(), kChunk, g.data());
    for (std::size_t i = 0; i < x.size(); ++i) {
      const std::uint32_t want_tanh = bits_of(detail::tanh_ref(x[i]));
      const std::uint32_t want_gelu = bits_of(detail::gelu_ref(x[i]));
      if (bits_of(y[i]) != want_tanh && tanh_mismatches++ == 0) {
        ADD_FAILURE() << std::hex << "tanh_array(0x" << bits_of(x[i]) << ") = 0x" << bits_of(y[i])
                      << ", tanh_ref gives 0x" << want_tanh;
      }
      if (bits_of(g[i]) != want_gelu && gelu_mismatches++ == 0) {
        ADD_FAILURE() << std::hex << "gelu_array(0x" << bits_of(x[i]) << ") = 0x" << bits_of(g[i])
                      << ", gelu_ref gives 0x" << want_gelu;
      }
    }
  }
  EXPECT_EQ(tanh_mismatches, 0U);
  EXPECT_EQ(gelu_mismatches, 0U);
}

TEST(GeluKernel, TapeOpsRunTheKernel) {
  Rng rng(23);
  const Tensor a = Tensor::randn(Shape{3, 37}, rng, 3.0F);
  const Tensor tanh_out = snappix::tanh(a);
  const Tensor gelu_out = gelu(a);
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    EXPECT_EQ(bits_of(tanh_out.data()[i]), bits_of(detail::tanh_ref(a.data()[i])));
    EXPECT_EQ(bits_of(gelu_out.data()[i]), bits_of(detail::gelu_ref(a.data()[i])));
  }
}

// --- shared exp kernel (tensor/exp.h) -----------------------------------------

namespace {

constexpr std::uint32_t kFmaVariantHigh = 0x4202422fU;  // 32.5646
constexpr std::uint32_t kFmaVariantLow = 0xc27c65d9U;   // -63.0995

// {input bits, output bits} recorded from glibc 2.36 expf with its FMA build
// masked (GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA): the main path across
// the softmax range, the edges of the |x| >= 88 special-case test, the
// overflow and underflow thresholds, subnormal results, and the two inputs
// where glibc's FMA build rounds the other way.
constexpr std::array<std::array<std::uint32_t, 2>, 45> kExpGolden = {{
    {0x00000000U, 0x3f800000U},  // +0
    {0x80000000U, 0x3f800000U},  // -0
    {0x00000001U, 0x3f800000U},  // smallest subnormal: 1
    {0x80000001U, 0x3f800000U},  // negative smallest subnormal: 1
    {0x2edbe6ffU, 0x3f800000U},  // 1e-10: 1
    {0x33800000U, 0x3f800001U},  // 2^-24
    {0xb3800000U, 0x3f7fffffU},  // -2^-24
    {0x3a83126fU, 0x3f8020c9U},  // 0.001
    {0x3e800000U, 0x3fa45af2U},  // 0.25
    {0x3f000000U, 0x3fd3094cU},  // 0.5
    {0xbf000000U, 0x3f1b4598U},  // -0.5
    {0x3f800000U, 0x402df854U},  // 1
    {0xbf800000U, 0x3ebc5ab2U},  // -1
    {0x3f317218U, 0x40000000U},  // ln2
    {0x40000000U, 0x40ec7326U},  // 2
    {0xc0400000U, 0x3d4bed86U},  // -3
    {0x41200000U, 0x46ac14eeU},  // 10
    {0xc1200000U, 0x383e6bceU},  // -10
    {0xc1400000U, 0x36ce2a62U},  // -12
    {kFmaVariantHigh, 0x56fc9f1bU},  // the FMA build gives 0x56fc9f1c
    {kFmaVariantLow, 0x11fa2992U},   // the FMA build gives 0x11fa2993
    {0x42a00000U, 0x792abbceU},  // 80
    {0xc2a00000U, 0x05bfecbaU},  // -80
    {0x42afffffU, 0x7ef8823bU},  // largest x below 88: no special-case test
    {0x42b00000U, 0x7ef882b7U},  // 88: special-case test, main path
    {0xc2b00000U, 0x0041edc4U},  // -88: special-case test, subnormal result
    {0xc2aeac4fU, 0x00800026U},  // -87.3365: just above FLT_MIN
    {0xc2aeac50U, 0x007fffe6U},  // -87.3365 - 1 ulp: subnormal result
    {0x42b17217U, 0x7f7fff84U},  // 0x1.62e42ep6 (88.7228): largest finite result
    {0x42b17218U, 0x7f800000U},  // 88.7228 + 1 ulp: overflow to +inf
    {0x42c80000U, 0x7f800000U},  // 100: overflow
    {0x7f7fffffU, 0x7f800000U},  // FLT_MAX: overflow
    {0xc2c80000U, 0x0000001bU},  // -100: subnormal result
    {0xc2cd0000U, 0x00000002U},  // -102.5: subnormal result
    {0xc2ce0000U, 0x00000001U},  // -103: smallest subnormal
    {0xc2cff1b4U, 0x00000001U},  // -0x1.9fe368p6 (-103.972): main path
    {0xc2cff1b5U, 0x00000000U},  // -103.972 - 1 ulp: underflow to +0
    {0xc2d00000U, 0x00000000U},  // -104: underflow
    {0xff7fffffU, 0x00000000U},  // -FLT_MAX: underflow
    {0x7f800000U, 0x7f800000U},  // +inf
    {0xff800000U, 0x00000000U},  // -inf: +0
    {0x7fc00000U, 0x7fc00000U},  // NaN
    {0xffc00000U, 0xffc00000U},  // -NaN
    {0x7f800001U, 0x7fc00001U},  // signalling NaN, quieted
    {0xffa00000U, 0xffe00000U},  // negative signalling NaN, quieted
}};

// The tape's softmax of one row, written out with exp_ref.
std::vector<float> softmax_row_ref(const float* row, std::size_t n) {
  float mx = -std::numeric_limits<float>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    mx = std::max(mx, row[i]);
  }
  std::vector<float> out(n);
  float denom = 0.0F;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = detail::exp_ref(row[i] - mx);
    denom += out[i];
  }
  for (float& v : out) {
    v /= denom;
  }
  return out;
}

}  // namespace

TEST(ExpKernel, MatchesGlibcNonFmaGoldenTable) {
  // The array form runs the inputs as one buffer, padded to whole vectors
  // so every entry takes the 8-lane path; each vector mixes main-path and
  // special lanes, so the blends are checked against each other.
  std::vector<float> in;
  for (const auto& [x, y] : kExpGolden) {
    EXPECT_EQ(bits_of(detail::exp_ref(float_of(x))), y) << std::hex << "exp_ref(0x" << x << ")";
    in.push_back(float_of(x));
  }
  while (in.size() % 8 != 0) {
    in.push_back(0.0F);
  }
  std::vector<float> out(in.size());
  detail::exp_array(in.data(), static_cast<std::int64_t>(in.size()), out.data());
  for (std::size_t i = 0; i < kExpGolden.size(); ++i) {
    EXPECT_EQ(bits_of(out[i]), kExpGolden[i][1])
        << std::hex << "exp_array(0x" << kExpGolden[i][0] << ")";
  }
}

// exp_array against exp_ref over a strided sweep of all 2^32 bit patterns,
// in place, as the engine's softmax calls it; chunks of 4099 leave a scalar
// tail.
TEST(ExpKernel, ArrayMatchesScalarReferenceOverStridedSweep) {
  constexpr std::uint64_t kStride = 1021;
  constexpr std::int64_t kChunk = 4099;
  std::vector<float> x(kChunk), y(kChunk);
  std::uint64_t mismatches = 0;
  for (std::uint64_t base = 0; base < (std::uint64_t{1} << 32);
       base += kStride * static_cast<std::uint64_t>(kChunk)) {
    for (std::int64_t i = 0; i < kChunk; ++i) {
      x[static_cast<std::size_t>(i)] =
          float_of(static_cast<std::uint32_t>(base + kStride * static_cast<std::uint64_t>(i)));
    }
    y = x;
    detail::exp_array(y.data(), kChunk, y.data());
    for (std::size_t i = 0; i < x.size(); ++i) {
      const std::uint32_t want = bits_of(detail::exp_ref(x[i]));
      if (bits_of(y[i]) != want && mismatches++ == 0) {
        ADD_FAILURE() << std::hex << "exp_array(0x" << bits_of(x[i]) << ") = 0x" << bits_of(y[i])
                      << ", exp_ref gives 0x" << want;
      }
    }
  }
  EXPECT_EQ(mismatches, 0U);
}

// Every tape op with an exp in it reproduces the formula written out with
// exp_ref. The inputs hit the FMA-variant points, so on a host whose libm
// runs glibc's FMA expf a libm call in exp, softmax or cross_entropy would
// show: rows 0, 2 and 3 are <= 0 with a 0, so their max-subtracted rows hold
// -63.0995 itself, and row 1 holds +32.5646 for exp. (sigmoid and
// log_softmax round those 1-ulp differences away; they are checked for
// equality only.)
TEST(ExpKernel, TapeOpsRunTheKernel) {
  constexpr std::size_t kRows = 4;  // cross_entropy's 1/batch is then exact
  constexpr std::size_t kCols = 37;
  Rng rng(29);
  Tensor a = Tensor::randn(Shape{kRows, kCols}, rng, 3.0F);
  std::vector<float> v = a.data();
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t c = 0; c < kCols; ++c) {
      v[r * kCols + c] = -std::fabs(v[r * kCols + c]);
    }
    v[r * kCols] = 0.0F;
    v[r * kCols + 9] = float_of(r == 1 ? kFmaVariantHigh : kFmaVariantLow);
    v[r * kCols + 20] = -float_of(kFmaVariantHigh);
  }
  a = Tensor::from_vector(v, a.shape(), /*requires_grad=*/true);

  const Tensor exp_out = snappix::exp(a);
  const Tensor sigmoid_out = sigmoid(a);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(bits_of(exp_out.data()[i]), bits_of(detail::exp_ref(v[i]))) << "exp " << i;
    EXPECT_EQ(bits_of(sigmoid_out.data()[i]), bits_of(1.0F / (1.0F + detail::exp_ref(-v[i]))))
        << "sigmoid " << i;
  }

  const Tensor softmax_out = softmax(a, -1);
  const Tensor log_softmax_out = log_softmax(a, -1);
  for (std::size_t r = 0; r < kRows; ++r) {
    const float* row = v.data() + r * kCols;
    const std::vector<float> want = softmax_row_ref(row, kCols);
    float mx = -std::numeric_limits<float>::infinity();
    float denom = 0.0F;
    for (std::size_t c = 0; c < kCols; ++c) {
      mx = std::max(mx, row[c]);
    }
    for (std::size_t c = 0; c < kCols; ++c) {
      denom += detail::exp_ref(row[c] - mx);
    }
    const float lse = mx + std::log(denom);
    for (std::size_t c = 0; c < kCols; ++c) {
      EXPECT_EQ(bits_of(softmax_out.data()[r * kCols + c]), bits_of(want[c]))
          << "softmax " << r << "," << c;
      EXPECT_EQ(bits_of(log_softmax_out.data()[r * kCols + c]), bits_of(row[c] - lse))
          << "log_softmax " << r << "," << c;
    }
  }

  // A strided softmax (axis 0) runs the same formula down the columns.
  const Tensor softmax_cols = softmax(a, 0);
  for (std::size_t c = 0; c < kCols; ++c) {
    std::vector<float> column(kRows);
    for (std::size_t r = 0; r < kRows; ++r) {
      column[r] = v[r * kCols + c];
    }
    const std::vector<float> want = softmax_row_ref(column.data(), kRows);
    for (std::size_t r = 0; r < kRows; ++r) {
      EXPECT_EQ(bits_of(softmax_cols.data()[r * kCols + c]), bits_of(want[r]))
          << "softmax axis 0 " << r << "," << c;
    }
  }

  // cross_entropy's gradient is (softmax - onehot) / batch, so it exposes
  // the probabilities the loss was computed from.
  const std::vector<std::int64_t> labels = {9, 0, 20, 5};
  Tensor loss = cross_entropy(a, labels);
  loss.backward();
  const Tensor grad_tensor = a.grad();
  const std::vector<float>& grad = grad_tensor.data();
  float want_loss = 0.0F;
  for (std::size_t r = 0; r < kRows; ++r) {
    const std::vector<float> probs = softmax_row_ref(v.data() + r * kCols, kCols);
    want_loss -= std::log(std::max(probs[static_cast<std::size_t>(labels[r])], 1e-12F));
    for (std::size_t c = 0; c < kCols; ++c) {
      const float onehot = static_cast<std::int64_t>(c) == labels[r] ? 1.0F : 0.0F;
      EXPECT_EQ(bits_of(grad[r * kCols + c]), bits_of(0.25F * (probs[c] - onehot)))
          << "cross_entropy grad " << r << "," << c;
    }
  }
  EXPECT_EQ(bits_of(loss.item()), bits_of(want_loss / 4.0F));
}

TEST(ReduceForward, SumMeanAxes) {
  const Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, Shape{2, 3});
  EXPECT_TRUE(allclose(sum(a, 0), Tensor::from_vector({5, 7, 9}, Shape{3})));
  EXPECT_TRUE(allclose(sum(a, 1), Tensor::from_vector({6, 15}, Shape{2})));
  EXPECT_TRUE(allclose(sum(a, 1, /*keepdim=*/true), Tensor::from_vector({6, 15}, Shape{2, 1})));
  EXPECT_TRUE(allclose(mean(a, -1), Tensor::from_vector({2, 5}, Shape{2})));
  EXPECT_NEAR(sum_all(a).item(), 21.0F, 1e-6F);
  EXPECT_NEAR(mean_all(a).item(), 3.5F, 1e-6F);
}

TEST(ReduceForward, MaxAndArgmax) {
  const Tensor a = Tensor::from_vector({1, 9, 3, 7, 5, 6}, Shape{2, 3});
  EXPECT_TRUE(allclose(max_values(a, 1), Tensor::from_vector({9, 7}, Shape{2})));
  const auto idx = argmax_last_axis(a);
  ASSERT_EQ(idx.size(), 2U);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(SoftmaxForward, RowsSumToOne) {
  Rng rng(7);
  const Tensor a = Tensor::randn(Shape{4, 9}, rng);
  const Tensor s = softmax(a, -1);
  const Tensor row_sums = sum(s, -1);
  EXPECT_TRUE(allclose(row_sums, Tensor::ones(Shape{4}), 1e-5F));
  for (const float v : s.data()) {
    EXPECT_GT(v, 0.0F);
    EXPECT_LT(v, 1.0F);
  }
}

TEST(SoftmaxForward, MatchesLogSoftmax) {
  Rng rng(8);
  const Tensor a = Tensor::randn(Shape{3, 5}, rng);
  const Tensor s = softmax(a, -1);
  const Tensor ls = log_softmax(a, -1);
  EXPECT_TRUE(allclose(log(s), ls, 1e-5F));
}

TEST(SoftmaxForward, StableUnderLargeLogits) {
  const Tensor a = Tensor::from_vector({1000.0F, 1000.0F}, Shape{1, 2});
  const Tensor s = softmax(a, -1);
  EXPECT_NEAR(s.data()[0], 0.5F, 1e-6F);
}

TEST(LossForward, CrossEntropyUniform) {
  const Tensor logits = Tensor::zeros(Shape{2, 4});
  const Tensor ce = cross_entropy(logits, {0, 3});
  EXPECT_NEAR(ce.item(), std::log(4.0F), 1e-5F);
}

TEST(LossForward, CrossEntropyRejectsBadLabels) {
  const Tensor logits = Tensor::zeros(Shape{1, 3});
  EXPECT_THROW(cross_entropy(logits, {3}), std::runtime_error);
  EXPECT_THROW(cross_entropy(logits, {0, 1}), std::runtime_error);
}

TEST(LossForward, MseZeroForIdentical) {
  const Tensor a = Tensor::from_vector({1, 2, 3}, Shape{3});
  EXPECT_NEAR(mse_loss(a, a).item(), 0.0F, 1e-7F);
  const Tensor b = Tensor::from_vector({2, 3, 4}, Shape{3});
  EXPECT_NEAR(mse_loss(a, b).item(), 1.0F, 1e-6F);
}

TEST(ShapeOpsForward, ReshapeTransposePermute) {
  const Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, Shape{2, 3});
  const Tensor r = reshape(a, Shape{3, 2});
  EXPECT_EQ(r.shape(), (Shape{3, 2}));
  EXPECT_EQ(r.at({2, 1}), 6.0F);
  const Tensor t = transpose(a, 0, 1);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.at({0, 1}), 4.0F);
  EXPECT_EQ(t.at({2, 0}), 3.0F);
  const Tensor p = permute(a, {1, 0});
  EXPECT_TRUE(allclose(p, t));
}

TEST(ShapeOpsForward, ConcatAndSlice) {
  const Tensor a = Tensor::from_vector({1, 2, 3, 4}, Shape{2, 2});
  const Tensor b = Tensor::from_vector({5, 6}, Shape{1, 2});
  const Tensor c = concat({a, b}, 0);
  EXPECT_EQ(c.shape(), (Shape{3, 2}));
  EXPECT_EQ(c.at({2, 1}), 6.0F);
  const Tensor s = slice(c, 0, 1, 3);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_EQ(s.at({0, 0}), 3.0F);
  EXPECT_THROW(slice(c, 0, 2, 2), std::runtime_error);
}

TEST(ShapeOpsForward, IndexSelect) {
  const Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, Shape{3, 2});
  const Tensor g = index_select(a, 0, {2, 0});
  EXPECT_EQ(g.shape(), (Shape{2, 2}));
  EXPECT_EQ(g.at({0, 0}), 5.0F);
  EXPECT_EQ(g.at({1, 1}), 2.0F);
  EXPECT_THROW(index_select(a, 0, {3}), std::runtime_error);
}

TEST(ShapeOpsForward, Tile2d) {
  const Tensor a = Tensor::from_vector({1, 2, 3, 4}, Shape{2, 2});
  const Tensor t = tile_2d(a, 2, 3);
  EXPECT_EQ(t.shape(), (Shape{4, 6}));
  // Every tile replicates the pattern.
  for (std::int64_t i = 0; i < 4; ++i) {
    for (std::int64_t j = 0; j < 6; ++j) {
      EXPECT_EQ(t.at({i, j}), a.at({i % 2, j % 2}));
    }
  }
}

TEST(ConvForward, IdentityKernel) {
  Rng rng(3);
  const Tensor x = Tensor::randn(Shape{1, 1, 5, 5}, rng);
  Tensor w = Tensor::zeros(Shape{1, 1, 3, 3});
  w.set_at({0, 0, 1, 1}, 1.0F);
  const Tensor y = conv2d(x, w, Tensor(), /*stride=*/1, /*padding=*/1);
  EXPECT_TRUE(allclose(y, x, 1e-6F));
}

TEST(ConvForward, KnownAverage) {
  const Tensor x = Tensor::ones(Shape{1, 1, 4, 4});
  const Tensor w = Tensor::full(Shape{1, 1, 2, 2}, 0.25F);
  const Tensor y = conv2d(x, w, Tensor(), /*stride=*/2, /*padding=*/0);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_TRUE(allclose(y, Tensor::ones(Shape{1, 1, 2, 2}), 1e-6F));
}

TEST(ConvForward, BiasBroadcasts) {
  const Tensor x = Tensor::zeros(Shape{1, 1, 3, 3});
  const Tensor w = Tensor::zeros(Shape{2, 1, 1, 1});
  const Tensor b = Tensor::from_vector({1.0F, -2.0F}, Shape{2});
  const Tensor y = conv2d(x, w, b, 1, 0);
  EXPECT_EQ(y.shape(), (Shape{1, 2, 3, 3}));
  EXPECT_EQ(y.at({0, 0, 1, 1}), 1.0F);
  EXPECT_EQ(y.at({0, 1, 2, 2}), -2.0F);
}

TEST(PoolForward, AvgAndMax) {
  const Tensor x = Tensor::from_vector({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
                                       Shape{1, 1, 4, 4});
  const Tensor a = avg_pool2d(x, 2, 2);
  EXPECT_TRUE(allclose(a, Tensor::from_vector({3.5F, 5.5F, 11.5F, 13.5F}, Shape{1, 1, 2, 2})));
  const Tensor m = max_pool2d(x, 2, 2);
  EXPECT_TRUE(allclose(m, Tensor::from_vector({6, 8, 14, 16}, Shape{1, 1, 2, 2})));
}

TEST(PoolForward, Avg3d) {
  const Tensor x = Tensor::ones(Shape{1, 1, 4, 4, 4});
  const Tensor y = avg_pool3d(x, 2, 2, 2, 2);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2, 2}));
  EXPECT_TRUE(allclose(y, Tensor::ones(Shape{1, 1, 2, 2, 2})));
}

TEST(Conv3dForward, TemporalIdentity) {
  Rng rng(5);
  const Tensor x = Tensor::randn(Shape{1, 1, 3, 4, 4}, rng);
  Tensor w = Tensor::zeros(Shape{1, 1, 1, 1, 1});
  w.set_at({0, 0, 0, 0, 0}, 1.0F);
  const Tensor y = conv3d(x, w, Tensor(), 1, 1, 0, 0);
  EXPECT_TRUE(allclose(y, x, 1e-6F));
}

// Property sweep: tile_2d forward/backward round-trip over parameter grid.
class TileParamTest : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(TileParamTest, TiledValuesMatchSourcePattern) {
  const auto [th, tw, rh, rw] = GetParam();
  Rng rng(11);
  const Tensor a = Tensor::randn(Shape{th, tw}, rng);
  const Tensor t = tile_2d(a, rh, rw);
  ASSERT_EQ(t.shape(), (Shape{static_cast<std::int64_t>(th) * rh,
                              static_cast<std::int64_t>(tw) * rw}));
  for (std::int64_t i = 0; i < th * rh; ++i) {
    for (std::int64_t j = 0; j < tw * rw; ++j) {
      EXPECT_EQ(t.at({i, j}), a.at({i % th, j % tw}));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TileGrid, TileParamTest,
                         ::testing::Values(std::make_tuple(1, 1, 3, 3),
                                           std::make_tuple(2, 2, 1, 1),
                                           std::make_tuple(2, 3, 4, 2),
                                           std::make_tuple(8, 8, 4, 4),
                                           std::make_tuple(3, 5, 2, 7)));

// Property sweep: softmax rows sum to 1 across shapes and axes.
class SoftmaxParamTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SoftmaxParamTest, NormalizedAlongAxis) {
  const auto [rows, cols, axis] = GetParam();
  Rng rng(13);
  const Tensor a = Tensor::randn(Shape{rows, cols}, rng, 3.0F);
  const Tensor s = softmax(a, axis);
  const Tensor sums = sum(s, axis);
  for (const float v : sums.data()) {
    EXPECT_NEAR(v, 1.0F, 1e-5F);
  }
}

INSTANTIATE_TEST_SUITE_P(SoftmaxGrid, SoftmaxParamTest,
                         ::testing::Values(std::make_tuple(1, 7, 1),
                                           std::make_tuple(5, 3, 0),
                                           std::make_tuple(5, 3, 1),
                                           std::make_tuple(9, 1, 0),
                                           std::make_tuple(4, 16, -1)));

}  // namespace
}  // namespace snappix

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

TEST(ElementwiseForward, SigmoidGelu) {
  const Tensor zero = Tensor::scalar(0.0F);
  EXPECT_NEAR(sigmoid(zero).item(), 0.5F, 1e-6F);
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
// gemm_nn (6x16 AVX2 tiles, 6x8 for a remaining 8-column block, 4-, 2- and
// 1-row tiles for the last rows, scalar 4x8 and 1x8 tiles for the last
// n % 8 columns) must equal the naive triple loop bit for bit: the fused
// serving engine's bit-exactness against the tape rests on it.

namespace {

// The contract: each element sums its k products from +0 in ascending l,
// each product-and-add one fused multiply-add, then folds the sum into c
// with one add.
void gemm_nn_naive(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
                   std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0F;
      for (std::int64_t l = 0; l < k; ++l) {
        acc = std::fma(a[i * k + l], b[l * n + j], acc);
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
  // m reaches every row tile (6, 4, 2, 1) and m % 4 in {0..3}; n % 16 in
  // {0, 8, 5}, with and without a 16-column tile before it; k from a single
  // product to past two tile heights; c starting at +0 (as every caller
  // starts it) and at operands, so the fold into c is pinned on every path.
  for (const std::int64_t m : {4, 5, 6, 7, 8, 11}) {
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
        std::vector<float> c(static_cast<std::size_t>(m * n), 0.0F);
        if (seed % 2 == 0) {
          for (float& v : c) {
            v = gemm_operand(rng, 0.0F);
          }
        }
        std::vector<float> expected = c;
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

// The tanh formula in double precision: 0.5 x (1 + tanh(u)).
double gelu_u(double x) {
  return std::sqrt(2.0 / 3.14159265358979323846) * (x + 0.044715 * x * x * x);
}

double gelu_double(double x) { return 0.5 * x * (1.0 + std::tanh(gelu_u(x))); }

}  // namespace

// gelu_ref's exp form against the double-precision tanh form over a dense
// sweep of the range activations reach, and at the special values.
TEST(GeluKernel, MatchesDoublePrecisionTanhFormula) {
  constexpr int kSteps = 1 << 20;
  double max_error = 0.0;
  for (int i = 0; i <= kSteps; ++i) {
    const float x = -12.0F + 24.0F * static_cast<float>(i) / static_cast<float>(kSteps);
    max_error = std::max(max_error, std::fabs(detail::gelu_ref(x) - gelu_double(x)));
  }
  EXPECT_LT(max_error, 1e-6);

  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(bits_of(detail::gelu_ref(0.0F)), bits_of(0.0F));
  EXPECT_EQ(bits_of(detail::gelu_ref(-0.0F)), bits_of(-0.0F));
  EXPECT_EQ(detail::gelu_ref(inf), inf);
  EXPECT_EQ(detail::gelu_ref(std::numeric_limits<float>::max()),
            std::numeric_limits<float>::max());
  // -inf * (1 + tanh(-inf)) is -inf * 0 in the tanh form too.
  EXPECT_TRUE(std::isnan(gelu_double(-static_cast<double>(inf))));
  EXPECT_TRUE(std::isnan(detail::gelu_ref(-inf)));
  EXPECT_TRUE(std::isnan(detail::gelu_ref(std::numeric_limits<float>::quiet_NaN())));
  // Below x = -10.05, exp(-2u) overflows float; x / inf is -0, within 1e-37
  // of the exact value.
  for (const float x : {-10.5F, -12.0F, -100.0F, -std::numeric_limits<float>::max()}) {
    EXPECT_GT(-2.0 * gelu_u(x), std::log(static_cast<double>(std::numeric_limits<float>::max())))
        << x;
    EXPECT_LT(std::fabs(gelu_double(x)), 1e-37) << x;
    EXPECT_EQ(bits_of(detail::gelu_ref(x)), bits_of(-0.0F)) << x;
  }
}

// The AVX2 path against the scalar reference over a strided sweep of all
// 2^32 bit patterns (every sign, exponent, NaN payload and branch; the odd
// stride walks the mantissa bits too). Chunks of 4099 leave a scalar tail and
// a partial exp chunk, and the GELU runs in place, as the serving engine
// calls it.
TEST(GeluKernel, ArrayPathsMatchScalarReferenceOverStridedSweep) {
  constexpr std::uint64_t kStride = 1021;
  constexpr std::int64_t kChunk = 4099;
  std::vector<float> x(kChunk), g(kChunk);
  std::uint64_t mismatches = 0;
  for (std::uint64_t base = 0; base < (std::uint64_t{1} << 32);
       base += kStride * static_cast<std::uint64_t>(kChunk)) {
    for (std::int64_t i = 0; i < kChunk; ++i) {
      x[static_cast<std::size_t>(i)] =
          float_of(static_cast<std::uint32_t>(base + kStride * static_cast<std::uint64_t>(i)));
    }
    g = x;
    detail::gelu_array(g.data(), kChunk, g.data());
    for (std::size_t i = 0; i < x.size(); ++i) {
      const std::uint32_t want = bits_of(detail::gelu_ref(x[i]));
      if (bits_of(g[i]) != want && mismatches++ == 0) {
        ADD_FAILURE() << std::hex << "gelu_array(0x" << bits_of(x[i]) << ") = 0x" << bits_of(g[i])
                      << ", gelu_ref gives 0x" << want;
      }
    }
  }
  EXPECT_EQ(mismatches, 0U);
}

TEST(GeluKernel, TapeOpsRunTheKernel) {
  Rng rng(23);
  const Tensor a = Tensor::randn(Shape{3, 37}, rng, 3.0F);
  const Tensor gelu_out = gelu(a);
  for (std::size_t i = 0; i < a.data().size(); ++i) {
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

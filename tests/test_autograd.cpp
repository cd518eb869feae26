// Gradient-check tests: every differentiable op is verified against central
// differences, plus tape-engine behaviour (accumulation, reuse, no-grad).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "gradcheck.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace snappix {
namespace {

using testing::max_grad_error;

constexpr float kTol = 2e-2F;  // central differences in float32

TEST(Autograd, AddBackward) {
  Rng rng(1);
  Tensor a = Tensor::randn(Shape{3, 4}, rng, 1.0F, true);
  Tensor b = Tensor::randn(Shape{3, 4}, rng, 1.0F, true);
  EXPECT_LT(max_grad_error([&] { return sum_all(add(a, b)); }, {a, b}), kTol);
}

TEST(Autograd, MulBackwardBroadcast) {
  Rng rng(2);
  Tensor a = Tensor::randn(Shape{3, 4}, rng, 1.0F, true);
  Tensor b = Tensor::randn(Shape{4}, rng, 1.0F, true);
  EXPECT_LT(max_grad_error([&] { return sum_all(mul(a, b)); }, {a, b}), kTol);
}

TEST(Autograd, DivBackward) {
  Rng rng(3);
  Tensor a = Tensor::randn(Shape{2, 3}, rng, 1.0F, true);
  Tensor b = add_scalar(Tensor::rand_uniform(Shape{2, 3}, rng, 0.5F, 1.5F), 0.0F);
  b.set_requires_grad(true);
  EXPECT_LT(max_grad_error([&] { return sum_all(div(a, b)); }, {a, b}), kTol);
}

TEST(Autograd, BroadcastColumnBackward) {
  Rng rng(4);
  Tensor a = Tensor::randn(Shape{3, 4}, rng, 1.0F, true);
  Tensor c = Tensor::randn(Shape{3, 1}, rng, 1.0F, true);
  EXPECT_LT(max_grad_error([&] { return sum_all(mul(a, c)); }, {a, c}), kTol);
}

TEST(Autograd, UnaryChain) {
  Rng rng(5);
  Tensor a = Tensor::rand_uniform(Shape{8}, rng, 0.1F, 2.0F, true);
  EXPECT_LT(max_grad_error([&] { return sum_all(log(add_scalar(square(a), 1.0F))); }, {a}), kTol);
}

TEST(Autograd, ExpSqrtSigmoid) {
  Rng rng(6);
  Tensor a = Tensor::rand_uniform(Shape{6}, rng, 0.2F, 1.5F, true);
  EXPECT_LT(max_grad_error([&] { return sum_all(exp(a)); }, {a}), kTol);
  EXPECT_LT(max_grad_error([&] { return sum_all(snappix::sqrt(a)); }, {a}), kTol);
  EXPECT_LT(max_grad_error([&] { return sum_all(sigmoid(a)); }, {a}), kTol);
}

TEST(Autograd, GeluBackward) {
  Rng rng(7);
  Tensor a = Tensor::randn(Shape{10}, rng, 2.0F, true);
  EXPECT_LT(max_grad_error([&] { return sum_all(gelu(a)); }, {a}), kTol);
}

TEST(Autograd, PowScalarBackward) {
  Rng rng(8);
  Tensor a = Tensor::rand_uniform(Shape{5}, rng, 0.5F, 2.0F, true);
  EXPECT_LT(max_grad_error([&] { return sum_all(pow_scalar(a, 3.0F)); }, {a}), kTol);
}

TEST(Autograd, MatmulBackward2d) {
  Rng rng(9);
  Tensor a = Tensor::randn(Shape{3, 4}, rng, 1.0F, true);
  Tensor b = Tensor::randn(Shape{4, 2}, rng, 1.0F, true);
  EXPECT_LT(max_grad_error([&] { return sum_all(matmul(a, b)); }, {a, b}), kTol);
}

TEST(Autograd, MatmulBackwardBatched) {
  Rng rng(10);
  Tensor a = Tensor::randn(Shape{2, 3, 4}, rng, 1.0F, true);
  Tensor b = Tensor::randn(Shape{2, 4, 2}, rng, 1.0F, true);
  EXPECT_LT(max_grad_error([&] { return sum_all(matmul(a, b)); }, {a, b}), kTol);
}

TEST(Autograd, MatmulBackwardBroadcastRhs) {
  Rng rng(11);
  Tensor a = Tensor::randn(Shape{2, 3, 4}, rng, 1.0F, true);
  Tensor b = Tensor::randn(Shape{4, 2}, rng, 1.0F, true);
  EXPECT_LT(max_grad_error([&] { return sum_all(matmul(a, b)); }, {a, b}), kTol);
}

TEST(Autograd, MatmulBackwardTileBoundaryShapes) {
  // The register-tiled backward kernels (gemm_nt 4x4 tiles, gemm_tn 4x8
  // tiles) have row/column tails at every non-multiple size; gradcheck a
  // spread of shapes that straddle the boundaries from both sides.
  const std::vector<std::array<std::int64_t, 3>> shapes = {
      {1, 1, 1}, {3, 5, 2}, {4, 4, 8}, {5, 9, 11}, {8, 16, 4}, {13, 7, 9}};
  std::uint64_t seed = 100;
  for (const auto& [m, k, n] : shapes) {
    Rng rng(seed++);
    Tensor a = Tensor::randn(Shape{m, k}, rng, 1.0F, true);
    Tensor b = Tensor::randn(Shape{k, n}, rng, 1.0F, true);
    EXPECT_LT(max_grad_error([&] { return sum_all(matmul(a, b)); }, {a, b}), kTol)
        << "shape " << m << "x" << k << "x" << n;
  }
}

TEST(Autograd, SumMeanAxisBackward) {
  Rng rng(12);
  Tensor a = Tensor::randn(Shape{3, 5}, rng, 1.0F, true);
  EXPECT_LT(max_grad_error([&] { return sum_all(square(sum(a, 0))); }, {a}), kTol);
  EXPECT_LT(max_grad_error([&] { return sum_all(square(mean(a, 1))); }, {a}), kTol);
}

TEST(Autograd, MaxBackwardRoutesToArgmax) {
  Tensor a = Tensor::from_vector({1, 5, 2, 7, 3, 4}, Shape{2, 3}).set_requires_grad(true);
  Tensor loss = sum_all(max_values(a, 1));
  loss.backward();
  const auto g = a.grad().data();
  EXPECT_EQ(g[1], 1.0F);  // argmax of row 0
  EXPECT_EQ(g[3], 1.0F);  // argmax of row 1
  EXPECT_EQ(g[0] + g[2] + g[4] + g[5], 0.0F);
}

TEST(Autograd, SoftmaxBackward) {
  Rng rng(13);
  Tensor a = Tensor::randn(Shape{3, 4}, rng, 1.0F, true);
  Tensor w = Tensor::randn(Shape{3, 4}, rng);
  EXPECT_LT(max_grad_error([&] { return sum_all(mul(softmax(a, -1), w)); }, {a}), kTol);
}

TEST(Autograd, LogSoftmaxBackward) {
  Rng rng(14);
  Tensor a = Tensor::randn(Shape{3, 4}, rng, 1.0F, true);
  Tensor w = Tensor::randn(Shape{3, 4}, rng);
  EXPECT_LT(max_grad_error([&] { return sum_all(mul(log_softmax(a, -1), w)); }, {a}), kTol);
}

TEST(Autograd, CrossEntropyBackward) {
  Rng rng(15);
  Tensor logits = Tensor::randn(Shape{4, 5}, rng, 1.0F, true);
  const std::vector<std::int64_t> labels{0, 2, 4, 1};
  EXPECT_LT(max_grad_error([&] { return cross_entropy(logits, labels); }, {logits}), kTol);
}

TEST(Autograd, MseBackwardBothSides) {
  Rng rng(16);
  Tensor p = Tensor::randn(Shape{6}, rng, 1.0F, true);
  Tensor t = Tensor::randn(Shape{6}, rng, 1.0F, true);
  EXPECT_LT(max_grad_error([&] { return mse_loss(p, t); }, {p, t}), kTol);
}

TEST(Autograd, MaskedMseBackward) {
  Rng rng(17);
  Tensor p = Tensor::randn(Shape{8}, rng, 1.0F, true);
  Tensor t = Tensor::randn(Shape{8}, rng);
  const Tensor m = Tensor::from_vector({1, 0, 1, 1, 0, 0, 1, 0}, Shape{8});
  EXPECT_LT(max_grad_error([&] { return masked_mse_loss(p, t, m); }, {p}), kTol);
}

TEST(Autograd, ReshapeTransposeBackward) {
  Rng rng(18);
  Tensor a = Tensor::randn(Shape{3, 4}, rng, 1.0F, true);
  EXPECT_LT(max_grad_error([&] { return sum_all(square(reshape(a, Shape{4, 3}))); }, {a}), kTol);
  EXPECT_LT(max_grad_error([&] { return sum_all(square(transpose(a, 0, 1))); }, {a}), kTol);
}

TEST(Autograd, PermuteBackward) {
  Rng rng(19);
  Tensor a = Tensor::randn(Shape{2, 3, 4}, rng, 1.0F, true);
  EXPECT_LT(max_grad_error([&] { return sum_all(square(permute(a, {2, 0, 1}))); }, {a}), kTol);
}

TEST(Autograd, ConcatSliceBackward) {
  Rng rng(20);
  Tensor a = Tensor::randn(Shape{2, 3}, rng, 1.0F, true);
  Tensor b = Tensor::randn(Shape{2, 3}, rng, 1.0F, true);
  EXPECT_LT(max_grad_error([&] { return sum_all(square(concat({a, b}, 0))); }, {a, b}), kTol);
  EXPECT_LT(max_grad_error([&] { return sum_all(square(slice(a, 1, 1, 3))); }, {a}), kTol);
}

TEST(Autograd, IndexSelectBackward) {
  Rng rng(21);
  Tensor a = Tensor::randn(Shape{5, 3}, rng, 1.0F, true);
  // Repeated index exercises gradient accumulation on the same row.
  EXPECT_LT(max_grad_error([&] { return sum_all(square(index_select(a, 0, {0, 2, 2, 4}))); }, {a}),
            kTol);
}

TEST(Autograd, Tile2dBackward) {
  Rng rng(22);
  Tensor a = Tensor::randn(Shape{2, 2}, rng, 1.0F, true);
  EXPECT_LT(max_grad_error([&] { return sum_all(square(tile_2d(a, 3, 2))); }, {a}), kTol);
}

TEST(Autograd, Conv2dBackwardAllInputs) {
  Rng rng(23);
  Tensor x = Tensor::randn(Shape{2, 2, 5, 5}, rng, 1.0F, true);
  Tensor w = Tensor::randn(Shape{3, 2, 3, 3}, rng, 0.5F, true);
  Tensor b = Tensor::randn(Shape{3}, rng, 0.5F, true);
  EXPECT_LT(max_grad_error([&] { return sum_all(square(conv2d(x, w, b, 2, 1))); }, {x, w, b}),
            5e-2F);
}

TEST(Autograd, Conv3dBackwardAllInputs) {
  Rng rng(24);
  Tensor x = Tensor::randn(Shape{1, 2, 4, 4, 4}, rng, 1.0F, true);
  Tensor w = Tensor::randn(Shape{2, 2, 2, 2, 2}, rng, 0.5F, true);
  Tensor b = Tensor::randn(Shape{2}, rng, 0.5F, true);
  EXPECT_LT(
      max_grad_error([&] { return sum_all(square(conv3d(x, w, b, 2, 2, 1, 1))); }, {x, w, b}),
      5e-2F);
}

TEST(Autograd, PoolBackward) {
  Rng rng(25);
  Tensor x = Tensor::randn(Shape{1, 2, 4, 4}, rng, 1.0F, true);
  EXPECT_LT(max_grad_error([&] { return sum_all(square(avg_pool2d(x, 2, 2))); }, {x}), kTol);
  EXPECT_LT(max_grad_error([&] { return sum_all(square(max_pool2d(x, 2, 2))); }, {x}), kTol);
  Tensor x3 = Tensor::randn(Shape{1, 1, 4, 4, 4}, rng, 1.0F, true);
  EXPECT_LT(max_grad_error([&] { return sum_all(square(avg_pool3d(x3, 2, 2, 2, 2))); }, {x3}),
            kTol);
}

TEST(Autograd, BinarizeSteStraightThrough) {
  Tensor w = Tensor::from_vector({0.2F, 0.8F, -0.5F, 1.5F}, Shape{4}).set_requires_grad(true);
  Tensor out = binarize_ste(w);
  EXPECT_TRUE(allclose(out, Tensor::from_vector({0, 1, 0, 1}, Shape{4})));
  sum_all(out).backward();
  const auto g = w.grad().data();
  // Inside the pass band [0,1] the gradient passes through; outside it is cut.
  EXPECT_EQ(g[0], 1.0F);
  EXPECT_EQ(g[1], 1.0F);
  EXPECT_EQ(g[2], 0.0F);
  EXPECT_EQ(g[3], 0.0F);
}

TEST(Autograd, GradAccumulatesAcrossBackwardCalls) {
  Tensor a = Tensor::scalar(2.0F, true);
  Tensor l1 = square(a);
  l1.backward();
  EXPECT_NEAR(a.grad().item(), 4.0F, 1e-5F);
  Tensor l2 = square(a);
  l2.backward();
  EXPECT_NEAR(a.grad().item(), 8.0F, 1e-5F);
  a.zero_grad();
  EXPECT_NEAR(a.grad().item(), 0.0F, 1e-7F);
}

TEST(Autograd, DiamondGraphAccumulates) {
  Tensor a = Tensor::scalar(3.0F, true);
  Tensor b = square(a);          // 9
  Tensor c = add(b, b);          // used twice
  sum_all(c).backward();
  // d/da [2 * a^2] = 4a = 12
  EXPECT_NEAR(a.grad().item(), 12.0F, 1e-4F);
}

TEST(Autograd, SharedLeafThroughTwoPaths) {
  Tensor a = Tensor::scalar(2.0F, true);
  Tensor out = add(mul(a, a), a);  // a^2 + a, d/da = 2a + 1 = 5
  out.backward();
  EXPECT_NEAR(a.grad().item(), 5.0F, 1e-5F);
}

TEST(Autograd, NoGradGuardStopsTape) {
  Tensor a = Tensor::scalar(2.0F, true);
  {
    NoGradGuard guard;
    Tensor b = square(a);
    EXPECT_FALSE(b.requires_grad());
  }
  Tensor c = square(a);
  EXPECT_TRUE(c.requires_grad());
}

TEST(Autograd, BackwardRequiresScalar) {
  Tensor a = Tensor::ones(Shape{2}, true);
  Tensor b = square(a);
  EXPECT_THROW(b.backward(), std::runtime_error);
}

TEST(Autograd, BackwardOnNonGradTensorThrows) {
  Tensor a = Tensor::scalar(1.0F);
  EXPECT_THROW(a.backward(), std::runtime_error);
}

TEST(Autograd, DropoutBackwardMatchesMask) {
  Rng rng(30);
  Tensor a = Tensor::ones(Shape{1000}, true);
  Tensor d = dropout(a, 0.5F, rng, /*training=*/true);
  sum_all(d).backward();
  // Gradient equals the dropout mask scaling; ~half the entries are 2.0.
  std::int64_t alive = 0;
  for (const float g : std::vector<float>(a.grad().data())) {
    EXPECT_TRUE(g == 0.0F || std::fabs(g - 2.0F) < 1e-6F);
    if (g != 0.0F) {
      ++alive;
    }
  }
  EXPECT_GT(alive, 350);
  EXPECT_LT(alive, 650);
}

TEST(Autograd, DropoutEvalIsIdentity) {
  Rng rng(31);
  Tensor a = Tensor::randn(Shape{16}, rng, 1.0F, true);
  Tensor d = dropout(a, 0.9F, rng, /*training=*/false);
  EXPECT_TRUE(allclose(d, a));
}

// Parameterized gradcheck sweep over a grid of composite expressions.
class CompositeGradTest : public ::testing::TestWithParam<int> {};

TEST_P(CompositeGradTest, EndToEndGradcheck) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  Tensor x = Tensor::randn(Shape{4, 6}, rng, 0.7F, true);
  Tensor w1 = Tensor::randn(Shape{6, 5}, rng, 0.5F, true);
  Tensor w2 = Tensor::randn(Shape{5, 3}, rng, 0.5F, true);
  auto fn = [&] {
    Tensor h = gelu(matmul(x, w1));
    Tensor y = matmul(h, w2);
    Tensor s = softmax(y, -1);
    return mean_all(square(s));
  };
  EXPECT_LT(max_grad_error(fn, {x, w1, w2}), 5e-2F);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompositeGradTest, ::testing::Range(100, 106));

}  // namespace
}  // namespace snappix

// google-benchmark micro-benchmarks for the tensor/autograd hot paths.
#include <benchmark/benchmark.h>

#include <vector>

#include "nn/attention.h"
#include "tensor/exp.h"
#include "tensor/gelu.h"
#include "tensor/gemm.h"
#include "tensor/gemm_s8.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace {

using namespace snappix;

// The forward GEMM kernel at the shapes the fp32 engine serves: m = 128
// token rows (a 32x32 batch-8 classify) against (k, n) = patch embed
// (64, 48), qkv (48, 144), proj (48, 48), fc1 (48, 96), fc2 (96, 48) and the
// REC head (48, 1024), on preallocated buffers.
void BM_GemmNn(benchmark::State& state) {
  constexpr std::int64_t m = 128;
  const auto k = state.range(0);
  const auto n = state.range(1);
  Rng rng(1);
  std::vector<float> a(static_cast<std::size_t>(m * k)), b(static_cast<std::size_t>(k * n)),
      c(static_cast<std::size_t>(m * n), 0.0F);
  for (auto& v : a) {
    v = rng.uniform(-1.0F, 1.0F);
  }
  for (auto& v : b) {
    v = rng.uniform(-1.0F, 1.0F);
  }
  for (auto _ : state) {
    detail::gemm_nn(a.data(), b.data(), c.data(), m, k, n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOP"] = benchmark::Counter(
      2e-9 * static_cast<double>(m * k * n), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GemmNn)->Args({64, 48})->Args({48, 144})->Args({48, 48})->Args({48, 96})->Args(
    {96, 48})->Args({48, 1024});

void BM_MatmulTrainStep(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(2);
  Tensor a = Tensor::randn(Shape{n, n}, rng, 1.0F, true);
  const Tensor b = Tensor::randn(Shape{n, n}, rng);
  for (auto _ : state) {
    a.zero_grad();
    Tensor loss = mean_all(square(matmul(a, b)));
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_MatmulTrainStep)->Arg(32)->Arg(64)->Arg(128);

// Raw backward GEMM kernels (matmul's gradient path): the register-tiled
// rewrites must show up here as items/sec gains over the old streaming
// versions while the gradcheck/bit-identity suites pin their exactness.
void BM_GemmNtBackward(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(31);
  std::vector<float> a(static_cast<std::size_t>(n * n)), b(static_cast<std::size_t>(n * n)),
      c(static_cast<std::size_t>(n * n), 0.0F);
  for (auto& v : a) {
    v = rng.uniform(-1.0F, 1.0F);
  }
  for (auto& v : b) {
    v = rng.uniform(-1.0F, 1.0F);
  }
  for (auto _ : state) {
    detail::gemm_nt(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNtBackward)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmTnBackward(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(37);
  std::vector<float> a(static_cast<std::size_t>(n * n)), b(static_cast<std::size_t>(n * n)),
      c(static_cast<std::size_t>(n * n), 0.0F);
  for (auto& v : a) {
    v = rng.uniform(-1.0F, 1.0F);
  }
  for (auto& v : b) {
    v = rng.uniform(-1.0F, 1.0F);
  }
  for (auto _ : state) {
    detail::gemm_tn(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmTnBackward)->Arg(64)->Arg(128)->Arg(256);

// The int8 serving GEMM against the fp32 forward kernel at the same shape —
// the kernel-level slice of the BENCH_int8.json frontier. Times what the
// int8 engine runs per linear: gemm_s8_rows over weights packed once (the
// engine packs at build) on int8 activations, so AMX tiles where the host
// grants them. Second argument 1: weights packed with the pair kernel
// pinned, so the AVX2 pair kernel runs (widening included).
void BM_GemmS8Forward(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(41);
  std::vector<std::int8_t> a(static_cast<std::size_t>(n * n)),
      b(static_cast<std::size_t>(n * n));
  std::vector<std::int32_t> c(static_cast<std::size_t>(n * n));
  for (auto& v : a) {
    v = static_cast<std::int8_t>(static_cast<int>(rng.uniform() * 255.0F) - 127);
  }
  for (auto& v : b) {
    v = static_cast<std::int8_t>(static_cast<int>(rng.uniform() * 255.0F) - 127);
  }
  const detail::PackedS8Weights packed = [&] {
    if (state.range(1) == 0) {
      return detail::pack_s8_weights(b.data(), n, n);
    }
    const detail::ScopedS8PairKernel pin;
    return detail::pack_s8_weights(b.data(), n, n);
  }();
  std::vector<std::int16_t> scratch(static_cast<std::size_t>(n * 2 * detail::s8_pair_count(n)));
  for (auto _ : state) {
    detail::gemm_s8_rows(a.data(), packed, c.data(), n, scratch.data());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmS8Forward)->ArgsProduct({{64, 128, 256}, {0, 1}});

// The fp32 softmax's exps for one 32x32 batch-8 classify (24,576 values,
// max-subtracted scores in [-16, 0]): exp_array, as the engine calls it, and
// a per-element exp_ref loop. Same bits; the ratio is the kernel's width.
std::vector<float> softmax_range_inputs() {
  Rng rng(43);
  std::vector<float> x(24576);
  for (auto& v : x) {
    v = rng.uniform(-16.0F, 0.0F);
  }
  return x;
}

void BM_ExpArray(benchmark::State& state) {
  const std::vector<float> x = softmax_range_inputs();
  std::vector<float> y(x.size());
  for (auto _ : state) {
    detail::exp_array(x.data(), static_cast<std::int64_t>(x.size()), y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_ExpArray);

void BM_ExpRef(benchmark::State& state) {
  const std::vector<float> x = softmax_range_inputs();
  std::vector<float> y(x.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      y[i] = detail::exp_ref(x[i]);
    }
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_ExpRef);

// The fp32 engine's GELU for one 32x32 batch-8 classify: 128 token rows x
// 96 hidden x 3 blocks = 36,864 fc1 outputs.
void BM_GeluArray(benchmark::State& state) {
  Rng rng(47);
  std::vector<float> x(36864);
  for (auto& v : x) {
    v = rng.uniform(-4.0F, 4.0F);
  }
  std::vector<float> y(x.size());
  for (auto _ : state) {
    detail::gelu_array(x.data(), static_cast<std::int64_t>(x.size()), y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_GeluArray);

void BM_SoftmaxForward(benchmark::State& state) {
  Rng rng(3);
  NoGradGuard guard;
  const Tensor a = Tensor::randn(Shape{64, state.range(0)}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(softmax(a, -1).data().data());
  }
}
BENCHMARK(BM_SoftmaxForward)->Arg(64)->Arg(256)->Arg(1024);

void BM_Conv2dForward(benchmark::State& state) {
  Rng rng(4);
  NoGradGuard guard;
  const Tensor x = Tensor::randn(Shape{1, 8, state.range(0), state.range(0)}, rng);
  const Tensor w = Tensor::randn(Shape{16, 8, 3, 3}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv2d(x, w, Tensor(), 1, 1).data().data());
  }
}
BENCHMARK(BM_Conv2dForward)->Arg(16)->Arg(32)->Arg(64);

void BM_TransformerBlockForward(benchmark::State& state) {
  Rng rng(5);
  NoGradGuard guard;
  nn::TransformerBlock block(64, 4, 2.0F, rng);
  const Tensor x = Tensor::randn(Shape{8, state.range(0), 64}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(block.forward(x).data().data());
  }
}
BENCHMARK(BM_TransformerBlockForward)->Arg(16)->Arg(64)->Arg(196);

void BM_BroadcastAdd(benchmark::State& state) {
  Rng rng(6);
  NoGradGuard guard;
  const Tensor a = Tensor::randn(Shape{64, state.range(0)}, rng);
  const Tensor b = Tensor::randn(Shape{state.range(0)}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(add(a, b).data().data());
  }
}
BENCHMARK(BM_BroadcastAdd)->Arg(64)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();

// Raw single-precision GEMM kernels shared by the autograd matmul op and the
// fused serving engine (runtime/engine.cpp).
//
// The serving engine must produce logits bit-identical to the tape-based
// forward pass, so it calls the *same* kernel the matmul op uses rather than
// reimplementing the loop (identical code + identical flags = identical
// floating-point results).
#pragma once

#include <cstdint>

namespace snappix::detail {

// c(m,n) += a(m,k) * b(k,n). Each element sums its k products from +0 in
// ascending order, each product-and-add one fused multiply-add (a single
// IEEE rounding, the same bits on every host and vector width), and folds
// the total into c with one add. The tape's matmul and the engines start c
// at +0. Runs on the calling thread; the tape's matmul op fans large
// products out over row blocks.
void gemm_nn(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
             std::int64_t n);

// The backward kernels below run only in training, so they stay unfused:
// every product and add is its own rounding step.
//
// c(m,k) += a(m,n) * b(k,n)^T  (i.e. a * b^T). Register-tiled like gemm_nn;
// each element still sums its n products in ascending order into a fresh
// accumulator and folds it into c with one add, so results are bit-identical
// to the naive loop.
void gemm_nt(const float* a, const float* b, float* c, std::int64_t m, std::int64_t n,
             std::int64_t k);

// c(k,n) += a(m,k)^T * b(m,n). Register-tiled; each element's read-modify-
// write chain ((c + p_0) + p_1) + ... runs in ascending-m order with the
// historical av == 0 skip preserved, so results are bit-identical to the
// naive loop even when c starts nonzero (grad accumulation relies on this).
void gemm_tn(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
             std::int64_t n);

}  // namespace snappix::detail

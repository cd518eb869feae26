// Matrix multiplication with 2-D, batched 3-D, and batch-broadcast forms.
#include <algorithm>
#include <utility>

#include "tensor/gemm.h"
#include "tensor/tensor.h"
#include "util/common.h"
#include "util/parallel.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace snappix {

namespace detail {

// c(m,n) (+)= a(m,k) * b(k,n), register-tiled, single-threaded.
//
// Accumulator tiles are held in registers across the whole k loop, so each b
// element is loaded once per 4 rows and each c element is touched once
// instead of k times. The AVX2 tile is 4 rows x 16 columns: 8 independent
// 8-lane add chains, enough to cover the add latency. The 4x8 tile below it
// serves a remaining 8-column block (and the whole width in builds without
// AVX2), and the streaming loop serves the last n % 8 columns. Every output
// element, in every tile and tail, accumulates its k products from +0 in
// ascending-l order with separate mul and add and folds the total into c
// with one add, so results are bit-identical to the naive triple loop (the
// fused serving engine and the determinism tests rely on this).
void gemm_nn(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
             std::int64_t n) {
  std::int64_t j0 = 0;
#if defined(__AVX2__)
  for (; j0 + 16 <= n; j0 += 16) {
    std::int64_t i = 0;
    for (; i + 4 <= m; i += 4) {
      const float* a0 = a + i * k;
      const float* a1 = a0 + k;
      const float* a2 = a1 + k;
      const float* a3 = a2 + k;
      __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
      __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
      __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
      __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
      for (std::int64_t l = 0; l < k; ++l) {
        const float* bp = b + l * n + j0;
        const __m256 b0 = _mm256_loadu_ps(bp);
        const __m256 b1 = _mm256_loadu_ps(bp + 8);
        const __m256 av0 = _mm256_set1_ps(a0[l]);
        const __m256 av1 = _mm256_set1_ps(a1[l]);
        const __m256 av2 = _mm256_set1_ps(a2[l]);
        const __m256 av3 = _mm256_set1_ps(a3[l]);
        c00 = _mm256_add_ps(c00, _mm256_mul_ps(av0, b0));
        c01 = _mm256_add_ps(c01, _mm256_mul_ps(av0, b1));
        c10 = _mm256_add_ps(c10, _mm256_mul_ps(av1, b0));
        c11 = _mm256_add_ps(c11, _mm256_mul_ps(av1, b1));
        c20 = _mm256_add_ps(c20, _mm256_mul_ps(av2, b0));
        c21 = _mm256_add_ps(c21, _mm256_mul_ps(av2, b1));
        c30 = _mm256_add_ps(c30, _mm256_mul_ps(av3, b0));
        c31 = _mm256_add_ps(c31, _mm256_mul_ps(av3, b1));
      }
      const __m256 acc[4][2] = {{c00, c01}, {c10, c11}, {c20, c21}, {c30, c31}};
      for (int r = 0; r < 4; ++r) {
        float* crow = c + (i + r) * n + j0;
        _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), acc[r][0]));
        _mm256_storeu_ps(crow + 8, _mm256_add_ps(_mm256_loadu_ps(crow + 8), acc[r][1]));
      }
    }
    for (; i < m; ++i) {  // row tail: one row x 16 columns
      const float* arow = a + i * k;
      __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
      for (std::int64_t l = 0; l < k; ++l) {
        const float* bp = b + l * n + j0;
        const __m256 av = _mm256_set1_ps(arow[l]);
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(av, _mm256_loadu_ps(bp)));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(av, _mm256_loadu_ps(bp + 8)));
      }
      float* crow = c + i * n + j0;
      _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), acc0));
      _mm256_storeu_ps(crow + 8, _mm256_add_ps(_mm256_loadu_ps(crow + 8), acc1));
    }
  }
#endif
  for (; j0 + 8 <= n; j0 += 8) {
    std::int64_t i = 0;
    for (; i + 4 <= m; i += 4) {
      const float* a0 = a + i * k;
      const float* a1 = a0 + k;
      const float* a2 = a1 + k;
      const float* a3 = a2 + k;
      float acc[4][8] = {};
      for (std::int64_t l = 0; l < k; ++l) {
        const float* bp = b + l * n + j0;
        const float av0 = a0[l], av1 = a1[l], av2 = a2[l], av3 = a3[l];
        for (int j = 0; j < 8; ++j) {
          const float bv = bp[j];
          acc[0][j] += av0 * bv;
          acc[1][j] += av1 * bv;
          acc[2][j] += av2 * bv;
          acc[3][j] += av3 * bv;
        }
      }
      for (int r = 0; r < 4; ++r) {
        for (int j = 0; j < 8; ++j) {
          c[(i + r) * n + j0 + j] += acc[r][j];
        }
      }
    }
    for (; i < m; ++i) {  // row tail
      const float* arow = a + i * k;
      float acc[8] = {};
      for (std::int64_t l = 0; l < k; ++l) {
        const float* bp = b + l * n + j0;
        const float av = arow[l];
        for (int j = 0; j < 8; ++j) {
          acc[j] += av * bp[j];
        }
      }
      for (int j = 0; j < 8; ++j) {
        c[i * n + j0 + j] += acc[j];
      }
    }
  }
  if (j0 < n) {  // column tail: streaming accumulation over the remainder
    const std::int64_t nt = n - j0;
    for (std::int64_t i = 0; i < m; ++i) {
      float* crow = c + i * n + j0;
      const float* arow = a + i * k;
      for (std::int64_t l = 0; l < k; ++l) {
        const float av = arow[l];
        const float* bp = b + l * n + j0;
        for (std::int64_t j = 0; j < nt; ++j) {
          crow[j] += av * bp[j];
        }
      }
    }
  }
}

// c(m,k) += a(m,n) * b(k,n)^T  (i.e. a * b^T), register-tiled.
//
// 4x4 output tiles hold their dot-product accumulators in registers, so each
// a and b element is loaded once per 4 outputs instead of once per output.
// Per element the operation sequence is unchanged from the streaming kernel:
// a zero-initialized accumulator sums the n products in ascending-l order
// with separate mul and add, then one add folds it into c — so the tiled
// kernel is bit-identical to the naive loop (training gradients depend on
// this; see the GemmBackwardKernels regression tests).
void gemm_nt(const float* a, const float* b, float* c, std::int64_t m, std::int64_t n,
             std::int64_t k) {
  std::int64_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const float* a0 = a + i * n;
    const float* a1 = a0 + n;
    const float* a2 = a1 + n;
    const float* a3 = a2 + n;
    std::int64_t j = 0;
    for (; j + 4 <= k; j += 4) {
      const float* b0 = b + j * n;
      const float* b1 = b0 + n;
      const float* b2 = b1 + n;
      const float* b3 = b2 + n;
      float acc[4][4] = {};
      for (std::int64_t l = 0; l < n; ++l) {
        const float av0 = a0[l], av1 = a1[l], av2 = a2[l], av3 = a3[l];
        const float bv0 = b0[l], bv1 = b1[l], bv2 = b2[l], bv3 = b3[l];
        acc[0][0] += av0 * bv0;
        acc[0][1] += av0 * bv1;
        acc[0][2] += av0 * bv2;
        acc[0][3] += av0 * bv3;
        acc[1][0] += av1 * bv0;
        acc[1][1] += av1 * bv1;
        acc[1][2] += av1 * bv2;
        acc[1][3] += av1 * bv3;
        acc[2][0] += av2 * bv0;
        acc[2][1] += av2 * bv1;
        acc[2][2] += av2 * bv2;
        acc[2][3] += av2 * bv3;
        acc[3][0] += av3 * bv0;
        acc[3][1] += av3 * bv1;
        acc[3][2] += av3 * bv2;
        acc[3][3] += av3 * bv3;
      }
      for (int r = 0; r < 4; ++r) {
        for (int q = 0; q < 4; ++q) {
          c[(i + r) * k + j + q] += acc[r][q];
        }
      }
    }
    for (; j < k; ++j) {  // column tail: 4 rows x 1 output
      const float* brow = b + j * n;
      float acc[4] = {};
      for (std::int64_t l = 0; l < n; ++l) {
        const float bv = brow[l];
        acc[0] += a0[l] * bv;
        acc[1] += a1[l] * bv;
        acc[2] += a2[l] * bv;
        acc[3] += a3[l] * bv;
      }
      for (int r = 0; r < 4; ++r) {
        c[(i + r) * k + j] += acc[r];
      }
    }
  }
  for (; i < m; ++i) {  // row tail: the original streaming loop
    const float* arow = a + i * n;
    for (std::int64_t j = 0; j < k; ++j) {
      const float* brow = b + j * n;
      float acc = 0.0F;
      for (std::int64_t l = 0; l < n; ++l) {
        acc += arow[l] * brow[l];
      }
      c[i * k + j] += acc;
    }
  }
}

// c(k,n) += a(m,k)^T * b(m,n), register-tiled.
//
// The streaming kernel walked l (the reduction over m) in the OUTER loop,
// re-reading and re-writing all of c every iteration. Here a 4x8 c tile is
// loaded into registers once, accumulates its m products in the same
// ascending-l order — including the av == 0 skip, which is observable in
// floating point (it can preserve a -0.0 an explicit +0.0 add would erase) —
// and is stored once. Per element the operation sequence
// ((c + p_0) + p_1) + ... is exactly the streaming kernel's, so results are
// bit-identical while c traffic drops by a factor of m.
void gemm_tn(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
             std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= k; i += 4) {
    std::int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      float acc[4][8];
      for (int r = 0; r < 4; ++r) {
        for (int q = 0; q < 8; ++q) {
          acc[r][q] = c[(i + r) * n + j + q];
        }
      }
      for (std::int64_t l = 0; l < m; ++l) {
        const float* arow = a + l * k + i;
        const float* bp = b + l * n + j;
        for (int r = 0; r < 4; ++r) {
          const float av = arow[r];
          if (av == 0.0F) {
            continue;
          }
          for (int q = 0; q < 8; ++q) {
            acc[r][q] += av * bp[q];
          }
        }
      }
      for (int r = 0; r < 4; ++r) {
        for (int q = 0; q < 8; ++q) {
          c[(i + r) * n + j + q] = acc[r][q];
        }
      }
    }
    if (j < n) {  // column tail: same order over the remaining columns
      const std::int64_t nt = n - j;
      for (std::int64_t l = 0; l < m; ++l) {
        const float* arow = a + l * k + i;
        const float* bp = b + l * n + j;
        for (int r = 0; r < 4; ++r) {
          const float av = arow[r];
          if (av == 0.0F) {
            continue;
          }
          float* crow = c + (i + r) * n + j;
          for (std::int64_t q = 0; q < nt; ++q) {
            crow[q] += av * bp[q];
          }
        }
      }
    }
  }
  if (i < k) {  // row tail: the original streaming loop over the last rows
    for (std::int64_t l = 0; l < m; ++l) {
      const float* arow = a + l * k;
      const float* brow = b + l * n;
      for (std::int64_t r = i; r < k; ++r) {
        const float av = arow[r];
        if (av == 0.0F) {
          continue;
        }
        float* crow = c + r * n;
        for (std::int64_t q = 0; q < n; ++q) {
          crow[q] += av * brow[q];
        }
      }
    }
  }
}

}  // namespace detail

using detail::gemm_nn;
using detail::gemm_nt;
using detail::gemm_tn;

Tensor matmul(const Tensor& a, const Tensor& b) {
  const int and_ = a.ndim();
  const int bnd = b.ndim();
  SNAPPIX_CHECK((and_ == 2 || and_ == 3) && (bnd == 2 || bnd == 3),
                "matmul supports 2-D/3-D inputs, got " << a.shape().to_string() << " x "
                                                       << b.shape().to_string());
  SNAPPIX_CHECK(!(and_ == 2 && bnd == 3), "matmul: (m,k) x (B,k,n) form is not supported");

  const std::int64_t batch = and_ == 3 ? a.shape()[0] : 1;
  const std::int64_t m = a.shape()[and_ - 2];
  const std::int64_t k = a.shape()[and_ - 1];
  const std::int64_t kb = b.shape()[bnd - 2];
  const std::int64_t n = b.shape()[bnd - 1];
  SNAPPIX_CHECK(k == kb, "matmul inner dims mismatch: " << a.shape().to_string() << " x "
                                                        << b.shape().to_string());
  const bool b_batched = bnd == 3;
  if (b_batched && and_ == 3) {
    SNAPPIX_CHECK(b.shape()[0] == batch, "matmul batch mismatch: " << a.shape().to_string()
                                                                   << " x "
                                                                   << b.shape().to_string());
  }

  Shape out_shape = and_ == 3 ? Shape{batch, m, n} : Shape{m, n};
  std::vector<float> out(static_cast<std::size_t>(out_shape.numel()), 0.0F);
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  // Thread-spawn cost dwarfs small matmuls (transformer blocks issue many of
  // them), so a product fans its rows out only when there is real work per
  // thread. Row results are independent, so the partition does not change
  // any output bit. The fan-out lives here, in the tape op, and not in
  // gemm_nn: the serving engines call the kernel directly and must stay on
  // their caller's thread (their concurrency comes from sharding). The
  // threshold divides instead of multiplying m * k * n, which could overflow.
  constexpr std::int64_t kParallelWork = 1 << 22;
  const std::int64_t row_work = std::max<std::int64_t>(1, k * n);
  for (std::int64_t bi = 0; bi < batch; ++bi) {
    const float* a_rows = pa + bi * m * k;
    const float* b_mat = b_batched ? pb + bi * k * n : pb;
    float* c_rows = out.data() + bi * m * n;
    if (m < (kParallelWork + row_work - 1) / row_work) {
      gemm_nn(a_rows, b_mat, c_rows, m, k, n);
      continue;
    }
    parallel_for(
        m,
        [&](std::int64_t i0, std::int64_t i1) {
          gemm_nn(a_rows + i0 * k, b_mat, c_rows + i0 * n, i1 - i0, k, n);
        },
        /*grain=*/std::max<std::int64_t>(1, kParallelWork / row_work));
  }

  auto ai = a.impl();
  auto bimpl = b.impl();
  return make_result(out_shape, std::move(out), {a, b},
                     [ai, bimpl, batch, m, k, n, b_batched](TensorImpl& self) {
                       const float* g = self.grad.data();
                       if (ai->requires_grad) {
                         ai->ensure_grad();
                         for (std::int64_t bi = 0; bi < batch; ++bi) {
                           // dA = dC * B^T : (m,n) x (k,n)^T -> (m,k)
                           gemm_nt(g + bi * m * n,
                                 bimpl->data.data() + (b_batched ? bi * k * n : 0),
                                 ai->grad.data() + bi * m * k, m, n, k);
                         }
                       }
                       if (bimpl->requires_grad) {
                         bimpl->ensure_grad();
                         for (std::int64_t bi = 0; bi < batch; ++bi) {
                           // dB = A^T * dC : (m,k)^T x (m,n) -> (k,n); batch-broadcast sums.
                           gemm_tn(ai->data.data() + bi * m * k, g + bi * m * n,
                                 bimpl->grad.data() + (b_batched ? bi * k * n : 0), m, k, n);
                         }
                       }
                     });
}

}  // namespace snappix

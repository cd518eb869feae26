// Matrix multiplication with 2-D, batched 3-D, and batch-broadcast forms.
#include <algorithm>
#include <cmath>
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

namespace {

// Output rows per register tile.
constexpr int kTileRows = 6;

#if defined(__AVX2__)
// c[r * n + 0 .. 8 kVecs) += a row r times b for r < kRows: kRows x kVecs
// 8-lane accumulators stay in registers across the whole k loop, so each b
// element is loaded once per kRows rows and each c element is touched once.
template <int kRows, int kVecs>
inline void tile(const float* a, const float* b, float* c, std::int64_t k, std::int64_t n) {
  __m256 acc[kRows][kVecs];
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      acc[r][v] = _mm256_setzero_ps();
    }
  }
  for (std::int64_t l = 0; l < k; ++l) {
    __m256 bv[kVecs];
    for (int v = 0; v < kVecs; ++v) {
      bv[v] = _mm256_loadu_ps(b + l * n + 8 * v);
    }
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r) {
      const __m256 av = _mm256_set1_ps(a[r * k + l]);
      for (int v = 0; v < kVecs; ++v) {
        acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      float* cp = c + r * n + 8 * v;
      _mm256_storeu_ps(cp, _mm256_add_ps(_mm256_loadu_ps(cp), acc[r][v]));
    }
  }
}

// All m rows of one 8 kVecs-column block: kTileRows-row tiles, then 4, 2
// and 1 rows.
template <int kVecs>
void column_block(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
                  std::int64_t n) {
  std::int64_t i = 0;
  for (; i + kTileRows <= m; i += kTileRows) {
    tile<kTileRows, kVecs>(a + i * k, b, c + i * n, k, n);
  }
  if (m - i >= 4) {
    tile<4, kVecs>(a + i * k, b, c + i * n, k, n);
    i += 4;
  }
  if (m - i >= 2) {
    tile<2, kVecs>(a + i * k, b, c + i * n, k, n);
    i += 2;
  }
  if (m - i == 1) {
    tile<1, kVecs>(a + i * k, b, c + i * n, k, n);
  }
}
#endif

// The scalar form of tile: kRows rows x `width` (<= 8) columns.
template <int kRows>
void scalar_tile(const float* a, const float* b, float* c, std::int64_t k, std::int64_t n,
                 std::int64_t width) {
  float acc[kRows][8] = {};
  for (std::int64_t l = 0; l < k; ++l) {
    const float* bp = b + l * n;
    for (int r = 0; r < kRows; ++r) {
      const float av = a[r * k + l];
      for (std::int64_t j = 0; j < width; ++j) {
        acc[r][j] = std::fma(av, bp[j], acc[r][j]);
      }
    }
  }
  for (int r = 0; r < kRows; ++r) {
    for (std::int64_t j = 0; j < width; ++j) {
      c[r * n + j] += acc[r][j];
    }
  }
}

}  // namespace

// c(m,n) += a(m,k) * b(k,n), register-tiled, single-threaded.
//
// Under AVX2 the tile is 6 rows x 16 columns: 12 independent 8-lane FMA
// chains, enough to cover the FMA latency; a remaining 8-column block runs
// 6 x 8 tiles. The last n % 8 columns (every column in builds without AVX2)
// run scalar 4 x 8 tiles, then 1 x 8 per leftover row. Every output element, in every tile and tail,
// accumulates its k products from +0 in ascending-l order, each product and
// add one fused multiply-add (one IEEE rounding: _mm256_fmadd_ps, or
// std::fma in scalar code), and folds the total into c with one add, so
// results are bit-identical to the naive triple loop on every path (the
// fused serving engine and the determinism tests rely on this).
void gemm_nn(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
             std::int64_t n) {
  std::int64_t j0 = 0;
#if defined(__AVX2__)
  for (; j0 + 16 <= n; j0 += 16) {
    column_block<2>(a, b + j0, c + j0, m, k, n);
  }
  if (j0 + 8 <= n) {
    column_block<1>(a, b + j0, c + j0, m, k, n);
    j0 += 8;
  }
#endif
  for (; j0 < n; j0 += 8) {
    const std::int64_t width = std::min<std::int64_t>(8, n - j0);
    std::int64_t i = 0;
    for (; i + 4 <= m; i += 4) {
      scalar_tile<4>(a + i * k, b + j0, c + i * n + j0, k, n, width);
    }
    for (; i < m; ++i) {
      scalar_tile<1>(a + i * k, b + j0, c + i * n + j0, k, n, width);
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

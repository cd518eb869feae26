#include "tensor/gelu.h"

#include <algorithm>

#include "tensor/exp.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace snappix::detail {

namespace {

constexpr float kCubic = 0.044715F;
// 2 sqrt(2/pi): twice the correctly rounded float sqrt of the float 2/pi
// (doubling is exact).
constexpr float kTwoC = 0x1.988452p+0F;
constexpr float kCubic3 = 3.0F * kCubic;

// -2u, the exp argument.
inline float minus_two_u(float x) { return -kTwoC * (x + kCubic * x * x * x); }

#if defined(__AVX2__)
inline __m256 minus_two_u8(__m256 x) {
  const __m256 cubic =
      _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(kCubic), x), x), x);
  return _mm256_mul_ps(_mm256_set1_ps(-kTwoC), _mm256_add_ps(x, cubic));
}
#endif

}  // namespace

float gelu_ref(float x) { return x / (1.0F + exp_ref(minus_two_u(x))); }

void gelu_array(const float* x, std::int64_t n, float* y) {
  constexpr std::int64_t kChunk = 512;  // the exp arguments stay in L1
  float e[kChunk];
  for (std::int64_t i0 = 0; i0 < n; i0 += kChunk) {
    const float* xs = x + i0;
    float* ys = y + i0;
    const std::int64_t len = std::min(kChunk, n - i0);
    std::int64_t i = 0;
#if defined(__AVX2__)
    for (; i + 8 <= len; i += 8) {
      _mm256_storeu_ps(e + i, minus_two_u8(_mm256_loadu_ps(xs + i)));
    }
#endif
    for (; i < len; ++i) {
      e[i] = minus_two_u(xs[i]);
    }
    exp_array(e, len, e);
    i = 0;
#if defined(__AVX2__)
    for (; i + 8 <= len; i += 8) {
      _mm256_storeu_ps(ys + i, _mm256_div_ps(_mm256_loadu_ps(xs + i),
                                             _mm256_add_ps(_mm256_set1_ps(1.0F),
                                                           _mm256_loadu_ps(e + i))));
    }
#endif
    for (; i < len; ++i) {
      ys[i] = xs[i] / (1.0F + e[i]);
    }
  }
#if defined(__AVX2__)
  _mm256_zeroupper();  // see exp_array (tensor/exp.cpp)
#endif
}

float gelu_grad_ref(float x) {
  const float s = 1.0F / (1.0F + exp_ref(minus_two_u(x)));
  const float two_du = kTwoC * (1.0F + kCubic3 * x * x);
  return s + x * s * (1.0F - s) * two_du;
}

}  // namespace snappix::detail

#include "tensor/gemm_s8.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "util/common.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

// The tile kernel needs x86-64 Linux (the tile-data permission is a Linux
// arch_prctl) and a compiler that takes the amx-tile/amx-int8 target
// attribute, so the rest of the library builds without AMX flags.
#if defined(__AVX2__) && defined(__x86_64__) && defined(__linux__) && \
    (defined(__clang__) ? __clang_major__ >= 12 : __GNUC__ >= 11)
#define SNAPPIX_S8_AMX 1
#include <cpuid.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace snappix::detail {

namespace {

// Set while a ScopedS8PairKernel (a test hook) is alive.
std::atomic<bool> g_pair_kernel_pinned{false};

#if defined(SNAPPIX_S8_AMX)

// AMX-INT8 usable by this process: CPUID.(7,0).EDX AMX-TILE (bit 24) and
// AMX-INT8 (bit 25), XCR0 tile config and tile data (bits 17, 18) enabled by
// the OS, and the kernel's grant of XTILEDATA (feature 18) to the process.
bool amx_granted() {
  static const bool granted = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0 ||
        (edx & (3U << 24)) != (3U << 24)) {
      return false;
    }
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 || (ecx & (1U << 27)) == 0) {
      return false;  // no OSXSAVE: xgetbv would fault
    }
    unsigned xcr0 = 0, xcr0_hi = 0;
    __asm__ volatile("xgetbv" : "=a"(xcr0), "=d"(xcr0_hi) : "c"(0));
    if ((xcr0 & (3U << 17)) != (3U << 17)) {
      return false;
    }
    constexpr long kArchReqXcompPerm = 0x1023;
    constexpr long kXfeatureXtileData = 18;
    return syscall(SYS_arch_prctl, kArchReqXcompPerm, kXfeatureXtileData) == 0;
  }();
  return granted;
}

// The LDTILECFG operand: palette 1, per-tile rows and bytes per row.
struct alignas(64) TileConfig {
  std::uint8_t palette = 1;
  std::uint8_t start_row = 0;
  std::uint8_t reserved[14] = {};
  std::uint16_t colsb[16] = {};
  std::uint8_t rows[16] = {};
};

// Tile registers take immediates, so the accumulator index selects among
// unrolled forms. tmm0-3 accumulate four panels; tmm4/tmm5 hold the A and B
// tiles of a whole 64-byte k chunk, tmm6/tmm7 those of the k tail.
#define SNAPPIX_TILE_CASES(op) \
  switch (t) {                 \
    case 0: op(0); break;      \
    case 1: op(1); break;      \
    case 2: op(2); break;      \
    default: op(3); break;     \
  }

__attribute__((target("amx-tile"))) inline void tile_zero(int t) {
#define SNAPPIX_ZERO(i) _tile_zero(i)
  SNAPPIX_TILE_CASES(SNAPPIX_ZERO)
#undef SNAPPIX_ZERO
}

__attribute__((target("amx-tile,amx-int8"))) inline void tile_dp_chunk(int t) {
#define SNAPPIX_DP(i) _tile_dpbssd(i, 4, 5)
  SNAPPIX_TILE_CASES(SNAPPIX_DP)
#undef SNAPPIX_DP
}

__attribute__((target("amx-tile,amx-int8"))) inline void tile_dp_tail(int t) {
#define SNAPPIX_DP(i) _tile_dpbssd(i, 6, 7)
  SNAPPIX_TILE_CASES(SNAPPIX_DP)
#undef SNAPPIX_DP
}

__attribute__((target("amx-tile"))) inline void tile_store(int t, std::int32_t* c,
                                                          std::int64_t stride_bytes) {
#define SNAPPIX_STORE(i) _tile_stored(i, c, stride_bytes)
  SNAPPIX_TILE_CASES(SNAPPIX_STORE)
#undef SNAPPIX_STORE
}

#undef SNAPPIX_TILE_CASES

// c rows [0, m16) from the tile kernel, m16 a multiple of 16. Per 16-row
// block and group of up to 4 panels: each k chunk loads the A tile (16 rows
// of int8 activations, read in place with row stride k) once and runs one
// tdpbssd per panel; the accumulators are stored straight into c, or
// through `edge` for a panel that runs past n.
__attribute__((target("amx-tile,amx-int8"))) void gemm_s8_tiles(const std::int8_t* a,
                                                                const PackedS8Weights& b,
                                                                std::int32_t* c,
                                                                std::int64_t m16) {
  const std::int64_t k = b.k;
  const std::int64_t n = b.n;
  const std::int64_t groups = k / 4;
  const std::int64_t chunks = k / 64;
  const std::int64_t tail = k % 64;
  const std::int64_t panels = (n + kS8PanelWidth - 1) / kS8PanelWidth;
  TileConfig cfg;
  for (int t = 0; t < 6; ++t) {
    cfg.rows[t] = 16;
    cfg.colsb[t] = 64;
  }
  cfg.rows[6] = tail > 0 ? 16 : 0;
  cfg.colsb[6] = static_cast<std::uint16_t>(tail);
  cfg.rows[7] = static_cast<std::uint8_t>(tail / 4);
  cfg.colsb[7] = tail > 0 ? 64 : 0;
  _tile_loadconfig(&cfg);
  alignas(64) std::int32_t edge[16 * kS8PanelWidth] = {};
  for (std::int64_t i0 = 0; i0 < m16; i0 += 16) {
    const std::int8_t* a_rows = a + i0 * k;
    for (std::int64_t p0 = 0; p0 < panels; p0 += 4) {
      const int count = static_cast<int>(std::min<std::int64_t>(4, panels - p0));
      const std::int8_t* panel = b.tiles.data() + p0 * groups * 64;
      for (int t = 0; t < count; ++t) {
        tile_zero(t);
      }
      for (std::int64_t q = 0; q < chunks; ++q) {
        _tile_loadd(4, a_rows + q * 64, k);
        for (int t = 0; t < count; ++t) {
          _tile_loadd(5, panel + (t * groups + q * 16) * 64, 64);
          tile_dp_chunk(t);
        }
      }
      if (tail > 0) {
        _tile_loadd(6, a_rows + chunks * 64, k);
        for (int t = 0; t < count; ++t) {
          _tile_loadd(7, panel + (t * groups + chunks * 16) * 64, 64);
          tile_dp_tail(t);
        }
      }
      for (int t = 0; t < count; ++t) {
        const std::int64_t j0 = (p0 + t) * kS8PanelWidth;
        std::int32_t* out = c + i0 * n + j0;
        if (j0 + kS8PanelWidth <= n) {
          tile_store(t, out, n * static_cast<std::int64_t>(sizeof(std::int32_t)));
          continue;
        }
        tile_store(t, edge, kS8PanelWidth * sizeof(std::int32_t));
        for (int r = 0; r < 16; ++r) {
          std::memcpy(out + r * n, edge + r * kS8PanelWidth,
                      static_cast<std::size_t>(n - j0) * sizeof(std::int32_t));
        }
      }
    }
  }
  _tile_release();
}

#endif  // SNAPPIX_S8_AMX

// Writes the first `width` of 16 accumulators to c (a panel's last columns
// may run past n).
inline void store_channels(const std::int32_t (&acc)[kS8PanelWidth], std::int32_t* c,
                           std::int64_t width) {
  std::memcpy(c, acc, static_cast<std::size_t>(width) * sizeof(std::int32_t));
}

#if defined(__AVX2__)

// Reads the int16 k-pair at p as one int32 (low half first), ready to
// broadcast across the 8 channel lanes of a panel load.
inline std::int32_t load_pair(const std::int16_t* p) {
  std::int32_t pair = 0;
  std::memcpy(&pair, p, sizeof pair);
  return pair;
}

// acc += pair(a) * panel k-pair, 8 channels per vpmaddwd: each int32 lane
// gets a[2q] * b[2q] + a[2q+1] * b[2q+1], formed exactly at 32-bit width.
inline __m256i madd_pair(__m256i acc, std::int32_t a_pair, __m256i b) {
  return _mm256_add_epi32(acc, _mm256_madd_epi16(_mm256_set1_epi32(a_pair), b));
}

// Stores one tile row's 16 channel sums, or the first `width` of them in a
// panel that runs past n.
inline void store_tile_row(__m256i lo, __m256i hi, std::int32_t* c, std::int64_t width) {
  if (width == kS8PanelWidth) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c), lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 8), hi);
    return;
  }
  std::int32_t acc[kS8PanelWidth] = {};
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc), lo);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 8), hi);
  store_channels(acc, c, width);
}

#endif

}  // namespace

PackedS8Weights pack_s8_weights(const std::int8_t* b, std::int64_t k, std::int64_t n) {
  SNAPPIX_CHECK(k <= kGemmS8MaxK, "int8 GEMM reduction depth k = "
                                      << k << " can overflow the int32 accumulator (max "
                                      << kGemmS8MaxK << ")");
  PackedS8Weights packed;
  packed.k = k;
  packed.n = n;
  const std::int64_t pairs = s8_pair_count(k);
  const std::int64_t panels = (n + kS8PanelWidth - 1) / kS8PanelWidth;
  packed.panels.assign(static_cast<std::size_t>(panels * pairs * kS8PanelWidth * 2), 0);
  for (std::int64_t j = 0; j < n; ++j) {
    std::int16_t* dst = packed.panels.data() + (j / kS8PanelWidth) * pairs * kS8PanelWidth * 2 +
                        (j % kS8PanelWidth) * 2;
    for (std::int64_t l = 0; l < k; ++l) {
      dst[(l / 2) * kS8PanelWidth * 2 + (l % 2)] = b[j * k + l];
    }
  }
  if (gemm_s8_amx_enabled() && k % 4 == 0) {
    const std::int64_t groups = k / 4;
    packed.tiles.assign(static_cast<std::size_t>(panels * groups * kS8PanelWidth * 4), 0);
    for (std::int64_t j = 0; j < n; ++j) {
      std::int8_t* dst = packed.tiles.data() + (j / kS8PanelWidth) * groups * kS8PanelWidth * 4 +
                         (j % kS8PanelWidth) * 4;
      for (std::int64_t l = 0; l < k; ++l) {
        dst[(l / 4) * kS8PanelWidth * 4 + (l % 4)] = b[j * k + l];
      }
    }
  }
  return packed;
}

bool gemm_s8_amx_enabled() {
#if defined(SNAPPIX_S8_AMX)
  return !g_pair_kernel_pinned.load() && amx_granted();
#else
  return false;
#endif
}

ScopedS8PairKernel::ScopedS8PairKernel() : previous_(g_pair_kernel_pinned.exchange(true)) {}

ScopedS8PairKernel::~ScopedS8PairKernel() { g_pair_kernel_pinned.store(previous_); }

namespace {

// Widens a(m, k) to the int16 activation panel the pair kernel reads: m rows
// of 2 * s8_pair_count(k) values, an odd k's last pair padded with zero.
void widen_s8_rows(const std::int8_t* a, std::int64_t m, std::int64_t k, std::int16_t* panel) {
  const std::int64_t row = 2 * s8_pair_count(k);
  for (std::int64_t i = 0; i < m; ++i) {
    const std::int8_t* src = a + i * k;
    std::int16_t* dst = panel + i * row;
    std::int64_t l = 0;
#if defined(__AVX2__)
    for (; l + 16 <= k; l += 16) {
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(dst + l),
          _mm256_cvtepi8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(src + l))));
    }
#endif
    for (; l < k; ++l) {
      dst[l] = src[l];
    }
    if (l < row) {
      dst[l] = 0;  // odd k: the last pair's second value
    }
  }
}

// Outer-product kernel over the packed panels. Per panel, a 4-row x
// 16-channel tile keeps 8 int32 accumulators in registers: each k-pair step
// loads the panel's two 8-channel vectors once and multiplies them against
// each row's broadcast activation pair (vpmaddwd), so no horizontal sum is
// ever needed. Integer accumulation is exact and k <= kGemmS8MaxK keeps
// every partial sum inside int32, so any tile shape or order gives the
// reference's answer.
void gemm_s8_packed(const std::int16_t* a_panel, const PackedS8Weights& b, std::int32_t* c,
                    std::int64_t m) {
  const std::int64_t pairs = s8_pair_count(b.k);
  const std::int64_t row = 2 * pairs;
  const std::int64_t n = b.n;
  for (std::int64_t j0 = 0; j0 < n; j0 += kS8PanelWidth) {
    const std::int16_t* panel = b.panels.data() + (j0 / kS8PanelWidth) * pairs * kS8PanelWidth * 2;
    const std::int64_t width = std::min<std::int64_t>(kS8PanelWidth, n - j0);
    std::int64_t i = 0;
#if defined(__AVX2__)
    for (; i + 4 <= m; i += 4) {
      const std::int16_t* a0 = a_panel + i * row;
      const std::int16_t* a1 = a0 + row;
      const std::int16_t* a2 = a1 + row;
      const std::int16_t* a3 = a2 + row;
      __m256i c00 = _mm256_setzero_si256(), c01 = _mm256_setzero_si256();
      __m256i c10 = _mm256_setzero_si256(), c11 = _mm256_setzero_si256();
      __m256i c20 = _mm256_setzero_si256(), c21 = _mm256_setzero_si256();
      __m256i c30 = _mm256_setzero_si256(), c31 = _mm256_setzero_si256();
      for (std::int64_t q = 0; q < pairs; ++q) {
        const std::int16_t* bp = panel + q * kS8PanelWidth * 2;
        const __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp));
        const __m256i b1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + 16));
        const std::int32_t p0 = load_pair(a0 + 2 * q), p1 = load_pair(a1 + 2 * q);
        const std::int32_t p2 = load_pair(a2 + 2 * q), p3 = load_pair(a3 + 2 * q);
        c00 = madd_pair(c00, p0, b0);
        c01 = madd_pair(c01, p0, b1);
        c10 = madd_pair(c10, p1, b0);
        c11 = madd_pair(c11, p1, b1);
        c20 = madd_pair(c20, p2, b0);
        c21 = madd_pair(c21, p2, b1);
        c30 = madd_pair(c30, p3, b0);
        c31 = madd_pair(c31, p3, b1);
      }
      store_tile_row(c00, c01, c + i * n + j0, width);
      store_tile_row(c10, c11, c + (i + 1) * n + j0, width);
      store_tile_row(c20, c21, c + (i + 2) * n + j0, width);
      store_tile_row(c30, c31, c + (i + 3) * n + j0, width);
    }
    for (; i < m; ++i) {  // row tail: one row x 16 channels
      const std::int16_t* arow = a_panel + i * row;
      __m256i lo = _mm256_setzero_si256(), hi = _mm256_setzero_si256();
      for (std::int64_t q = 0; q < pairs; ++q) {
        const std::int16_t* bp = panel + q * kS8PanelWidth * 2;
        const std::int32_t pair = load_pair(arow + 2 * q);
        lo = madd_pair(lo, pair, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp)));
        hi = madd_pair(hi, pair, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + 16)));
      }
      store_tile_row(lo, hi, c + i * n + j0, width);
    }
#else
    for (; i < m; ++i) {  // scalar: the same pairs over the same layout
      const std::int16_t* arow = a_panel + i * row;
      std::int32_t acc[kS8PanelWidth] = {};
      for (std::int64_t q = 0; q < pairs; ++q) {
        const std::int16_t* bp = panel + q * kS8PanelWidth * 2;
        const std::int32_t x0 = arow[2 * q], x1 = arow[2 * q + 1];
        for (std::int64_t ch = 0; ch < kS8PanelWidth; ++ch) {
          acc[ch] += x0 * bp[2 * ch] + x1 * bp[2 * ch + 1];
        }
      }
      store_channels(acc, c + i * n + j0, width);
    }
#endif
  }
}

}  // namespace

void gemm_s8_rows(const std::int8_t* a, const PackedS8Weights& b, std::int32_t* c,
                  std::int64_t m, std::int16_t* scratch) {
  std::int64_t done = 0;
#if defined(SNAPPIX_S8_AMX)
  if (!b.tiles.empty() && gemm_s8_amx_enabled()) {
    done = m - m % 16;
    if (done > 0) {
      gemm_s8_tiles(a, b, c, done);
    }
  }
#endif
  if (done < m) {
    widen_s8_rows(a + done * b.k, m - done, b.k, scratch);
    gemm_s8_packed(scratch, b, c + done * b.n, m - done);
  }
}

void gemm_s8_nt(const std::int8_t* a, const std::int8_t* b, std::int32_t* c, std::int64_t m,
                std::int64_t k, std::int64_t n) {
  const PackedS8Weights packed = pack_s8_weights(b, k, n);  // checks k
  std::vector<std::int16_t> scratch(static_cast<std::size_t>(m * 2 * s8_pair_count(k)));
  gemm_s8_rows(a, packed, c, m, scratch.data());
}

void gemm_s8_nt_ref(const std::int8_t* a, const std::int8_t* b, std::int32_t* c,
                    std::int64_t m, std::int64_t k, std::int64_t n) {
  SNAPPIX_CHECK(k <= kGemmS8MaxK, "gemm_s8_nt_ref reduction depth k = "
                                      << k << " can overflow the int32 accumulator (max "
                                      << kGemmS8MaxK << ")");
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::int32_t acc = 0;
      for (std::int64_t l = 0; l < k; ++l) {
        acc += static_cast<std::int32_t>(a[i * k + l]) * static_cast<std::int32_t>(b[j * k + l]);
      }
      c[i * n + j] = acc;
    }
  }
}

bool gemm_s8_simd_enabled() {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

float absmax(const float* x, std::int64_t n) {
  float amax = 0.0F;
  for (std::int64_t i = 0; i < n; ++i) {
    amax = std::max(amax, std::fabs(x[i]));
  }
  return amax;
}

float symmetric_scale(float absmax_value) {
  return absmax_value > 0.0F ? absmax_value / 127.0F : 1.0F;
}

void quantize_symmetric_ref(const float* x, std::int64_t n, float scale, std::int8_t* q) {
  const float inv = 1.0F / scale;
  for (std::int64_t i = 0; i < n; ++i) {
    const float r = std::nearbyintf(x[i] * inv);
    q[i] = static_cast<std::int8_t>(std::max(-127.0F, std::min(127.0F, r)));
  }
}

#if defined(__AVX2__)
namespace {

// Shared tail of both int8 quantizers: clamp in fp32 FIRST so vcvtps2dq can
// never overflow to INT_MIN (whose saturating pack would flip a huge
// positive input to -128); clamping before or after nearest-even rounding is
// equivalent on [-127, 127], so results stay bit-identical to the scalar
// references. Packs four 8-float vectors into 32 int8s, restoring byte
// order after the two in-lane packs (epi32 -> epi16 -> epi8).
inline __m256i clamp_round_pack_epi8(const __m256 (&scaled)[4]) {
  const __m256 lo = _mm256_set1_ps(-127.0F);
  const __m256 hi = _mm256_set1_ps(127.0F);
  const __m256i unshuffle = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  __m256i v[4];
  for (int c = 0; c < 4; ++c) {
    v[c] = _mm256_cvtps_epi32(_mm256_max_ps(lo, _mm256_min_ps(hi, scaled[c])));
  }
  const __m256i p8 = _mm256_packs_epi16(_mm256_packs_epi32(v[0], v[1]),
                                        _mm256_packs_epi32(v[2], v[3]));
  return _mm256_permutevar8x32_epi32(p8, unshuffle);
}

}  // namespace
#endif

void quantize_symmetric(const float* x, std::int64_t n, float scale, std::int8_t* q) {
#if defined(__AVX2__)
  const __m256 inv = _mm256_set1_ps(1.0F / scale);
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256 scaled[4];
    for (int c = 0; c < 4; ++c) {
      scaled[c] = _mm256_mul_ps(_mm256_loadu_ps(x + i + c * 8), inv);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + i), clamp_round_pack_epi8(scaled));
  }
  if (i < n) {
    quantize_symmetric_ref(x + i, n - i, scale, q + i);
  }
#else
  quantize_symmetric_ref(x, n, scale, q);
#endif
}

void requantize_rows_ref(const std::int32_t* acc, const float* deq, const float* bias,
                         float inv_scale, std::int8_t* q, std::int64_t rows,
                         std::int64_t n) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int32_t* arow = acc + r * n;
    std::int8_t* qrow = q + r * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float v = (static_cast<float>(arow[j]) * deq[j] + bias[j]) * inv_scale;
      const float rounded = std::nearbyintf(v);
      qrow[j] = static_cast<std::int8_t>(std::max(-127.0F, std::min(127.0F, rounded)));
    }
  }
}

void requantize_rows(const std::int32_t* acc, const float* deq, const float* bias,
                     float inv_scale, std::int8_t* q, std::int64_t rows, std::int64_t n) {
#if defined(__AVX2__)
  const __m256 vs = _mm256_set1_ps(inv_scale);
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int32_t* arow = acc + r * n;
    std::int8_t* qrow = q + r * n;
    std::int64_t j = 0;
    for (; j + 32 <= n; j += 32) {
      __m256 scaled[4];
      for (int c = 0; c < 4; ++c) {
        const std::int64_t o = j + c * 8;
        const __m256 f = _mm256_cvtepi32_ps(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arow + o)));
        scaled[c] = _mm256_mul_ps(
            _mm256_add_ps(_mm256_mul_ps(f, _mm256_loadu_ps(deq + o)),
                          _mm256_loadu_ps(bias + o)),
            vs);
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(qrow + j),
                          clamp_round_pack_epi8(scaled));
    }
    if (j < n) {
      requantize_rows_ref(arow + j, deq + j, bias + j, inv_scale, qrow + j, 1, n - j);
    }
  }
#else
  requantize_rows_ref(acc, deq, bias, inv_scale, q, rows, n);
#endif
}

void quantize_weights_per_channel(const float* w, std::int64_t k, std::int64_t n,
                                  std::int8_t* wq, float* scales) {
  for (std::int64_t j = 0; j < n; ++j) {
    float amax = 0.0F;
    for (std::int64_t l = 0; l < k; ++l) {
      amax = std::max(amax, std::fabs(w[l * n + j]));
    }
    const float scale = symmetric_scale(amax);
    const float inv = 1.0F / scale;
    scales[j] = scale;
    for (std::int64_t l = 0; l < k; ++l) {
      const float r = std::nearbyintf(w[l * n + j] * inv);
      wq[j * k + l] = static_cast<std::int8_t>(std::max(-127.0F, std::min(127.0F, r)));
    }
  }
}

}  // namespace snappix::detail

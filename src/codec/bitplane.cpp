#include "codec/bitplane.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace snappix::codec {
namespace {

// --- adaptive binary range coder (LZMA-style) --------------------------------
//
// 11-bit probabilities, shift-5 adaptation, 32-bit range with byte-wise
// renormalization and carry propagation through a cache byte. Encoder and
// decoder update `prob` identically, so they stay in lockstep by
// construction. Neither branches on the coded bit, which is close to random,
// so a branch on it would mispredict about every other symbol: the range
// takes one of its two values by a select (a conditional move), and low,
// code and `prob` move by masked terms. A probability is a plain
// std::uint32_t that the pass loops hold in a local, so the contexts coded
// most often stay in registers rather than costing a store and a load per
// symbol.
//
// One renormalization step per symbol is always enough: the update keeps
// every probability in [31, 2017], so either side of a split of a range
// >= 2^24 is >= (2^24 >> 11) * 31 > 2^17, and one 8-bit shift restores
// >= 2^24. The bound holds for any decoded bits, so it holds for any input
// bytes.

constexpr std::uint32_t kProbBits = 11;
constexpr std::uint32_t kProbOne = 1U << kProbBits;
constexpr std::uint32_t kProbInit = kProbOne / 2;
constexpr int kAdaptShift = 5;
constexpr std::uint32_t kTopValue = 1U << 24;

// A range-coder stream is never shorter than its 5 flush bytes; a chunk
// below this cannot be decoded at all.
constexpr std::size_t kMinChunkBytes = 5;

class RangeEncoder {
 public:
  // Writes through `out`, which must hold max_stream_bytes() for the
  // symbols to be coded.
  explicit RangeEncoder(std::uint8_t* out) : out_(out) {}

  // A stream of `symbols` symbols takes at most one byte per renormalization
  // (at most one per symbol) plus the 5 flush bytes.
  static constexpr std::size_t max_stream_bytes(std::size_t symbols) {
    return symbols + kMinChunkBytes;
  }

  // Codes `bit` (0 or 1) and moves `prob` toward it: to p + (kProbOne - p)
  // >> 5 after a 0, to p - (p >> 5) after a 1. The bit is known before it is
  // coded, so the update takes no select: (kProbOne - p) >> 5 == 64 - ((p +
  // 31) >> 5) for every p, so both are p + d - ((p + c) >> 5), with (c, d) =
  // (31, 64) after a 0 and (0, 0) after a 1, masks of the bit.
  void encode(std::uint32_t& prob, std::uint32_t bit) {
    const std::uint32_t bound = (range_ >> kProbBits) * prob;
    const std::uint32_t zero = bit - 1U;  // all ones when the bit is 0
    low_ += bound & ~zero;
    const std::uint32_t rest = range_ - bound;
    range_ = bit != 0 ? rest : bound;
    prob = prob + ((kProbOne >> kAdaptShift) & zero) -
           ((prob + (((1U << kAdaptShift) - 1U) & zero)) >> kAdaptShift);
    if (range_ < kTopValue) {
      range_ <<= 8;
      shift_low();
    }
  }

  void flush() {
    for (std::size_t i = 0; i < kMinChunkBytes; ++i) {
      shift_low();
    }
  }

  // One past the last byte written.
  std::uint8_t* end() const { return out_; }

 private:
  void shift_low() {
    if (static_cast<std::uint32_t>(low_) < 0xFF000000U || (low_ >> 32) != 0) {
      std::uint8_t byte = cache_;
      do {
        *out_++ = static_cast<std::uint8_t>(byte + static_cast<std::uint8_t>(low_ >> 32));
        byte = 0xFF;
      } while (--cache_size_ != 0);
      cache_ = static_cast<std::uint8_t>(low_ >> 24);
    }
    ++cache_size_;
    low_ = (low_ & 0x00FFFFFFULL) << 8;
  }

  std::uint8_t* out_;
  std::uint64_t low_ = 0;
  std::uint32_t range_ = 0xFFFFFFFFU;
  std::uint8_t cache_ = 0;
  std::uint64_t cache_size_ = 1;
};

class RangeDecoder {
 public:
  RangeDecoder(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {
    next_byte();  // the encoder's initial cache byte, always skipped
    for (int i = 0; i < 4; ++i) {
      code_ = (code_ << 8) | next_byte();
    }
  }

  // Decodes one bit and moves `prob` toward it: to p + (kProbOne - p) >> 5
  // after a 0, to p - (p >> 5) after a 1. Both are computed while the bit is
  // still unknown; the borrow of code - bound, a mask, picks one.
  std::uint32_t decode(std::uint32_t& prob) {
    const std::uint32_t bound = (range_ >> kProbBits) * prob;
    const std::uint32_t rest = range_ - bound;
    const bool bit = code_ >= bound;
    range_ = bit ? rest : bound;
    const auto zero =
        static_cast<std::uint32_t>((static_cast<std::uint64_t>(code_) - bound) >> 32);
    code_ -= bound & ~zero;
    const std::uint32_t after0 = prob + ((kProbOne - prob) >> kAdaptShift);
    const std::uint32_t after1 = prob - (prob >> kAdaptShift);
    prob = after1 + ((after0 - after1) & zero);
    if (range_ < kTopValue) {
      range_ <<= 8;
      code_ = (code_ << 8) | next_byte();
    }
    return bit ? 1U : 0U;
  }

  bool overran() const { return overran_; }

 private:
  // Past-end reads hand back zeros and raise the overrun flag instead of
  // touching memory: a truncated or corrupt chunk decodes to garbage that
  // the caller then undoes, never to UB.
  std::uint32_t next_byte() {
    if (pos_ >= size_) {
      overran_ = true;
      return 0;
    }
    return data_[pos_++];
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::uint32_t code_ = 0;
  std::uint32_t range_ = 0xFFFFFFFFU;
  bool overran_ = false;
};

}  // namespace

// --- quantization ------------------------------------------------------------
//
// q = round(x / scale) with std::lround's rounding (half away from zero),
// clamped to [-32767, 32767], computed on the magnitude: a = min(|x / scale|,
// 32767), whose integer part t is exact and whose fraction a - t is exact
// too, rounds to t + (a - t >= 0.5), and the sign of x is put back. The
// AVX2 path runs 8 elements per vector on the same operations, so both
// paths give std::lround's values. (The vector round-to-nearest mode would
// round halves to even.) Clamping first keeps every conversion in range.

namespace {

constexpr float kMaxLevel = 32767.0F;

inline std::int16_t quantize_value(float x, float scale) {
  const float a = std::min(std::fabs(x / scale), kMaxLevel);
  const int t = static_cast<int>(a);
  const int m = t + (a - static_cast<float>(t) >= 0.5F ? 1 : 0);
  return static_cast<std::int16_t>(std::signbit(x) ? -m : m);
}

// max |x| over the frame; throws on a NaN or an infinity.
float max_magnitude(const float* x, std::size_t n) {
  float max_abs = 0.0F;
  bool finite = true;
  std::size_t i = 0;
#if defined(__AVX2__)
  const __m256 magnitude = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  const __m256 largest = _mm256_set1_ps(std::numeric_limits<float>::max());
  __m256 top = _mm256_setzero_ps();
  __m256 bad = _mm256_setzero_ps();
  for (; i + 8 <= n; i += 8) {
    const __m256 a = _mm256_and_ps(_mm256_loadu_ps(x + i), magnitude);
    bad = _mm256_or_ps(bad, _mm256_cmp_ps(a, largest, _CMP_NLE_UQ));  // NaN or inf
    top = _mm256_max_ps(top, a);
  }
  finite = _mm256_movemask_ps(bad) == 0;
  __m128 half = _mm_max_ps(_mm256_castps256_ps128(top), _mm256_extractf128_ps(top, 1));
  half = _mm_max_ps(half, _mm_movehl_ps(half, half));
  half = _mm_max_ss(half, _mm_movehdup_ps(half));
  max_abs = _mm_cvtss_f32(half);
#endif
  for (; i < n; ++i) {
    const float a = std::fabs(x[i]);
    finite = finite && std::isfinite(a);
    max_abs = a > max_abs ? a : max_abs;
  }
  if (!finite) {
    throw std::runtime_error("quantize_frame: non-finite coded measurement");
  }
  return max_abs;
}

}  // namespace

QuantizedFrame quantize_frame(const Tensor& coded) {
  QuantizedFrame frame;
  quantize_frame(coded, frame);
  return frame;
}

void quantize_frame(const Tensor& coded, QuantizedFrame& out) {
  if (!coded.defined() || coded.ndim() != 2) {
    throw std::runtime_error("quantize_frame: expected a (H, W) tensor");
  }
  out.height = coded.shape()[0];
  out.width = coded.shape()[1];
  const std::vector<float>& data = coded.data();
  const std::size_t n = data.size();

  out.scale = max_magnitude(data.data(), n) / kMaxLevel;
  if (out.scale == 0.0F) {
    // An all-zero frame, or one whose max |x| is so small (below about
    // 2.3e-41) that the scale underflows: every code is 0.
    out.values.assign(n, 0);
    return;
  }
  out.values.resize(n);
  const float* x = data.data();
  std::int16_t* q = out.values.data();
  std::size_t i = 0;
#if defined(__AVX2__)
  const __m256 scale = _mm256_set1_ps(out.scale);
  const __m256 magnitude = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  const __m256 level = _mm256_set1_ps(kMaxLevel);
  const __m256 half = _mm256_set1_ps(0.5F);
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 a = _mm256_min_ps(_mm256_and_ps(_mm256_div_ps(v, scale), magnitude), level);
    const __m256i t = _mm256_cvttps_epi32(a);
    const __m256 up = _mm256_cmp_ps(_mm256_sub_ps(a, _mm256_cvtepi32_ps(t)), half, _CMP_GE_OQ);
    const __m256i m = _mm256_sub_epi32(t, _mm256_castps_si256(up));  // + 1 where rounding up
    // Negate where x's sign bit is set (m is 0 where x is +0 or -0).
    const __m256i sign = _mm256_srai_epi32(_mm256_castps_si256(v), 31);
    const __m256i signed_m = _mm256_sub_epi32(_mm256_xor_si256(m, sign), sign);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i),
                     _mm_packs_epi32(_mm256_castsi256_si128(signed_m),
                                     _mm256_extracti128_si256(signed_m, 1)));
  }
#endif
  for (; i < n; ++i) {
    q[i] = quantize_value(x[i], out.scale);
  }
}

Tensor dequantize_frame(const QuantizedFrame& frame) {
  std::vector<float> data(frame.values.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(frame.values[i]) * frame.scale;
  }
  return Tensor::from_vector(std::move(data), Shape{frame.height, frame.width});
}

// --- stream header -----------------------------------------------------------

std::uint64_t PlaneStream::payload_bytes() const {
  std::uint64_t total = 0;
  for (const std::vector<std::uint8_t>& plane : planes) {
    total += plane.size();
  }
  return total;
}

std::array<std::uint8_t, kStreamHeaderBytes> serialize_stream_header(
    const PlaneStream& stream) {
  std::array<std::uint8_t, kStreamHeaderBytes> header{};
  header[0] = 'S';
  header[1] = 'X';
  header[2] = 1;  // version
  header[3] = stream.plane_count;
  header[4] = static_cast<std::uint8_t>(stream.height & 0xFF);
  header[5] = static_cast<std::uint8_t>(stream.height >> 8);
  header[6] = static_cast<std::uint8_t>(stream.width & 0xFF);
  header[7] = static_cast<std::uint8_t>(stream.width >> 8);
  std::uint32_t scale_bits = 0;
  std::memcpy(&scale_bits, &stream.scale, sizeof(scale_bits));
  header[8] = static_cast<std::uint8_t>(scale_bits & 0xFF);
  header[9] = static_cast<std::uint8_t>((scale_bits >> 8) & 0xFF);
  header[10] = static_cast<std::uint8_t>((scale_bits >> 16) & 0xFF);
  header[11] = static_cast<std::uint8_t>((scale_bits >> 24) & 0xFF);
  return header;
}

bool parse_stream_header(const std::uint8_t* data, std::size_t size,
                         PlaneStream& out) {
  if (data == nullptr || size < kStreamHeaderBytes) {
    return false;
  }
  if (data[0] != 'S' || data[1] != 'X' || data[2] != 1) {
    return false;
  }
  const std::uint8_t plane_count = data[3];
  if (plane_count > kMaxBitplanes) {
    return false;
  }
  const std::uint16_t height =
      static_cast<std::uint16_t>(data[4] | (static_cast<std::uint16_t>(data[5]) << 8));
  const std::uint16_t width =
      static_cast<std::uint16_t>(data[6] | (static_cast<std::uint16_t>(data[7]) << 8));
  if (height == 0 || width == 0) {
    return false;
  }
  std::uint32_t scale_bits = static_cast<std::uint32_t>(data[8]) |
                             (static_cast<std::uint32_t>(data[9]) << 8) |
                             (static_cast<std::uint32_t>(data[10]) << 16) |
                             (static_cast<std::uint32_t>(data[11]) << 24);
  float scale = 0.0F;
  std::memcpy(&scale, &scale_bits, sizeof(scale));
  if (!std::isfinite(scale) || scale < 0.0F) {
    return false;
  }
  if ((plane_count > 0) != (scale > 0.0F)) {
    return false;  // nonzero planes need a nonzero scale and vice versa
  }
  out.scale = scale;
  out.height = height;
  out.width = width;
  out.plane_count = plane_count;
  return true;
}

// --- bit-plane passes --------------------------------------------------------
//
// Every plane of one frame shares its adaptive contexts: significance keyed
// by how many causal neighbors (left, above) are already significant, one
// sign context, one refinement context. The pass loops hold them in locals:
// the three significance contexts in an array indexed by the neighbor
// count, sign and refinement (about 84% of a full-depth 16x16 frame's
// symbols) in scalars of their own.
//
// A coefficient is significant once a plane has coded a 1 of its magnitude,
// so significance is read off the magnitudes rather than kept: the encoder
// tests a magnitude's bits above the plane (for the neighbors, already coded
// in this plane, its bits from the plane up), and the decoder's partial
// magnitudes are nonzero exactly for the significant coefficients.

// --- encode ------------------------------------------------------------------

PlaneStream encode_bitplanes(const QuantizedFrame& frame, int max_planes) {
  PlaneStream stream;
  BitplaneCoder().encode(frame, max_planes, stream);
  return stream;
}

void BitplaneCoder::encode(const QuantizedFrame& frame, int max_planes, PlaneStream& out) {
  if (frame.height <= 0 || frame.width <= 0 || frame.height > 0xFFFF ||
      frame.width > 0xFFFF ||
      frame.values.size() !=
          static_cast<std::size_t>(frame.height * frame.width)) {
    throw std::runtime_error("encode_bitplanes: bad frame geometry");
  }
  if (max_planes < 0) {
    throw std::runtime_error("encode_bitplanes: max_planes must be >= 0");
  }

  const std::size_t n = frame.values.size();
  mag_.resize(n);
  negative_.resize(n);
  unsigned top = 0;  // every magnitude's bits: its width is the frame's depth
  for (std::size_t i = 0; i < n; ++i) {
    const int v = frame.values[i];
    mag_[i] = static_cast<std::uint16_t>(v < 0 ? -v : v);
    negative_[i] = v < 0 ? 1 : 0;
    top |= mag_[i];
  }
  int planes = 0;
  for (; top != 0; top >>= 1) {
    ++planes;
  }

  out.scale = frame.scale;
  out.height = static_cast<std::uint16_t>(frame.height);
  out.width = static_cast<std::uint16_t>(frame.width);
  out.plane_count = static_cast<std::uint8_t>(planes);

  const int chunks = max_planes == 0
                         ? out.plane_count
                         : (max_planes < out.plane_count ? max_planes : out.plane_count);
  out.planes.resize(static_cast<std::size_t>(chunks));
  std::uint32_t significance[3] = {kProbInit, kProbInit, kProbInit};
  std::uint32_t sign = kProbInit;
  std::uint32_t refinement = kProbInit;
  const std::uint16_t* const mag = mag_.data();
  const std::uint8_t* const negative = negative_.data();
  const std::size_t width = static_cast<std::size_t>(frame.width);
  for (int j = 0; j < chunks; ++j) {
    const int bitpos = out.plane_count - 1 - j;
    std::vector<std::uint8_t>& chunk = out.planes[static_cast<std::size_t>(j)];
    // A coefficient codes at most two symbols per plane (significance and
    // sign, or one refinement).
    chunk.resize(RangeEncoder::max_stream_bytes(2 * n));
    RangeEncoder encoder(chunk.data());
    for (std::size_t row = 0; row < n; row += width) {
      for (std::size_t i = row; i < row + width; ++i) {
        const std::uint32_t coded = mag[i] >> bitpos;  // this plane's bit and the ones above
        const std::uint32_t bit = coded & 1U;
        if (coded > 1U) {
          encoder.encode(refinement, bit);
        } else {
          int neighbors = 0;
          neighbors += (i > row && (mag[i - 1] >> bitpos) != 0) ? 1 : 0;
          neighbors += (row > 0 && (mag[i - width] >> bitpos) != 0) ? 1 : 0;
          encoder.encode(significance[neighbors], bit);
          if (bit != 0) {
            encoder.encode(sign, negative[i]);
          }
        }
      }
    }
    encoder.flush();
    chunk.resize(static_cast<std::size_t>(encoder.end() - chunk.data()));
  }
}

// --- decode ------------------------------------------------------------------

BitplaneDecode decode_bitplanes(const PlaneStream& stream, int max_planes) {
  std::array<ChunkView, kMaxBitplanes> chunks{};
  const std::size_t count = std::min(stream.planes.size(), chunks.size());
  for (std::size_t j = 0; j < count; ++j) {
    chunks[j] = {stream.planes[j].data(), stream.planes[j].size()};
  }
  BitplaneDecode result;
  result.decoded_planes =
      BitplaneCoder().decode(stream, chunks.data(), count, max_planes, result.frame);
  return result;
}

int BitplaneCoder::decode(const PlaneStream& header, const ChunkView* chunks,
                          std::size_t count, int max_planes, QuantizedFrame& out) {
  if (header.height == 0 || header.width == 0) {
    throw std::runtime_error("decode_bitplanes: bad stream geometry");
  }
  if (header.plane_count > kMaxBitplanes) {
    throw std::runtime_error("decode_bitplanes: more planes than an int16 magnitude has");
  }
  if (max_planes < 0) {
    throw std::runtime_error("decode_bitplanes: max_planes must be >= 0");
  }

  out.scale = header.scale;
  out.height = header.height;
  out.width = header.width;

  const std::size_t n =
      static_cast<std::size_t>(header.height) * static_cast<std::size_t>(header.width);
  mag_.assign(n, 0);
  negative_.assign(n, 0);
  std::uint32_t significance[3] = {kProbInit, kProbInit, kProbInit};
  std::uint32_t sign = kProbInit;
  std::uint32_t refinement = kProbInit;
  std::uint16_t* const mag = mag_.data();
  std::uint8_t* const negative = negative_.data();

  std::size_t available = count;
  if (available > header.plane_count) {
    available = header.plane_count;  // chunks beyond the full depth are noise
  }
  std::size_t want = available;
  if (max_planes != 0 && static_cast<std::size_t>(max_planes) < want) {
    want = static_cast<std::size_t>(max_planes);
  }

  const std::size_t width = header.width;
  int decoded = 0;
  for (std::size_t j = 0; j < want; ++j) {
    const ChunkView chunk = chunks[j];
    if (chunk.size < kMinChunkBytes) {
      break;  // cannot even hold the coder's flush tail
    }
    const int bitpos = static_cast<int>(header.plane_count) - 1 - static_cast<int>(j);
    RangeDecoder decoder(chunk.data, chunk.size);
    for (std::size_t row = 0; row < n; row += width) {
      for (std::size_t i = row; i < row + width; ++i) {
        if (mag[i] != 0) {
          mag[i] = static_cast<std::uint16_t>(mag[i] | (decoder.decode(refinement) << bitpos));
        } else {
          int neighbors = 0;
          neighbors += (i > row && mag[i - 1] != 0) ? 1 : 0;
          neighbors += (row > 0 && mag[i - width] != 0) ? 1 : 0;
          if (decoder.decode(significance[neighbors]) != 0) {
            mag[i] = static_cast<std::uint16_t>(1U << bitpos);
            negative[i] = static_cast<std::uint8_t>(decoder.decode(sign));
          }
        }
      }
    }
    if (decoder.overran()) {
      // The chunk overran its bytes: undo the plane in place, so partially
      // applied garbage cannot leak into the output. Clearing its bit
      // restores every magnitude; a coefficient it made significant had no
      // higher bit, so it reads zero again and its sign is moot. The
      // contexts need no undo, since decoding ends at this plane.
      const auto keep = static_cast<std::uint16_t>(~(1U << bitpos));
      for (std::size_t i = 0; i < n; ++i) {
        mag[i] = static_cast<std::uint16_t>(mag[i] & keep);
      }
      break;
    }
    ++decoded;
  }

  out.values.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int m = mag[i];
    out.values[i] = static_cast<std::int16_t>(negative[i] != 0 ? -m : m);
  }
  return decoded;
}

}  // namespace snappix::codec

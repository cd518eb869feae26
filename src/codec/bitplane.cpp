#include "codec/bitplane.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace snappix::codec {
namespace {

// --- adaptive binary range coder (LZMA-style) --------------------------------
//
// 11-bit probabilities, shift-5 adaptation, 32-bit range with byte-wise
// renormalization and carry propagation through a cache byte. Encoder and
// decoder update `prob` identically, so they stay in lockstep by
// construction. Both select on the coded bit with an all-ones/all-zeros mask
// instead of a branch: the bits are close to random, and a mispredicted
// branch per bit cost more than the arithmetic.

constexpr std::uint32_t kProbBits = 11;
constexpr std::uint16_t kProbOne = 1U << kProbBits;
constexpr std::uint16_t kProbInit = kProbOne / 2;
constexpr int kAdaptShift = 5;
constexpr std::uint32_t kTopValue = 1U << 24;

// A range-coder stream is never shorter than its 5 flush bytes; a chunk
// below this cannot be decoded at all.
constexpr std::size_t kMinChunkBytes = 5;

// `prob` moved toward the coded bit: + (kProbOne - prob) >> 5 after a 0,
// - prob >> 5 after a 1. `one` is all ones when the bit is 1.
inline std::uint16_t adapt(std::uint16_t prob, std::uint32_t one) {
  const std::uint32_t p = prob;
  const std::uint32_t after0 = p + ((kProbOne - p) >> kAdaptShift);
  const std::uint32_t after1 = p - (p >> kAdaptShift);
  return static_cast<std::uint16_t>((after1 & one) | (after0 & ~one));
}

class RangeEncoder {
 public:
  explicit RangeEncoder(std::vector<std::uint8_t>& out) : out_(out) {}

  void encode(std::uint16_t& prob, int bit) {
    const std::uint32_t bound = (range_ >> kProbBits) * prob;
    const std::uint32_t one = 0U - static_cast<std::uint32_t>(bit);
    low_ += bound & one;
    range_ = ((range_ - bound) & one) | (bound & ~one);
    prob = adapt(prob, one);
    while (range_ < kTopValue) {
      range_ <<= 8;
      shift_low();
    }
  }

  void flush() {
    for (int i = 0; i < 5; ++i) {
      shift_low();
    }
  }

 private:
  void shift_low() {
    if (static_cast<std::uint32_t>(low_) < 0xFF000000U || (low_ >> 32) != 0) {
      std::uint8_t byte = cache_;
      do {
        out_.push_back(static_cast<std::uint8_t>(byte + static_cast<std::uint8_t>(low_ >> 32)));
        byte = 0xFF;
      } while (--cache_size_ != 0);
      cache_ = static_cast<std::uint8_t>(low_ >> 24);
    }
    ++cache_size_;
    low_ = (low_ & 0x00FFFFFFULL) << 8;
  }

  std::vector<std::uint8_t>& out_;
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

  int decode(std::uint16_t& prob) {
    const std::uint32_t bound = (range_ >> kProbBits) * prob;
    const std::uint32_t one = 0U - static_cast<std::uint32_t>(code_ >= bound);
    code_ -= bound & one;
    range_ = ((range_ - bound) & one) | (bound & ~one);
    prob = adapt(prob, one);
    while (range_ < kTopValue) {
      range_ <<= 8;
      code_ = (code_ << 8) | next_byte();
    }
    return static_cast<int>(one & 1U);
  }

  bool overran() const { return overran_; }

 private:
  // Past-end reads hand back zeros and raise the overrun flag instead of
  // touching memory: a truncated or corrupt chunk decodes to garbage that
  // the caller then discards, never to UB.
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

// --- bit-plane pass state ----------------------------------------------------

// Adaptive contexts shared by every plane of one frame: significance keyed by
// how many causal neighbors (left, above) are already significant, one sign
// context, one refinement context.
struct Contexts {
  std::uint16_t significance[3] = {kProbInit, kProbInit, kProbInit};
  std::uint16_t sign = kProbInit;
  std::uint16_t refinement = kProbInit;
};

int magnitude_plane_count(const std::vector<std::uint16_t>& mag) {
  std::uint16_t top = 0;
  for (const std::uint16_t m : mag) {
    top = m > top ? m : top;
  }
  int planes = 0;
  while (top != 0) {
    ++planes;
    top = static_cast<std::uint16_t>(top >> 1);
  }
  return planes;
}

}  // namespace

// --- quantization ------------------------------------------------------------

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

  float max_abs = 0.0F;
  for (const float x : data) {
    if (!std::isfinite(x)) {
      throw std::runtime_error("quantize_frame: non-finite coded measurement");
    }
    const float a = std::fabs(x);
    max_abs = a > max_abs ? a : max_abs;
  }
  if (max_abs == 0.0F) {
    out.scale = 0.0F;
    out.values.assign(data.size(), 0);
    return;
  }
  out.scale = max_abs / 32767.0F;
  out.values.resize(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    long q = std::lround(data[i] / out.scale);
    q = q > 32767 ? 32767 : q;
    q = q < -32767 ? -32767 : q;
    out.values[i] = static_cast<std::int16_t>(q);
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
  for (std::size_t i = 0; i < n; ++i) {
    const int v = frame.values[i];
    mag_[i] = static_cast<std::uint16_t>(v < 0 ? -v : v);
    negative_[i] = v < 0 ? 1 : 0;
  }

  out.scale = frame.scale;
  out.height = static_cast<std::uint16_t>(frame.height);
  out.width = static_cast<std::uint16_t>(frame.width);
  out.plane_count = static_cast<std::uint8_t>(magnitude_plane_count(mag_));

  const int chunks = max_planes == 0
                         ? out.plane_count
                         : (max_planes < out.plane_count ? max_planes : out.plane_count);
  out.planes.resize(static_cast<std::size_t>(chunks));
  Contexts ctx;
  significant_.assign(n, 0);
  const std::size_t width = static_cast<std::size_t>(frame.width);
  for (int j = 0; j < chunks; ++j) {
    const int bitpos = out.plane_count - 1 - j;
    std::vector<std::uint8_t>& chunk = out.planes[static_cast<std::size_t>(j)];
    chunk.clear();
    chunk.reserve(n / 4 + 2 * kMinChunkBytes);
    RangeEncoder encoder(chunk);
    std::size_t col = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const int bit = (mag_[i] >> bitpos) & 1;
      if (significant_[i] != 0) {
        encoder.encode(ctx.refinement, bit);
      } else {
        int neighbors = 0;
        neighbors += (col > 0 && significant_[i - 1] != 0) ? 1 : 0;
        neighbors += (i >= width && significant_[i - width] != 0) ? 1 : 0;
        encoder.encode(ctx.significance[neighbors], bit);
        if (bit != 0) {
          encoder.encode(ctx.sign, negative_[i]);
          significant_[i] = 1;
        }
      }
      col = col + 1 == width ? 0 : col + 1;
    }
    encoder.flush();
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
  significant_.assign(n, 0);
  Contexts ctx;

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
    // Stage the plane so a chunk that overruns its bytes can be discarded
    // whole: partially applied garbage must not leak into the output.
    mag_stage_.assign(mag_.begin(), mag_.end());
    negative_stage_.assign(negative_.begin(), negative_.end());
    significant_stage_.assign(significant_.begin(), significant_.end());
    Contexts ctx_stage = ctx;

    const int bitpos = static_cast<int>(header.plane_count) - 1 - static_cast<int>(j);
    RangeDecoder decoder(chunk.data, chunk.size);
    std::size_t col = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (significant_stage_[i] != 0) {
        const int bit = decoder.decode(ctx_stage.refinement);
        mag_stage_[i] = static_cast<std::uint16_t>(mag_stage_[i] | (bit << bitpos));
      } else {
        int neighbors = 0;
        neighbors += (col > 0 && significant_stage_[i - 1] != 0) ? 1 : 0;
        neighbors += (i >= width && significant_stage_[i - width] != 0) ? 1 : 0;
        const int bit = decoder.decode(ctx_stage.significance[neighbors]);
        if (bit != 0) {
          mag_stage_[i] = static_cast<std::uint16_t>(mag_stage_[i] | (1U << bitpos));
          negative_stage_[i] = static_cast<std::uint8_t>(decoder.decode(ctx_stage.sign));
          significant_stage_[i] = 1;
        }
      }
      col = col + 1 == width ? 0 : col + 1;
    }
    if (decoder.overran()) {
      break;
    }
    mag_.swap(mag_stage_);
    negative_.swap(negative_stage_);
    significant_.swap(significant_stage_);
    ctx = ctx_stage;
    ++decoded;
  }

  out.values.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int m = mag_[i];
    out.values[i] = static_cast<std::int16_t>(negative_[i] != 0 ? -m : m);
  }
  return decoded;
}

}  // namespace snappix::codec

// Bit-plane entropy codec for coded measurements: the entropy-coded wire tier.
//
// The framed transport used to ship coded frames as raw float32 rows; this
// codec replaces those rows with a quantized, entropy-coded, *truncatable*
// plane stream:
//
//   quantize_frame()    per-frame scale to int16 (scale = max|x| / 32767,
//                       dequantized value = q * scale)
//   encode_bitplanes()  ICER-style bit-plane passes over the magnitudes,
//                       MSB first: a significance bit per not-yet-significant
//                       coefficient (context = number of significant causal
//                       neighbors), a sign bit on first significance, and a
//                       refinement bit per already-significant coefficient.
//                       Bits go through an adaptive binary range coder
//                       (LZMA-style, 11-bit probabilities); each plane is
//                       flushed into its own byte-aligned chunk so the stream
//                       can be cut at any plane boundary. The coder never
//                       branches on a coded bit (the bits are near-random, so
//                       a branch mispredicts): it selects the range and adds
//                       masked terms. The refinement and sign contexts live
//                       in registers, not in an indexed struct, and the
//                       encoder, knowing each bit before coding it, moves a
//                       probability to p + d - ((p + c) >> 5), with c and d
//                       masks of the bit, instead of selecting between two
//                       updates. Its bound/range/low/code and probability
//                       arithmetic is the textbook LZMA coder's, so the bytes
//                       are too.
//   decode_bitplanes()  decodes the first d chunks and zero-fills the
//                       undecoded low bits. Per-coefficient error is monotone
//                       non-increasing in d, and decoding every plane
//                       reproduces the int16 values exactly — so the full-
//                       depth framed path is bit-identical to
//                       dequantize_frame(quantize_frame(x)) computed in
//                       memory. A plane whose chunk overruns its bytes is
//                       undone in place (its bit cleared from every
//                       magnitude), so nothing is staged or copied per plane.
//
// Probability contexts persist across planes (the decoder replays them in
// lockstep), which is safe because decode is always a strict MSB-first
// prefix. The wire header produced by serialize_stream_header() is validated
// structurally on parse; payload integrity on a real link is the CSI-2
// CRC's job (transport/csi2.h), but the decoder is also safe on arbitrary
// bytes: every read is bounds-checked and a chunk that overruns its bytes
// ends the decode at that plane instead of invoking UB.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace snappix::codec {

// int16 magnitudes fit 15 bits, so a stream never has more planes than this.
constexpr int kMaxBitplanes = 15;

struct QuantizedFrame {
  float scale = 0.0F;  // dequantized value = q * scale; 0 for an all-zero frame
  std::int64_t height = 0;
  std::int64_t width = 0;
  std::vector<std::int16_t> values;  // row-major, height * width entries
};

// Per-frame scale quantization: scale = max|x| / 32767, q = round(x / scale)
// (half away from zero, as std::lround) clamped to [-32767, 32767]. A frame
// whose scale is 0 (all zeros, or max|x| so small that the division
// underflows) quantizes to scale 0 and all-zero codes. Requires a finite
// (H, W) tensor. The second form writes into `out`, reusing its value
// buffer.
QuantizedFrame quantize_frame(const Tensor& coded);
void quantize_frame(const Tensor& coded, QuantizedFrame& out);
Tensor dequantize_frame(const QuantizedFrame& frame);

// An encoded frame: geometry + scale + MSB-first plane chunks. `plane_count`
// is the full bit depth of the frame's magnitudes; `planes` may hold fewer
// chunks than that when the transmit side truncates the stream.
struct PlaneStream {
  float scale = 0.0F;
  std::uint16_t height = 0;
  std::uint16_t width = 0;
  std::uint8_t plane_count = 0;
  std::vector<std::vector<std::uint8_t>> planes;  // MSB first

  std::uint64_t payload_bytes() const;
};

// Encodes the top min(max_planes, full depth) planes (0 = every plane).
// plane_count always reports the full depth so a truncated stream still
// knows what it was cut from.
PlaneStream encode_bitplanes(const QuantizedFrame& frame, int max_planes = 0);

// Wire header: magic "SX", version, plane count, geometry, scale bits.
constexpr std::size_t kStreamHeaderBytes = 12;
std::array<std::uint8_t, kStreamHeaderBytes> serialize_stream_header(
    const PlaneStream& stream);
// Parses and structurally validates a header (magic, version, plane count
// <= kMaxBitplanes, nonzero geometry, finite non-negative scale). On success
// fills scale / geometry / plane_count and returns true; `out.planes` is
// left untouched. Never reads past `size`.
bool parse_stream_header(const std::uint8_t* data, std::size_t size,
                         PlaneStream& out);

struct BitplaneDecode {
  int decoded_planes = 0;  // consecutive MSB chunks that decoded cleanly
  QuantizedFrame frame;    // partial magnitudes, undecoded low bits zero
};

// Decodes up to `max_planes` chunks (0 = all present). Stops early at a
// chunk that is too short to hold a range-coder stream or that overruns its
// bytes; everything decoded before the bad chunk is kept.
BitplaneDecode decode_bitplanes(const PlaneStream& stream, int max_planes = 0);

// One plane chunk's bytes, not owned.
struct ChunkView {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};

// The coder behind encode_bitplanes()/decode_bitplanes(), for callers that
// code frame after frame (transport::FramedLink): it keeps its pass scratch,
// and encode() reuses the chunk buffers of the stream it writes, so a warm
// coder allocates nothing per frame.
class BitplaneCoder {
 public:
  // Same stream as encode_bitplanes(frame, max_planes), written into `out`.
  void encode(const QuantizedFrame& frame, int max_planes, PlaneStream& out);
  // Same values as decode_bitplanes() on a stream with `header`'s geometry,
  // scale and plane_count (its `planes` are not read) and these `count`
  // chunks, written into `out`. Returns the number of planes decoded.
  int decode(const PlaneStream& header, const ChunkView* chunks, std::size_t count,
             int max_planes, QuantizedFrame& out);

 private:
  // Magnitudes and signs; a coefficient is significant once its magnitude
  // has a 1 at or above the plane being coded.
  std::vector<std::uint16_t> mag_;
  std::vector<std::uint8_t> negative_;
};

}  // namespace snappix::codec

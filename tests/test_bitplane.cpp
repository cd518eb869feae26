// Property tests for the bit-plane entropy codec (codec/bitplane.h): full-
// depth losslessness, monotone fidelity in decoded depth, truncatability at
// every plane boundary, and safe rejection of corrupt or truncated streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "codec/bitplane.h"
#include "tensor/tensor.h"
#include "transport/link.h"
#include "util/rng.h"

namespace snappix {
namespace {

using codec::BitplaneDecode;
using codec::decode_bitplanes;
using codec::dequantize_frame;
using codec::encode_bitplanes;
using codec::kMaxBitplanes;
using codec::kStreamHeaderBytes;
using codec::parse_stream_header;
using codec::PlaneStream;
using codec::quantize_frame;
using codec::QuantizedFrame;
using codec::serialize_stream_header;

// The geometries the property sweeps cover: degenerate, odd, square, wide.
struct Geometry {
  std::int64_t height;
  std::int64_t width;
};
constexpr Geometry kGeometries[] = {{1, 1}, {7, 5}, {16, 16}, {32, 8}, {3, 17}};

double mse(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    const double d = static_cast<double>(a.data()[i]) - b.data()[i];
    sum += d * d;
  }
  return sum / static_cast<double>(a.data().size());
}

TEST(Quantize, RoundTripIsExactForRepresentableValues) {
  // Values that are exact multiples of the scale survive the int16 round trip.
  QuantizedFrame frame;
  frame.scale = 0.25F;
  frame.height = 2;
  frame.width = 2;
  frame.values = {100, -200, 32767, 0};
  const Tensor deq = dequantize_frame(frame);
  const QuantizedFrame again = quantize_frame(deq);
  EXPECT_EQ(again.values, frame.values);
}

TEST(Quantize, AllZeroFrameHasZeroScaleAndNoPlanes) {
  const QuantizedFrame q = quantize_frame(Tensor::zeros(Shape{4, 4}));
  EXPECT_EQ(q.scale, 0.0F);
  const PlaneStream stream = encode_bitplanes(q);
  EXPECT_EQ(stream.plane_count, 0);
  EXPECT_TRUE(stream.planes.empty());
  const BitplaneDecode decode = decode_bitplanes(stream);
  EXPECT_EQ(decode.decoded_planes, 0);
  const Tensor out = dequantize_frame(decode.frame);
  for (const float v : out.data()) {
    EXPECT_EQ(v, 0.0F);
  }
}

TEST(Quantize, InvalidInputsThrow) {
  EXPECT_THROW(quantize_frame(Tensor::zeros(Shape{4})), std::exception);
  EXPECT_THROW(quantize_frame(Tensor::zeros(Shape{2, 2, 2})), std::exception);
  std::vector<float> bad = {1.0F, std::numeric_limits<float>::quiet_NaN()};
  EXPECT_THROW(quantize_frame(Tensor::from_vector(bad, Shape{1, 2})), std::exception);
}

// The quantizer's definition: std::lround of x / (max|x| / 32767), clamped
// to [-32767, 32767], and all zeros when that scale is 0.
std::vector<std::int16_t> lround_codes(const Tensor& x) {
  float max_abs = 0.0F;
  for (const float v : x.data()) {
    max_abs = std::max(max_abs, std::fabs(v));
  }
  const float scale = max_abs / 32767.0F;
  std::vector<std::int16_t> codes(x.data().size(), 0);
  for (std::size_t i = 0; scale > 0.0F && i < codes.size(); ++i) {
    const long q = std::lround(x.data()[i] / scale);
    codes[i] = static_cast<std::int16_t>(std::clamp(q, -32767L, 32767L));
  }
  return codes;
}

// One test for both quantize paths: the default build runs its AVX2 body
// (and the scalar tail on the last n % 8 elements), the TSan build its
// scalar path.
TEST(Quantize, RoundsHalfAwayFromZeroLikeLroundOnEveryPath) {
  // A max of 32767 makes the scale 1, so these quotients are exact: halves
  // round away from zero, and a value just under a half rounds down (a
  // floor(a + 0.5) would round 0.49999997 up). The last three elements, the
  // lane tail, repeat the hardest cases.
  const std::vector<float> halves = {
      2.5F,  -3.5F,  0.5F,  -0.5F,  32766.5F, -32766.5F,   1.5F,  -2.5F,   0.49999997F, 0.0F,
      -0.0F, 32767.0F, -7.0F, 4.25F, -4.75F,   100.5F,      0.49999997F, -2.5F, 32766.5F};
  const QuantizedFrame q = quantize_frame(
      Tensor::from_vector(halves, Shape{1, static_cast<std::int64_t>(halves.size())}));
  EXPECT_EQ(q.scale, 1.0F);
  const std::vector<std::int16_t> want = {3,  -4,    1,  -1, 32767, -32767, 2, -3, 0,    0,
                                          0,  32767, -7, 4,  -5,    101,    0, -3, 32767};
  EXPECT_EQ(q.values, want);

  // Every geometry, lane tails included (n % 8 = 1, 7, 3, 3, 0, 2), on
  // random frames and on frames of exact halves at scale 1.
  Rng rng(17);
  for (const Geometry g : {Geometry{1, 1}, Geometry{1, 7}, Geometry{7, 5}, Geometry{3, 17},
                           Geometry{16, 16}, Geometry{2, 9}}) {
    const Shape shape{g.height, g.width};
    const Tensor random = Tensor::rand_uniform(shape, rng, -3.0F, 3.0F);
    EXPECT_EQ(quantize_frame(random).values, lround_codes(random)) << g.height << "x" << g.width;
    std::vector<float> exact(static_cast<std::size_t>(shape.numel()));
    for (float& v : exact) {
      v = static_cast<float>(rng.uniform_int(-32767, 32766)) + 0.5F;
    }
    exact[exact.size() / 2] = -32767.0F;  // pins the scale to 1
    const Tensor halfway = Tensor::from_vector(exact, shape);
    EXPECT_EQ(quantize_frame(halfway).scale, 1.0F);
    EXPECT_EQ(quantize_frame(halfway).values, lround_codes(halfway))
        << g.height << "x" << g.width;
  }

  // The clamps: with a subnormal max the scale rounds to one subnormal
  // step, so max|x| / scale is 40000 and both signs clamp to 32767.
  const float step = std::numeric_limits<float>::denorm_min();
  std::vector<float> tiny(24, 0.0F);
  tiny[3] = 40000.0F * step;
  tiny[12] = -40000.0F * step;
  tiny[20] = -0.0F;
  const Tensor clamped = Tensor::from_vector(tiny, Shape{3, 8});
  const QuantizedFrame c = quantize_frame(clamped);
  EXPECT_EQ(c.scale, step);
  EXPECT_EQ(c.values[3], 32767);
  EXPECT_EQ(c.values[12], -32767);
  EXPECT_EQ(c.values, lround_codes(clamped));

  // A frame below the codec's resolution: max|x| / 32767 underflows to 0.
  // It quantizes as the all-zero frame, so its stream header is valid and a
  // clean framed transfer delivers the in-memory round trip (all +0).
  std::vector<float> faint(16 * 16, 0.0F);
  for (std::size_t i = 0; i < faint.size(); i += 3) {
    faint[i] = (i % 2 == 0 ? 8.0F : -5.0F) * step;
  }
  const Tensor below = Tensor::from_vector(faint, Shape{16, 16});
  const QuantizedFrame z = quantize_frame(below);
  EXPECT_EQ(z.scale, 0.0F);
  EXPECT_EQ(z.values, std::vector<std::int16_t>(faint.size(), 0));
  EXPECT_EQ(encode_bitplanes(z).plane_count, 0);
  transport::LinkConfig config;
  config.codec = true;
  transport::FramedLink link(config);
  const transport::TransferResult rx = link.transfer(below, 0);
  EXPECT_EQ(rx.outcome, transport::RxOutcome::kOk);
  const Tensor want_rx = dequantize_frame(quantize_frame(below));
  ASSERT_EQ(rx.coded.data().size(), want_rx.data().size());
  EXPECT_EQ(std::memcmp(rx.coded.data().data(), want_rx.data().data(),
                        want_rx.data().size() * sizeof(float)),
            0);
}

// Full-depth decode reproduces the int16 values exactly, for every geometry
// and seed — the guarantee the framed codec path's bit-identity rests on.
TEST(Bitplane, FullDepthIsLossless) {
  for (const Geometry geo : kGeometries) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      Rng rng(seed);
      const Tensor coded =
          Tensor::rand_uniform(Shape{geo.height, geo.width}, rng, -3.0F, 3.0F);
      const QuantizedFrame q = quantize_frame(coded);
      const PlaneStream stream = encode_bitplanes(q);
      const BitplaneDecode decode = decode_bitplanes(stream);
      EXPECT_EQ(decode.decoded_planes, static_cast<int>(stream.plane_count));
      ASSERT_EQ(decode.frame.values.size(), q.values.size());
      EXPECT_EQ(decode.frame.values, q.values)
          << "lossy at geometry " << geo.height << "x" << geo.width << " seed " << seed;
      // And therefore the dequantized floats are bit-identical to the
      // in-memory quantize -> dequantize round trip.
      const Tensor wire_view = dequantize_frame(decode.frame);
      const Tensor memory_view = dequantize_frame(q);
      EXPECT_EQ(std::memcmp(wire_view.data().data(), memory_view.data().data(),
                            wire_view.data().size() * sizeof(float)),
                0);
    }
  }
}

// Decoding more planes never increases the error: the zero-fill of undecoded
// low bits makes per-coefficient error monotone in depth.
TEST(Bitplane, ErrorIsMonotoneInDecodedDepth) {
  Rng rng(42);
  const Tensor coded = Tensor::rand_uniform(Shape{16, 16}, rng, -2.0F, 2.0F);
  const QuantizedFrame q = quantize_frame(coded);
  const PlaneStream stream = encode_bitplanes(q);
  const Tensor reference = dequantize_frame(q);
  ASSERT_GT(stream.plane_count, 2);
  double prev = std::numeric_limits<double>::infinity();
  for (int depth = 1; depth <= stream.plane_count; ++depth) {
    const BitplaneDecode decode = decode_bitplanes(stream, depth);
    EXPECT_EQ(decode.decoded_planes, depth);
    const double err = mse(dequantize_frame(decode.frame), reference);
    EXPECT_LE(err, prev) << "MSE increased at depth " << depth;
    prev = err;
  }
  EXPECT_EQ(prev, 0.0);  // full depth is exact
}

// Cutting the chunk list at any plane boundary decodes to exactly what a
// depth-capped decode of the full stream produces — the property that lets
// the transmit side truncate the wire stream without changing semantics.
TEST(Bitplane, TruncationAtEveryPlaneBoundaryMatchesCappedDecode) {
  Rng rng(7);
  const Tensor coded = Tensor::rand_uniform(Shape{8, 12}, rng, -1.0F, 1.0F);
  const QuantizedFrame q = quantize_frame(coded);
  const PlaneStream full = encode_bitplanes(q);
  {
    // Depth 0: an empty chunk list decodes to all-zero magnitudes. (A cap of
    // 0 means "all planes" by contract, so it is not part of the sweep.)
    PlaneStream cut = full;
    cut.planes.clear();
    const BitplaneDecode none = decode_bitplanes(cut);
    EXPECT_EQ(none.decoded_planes, 0);
    for (const std::int16_t v : none.frame.values) {
      EXPECT_EQ(v, 0);
    }
  }
  for (int depth = 1; depth <= full.plane_count; ++depth) {
    PlaneStream cut = full;
    cut.planes.resize(static_cast<std::size_t>(depth));
    const BitplaneDecode from_cut = decode_bitplanes(cut);
    const BitplaneDecode from_cap = decode_bitplanes(full, depth);
    EXPECT_EQ(from_cut.decoded_planes, depth);
    EXPECT_EQ(from_cap.decoded_planes, depth);
    EXPECT_EQ(from_cut.frame.values, from_cap.frame.values);
  }
}

// Transmit-side truncation emits a byte-identical prefix of the full encode:
// the encoder's plane chunks do not depend on how many follow them.
TEST(Bitplane, EncodeWithCapEmitsPrefixOfFullEncode) {
  Rng rng(11);
  const Tensor coded = Tensor::rand_uniform(Shape{9, 9}, rng, -4.0F, 4.0F);
  const QuantizedFrame q = quantize_frame(coded);
  const PlaneStream full = encode_bitplanes(q);
  ASSERT_GT(full.plane_count, 3);
  for (int cap = 1; cap <= full.plane_count; ++cap) {
    const PlaneStream truncated = encode_bitplanes(q, cap);
    EXPECT_EQ(truncated.plane_count, full.plane_count);  // header keeps full depth
    ASSERT_EQ(truncated.planes.size(), static_cast<std::size_t>(cap));
    for (int j = 0; j < cap; ++j) {
      EXPECT_EQ(truncated.planes[static_cast<std::size_t>(j)],
                full.planes[static_cast<std::size_t>(j)]);
    }
    EXPECT_LE(truncated.payload_bytes(), full.payload_bytes());
  }
}

// --- the branching reference coder --------------------------------------------
//
// The coder as first written: the textbook LZMA range coder, branching on
// every coded bit, driving the same significance/sign/refinement passes with
// `i % width` columns and fresh buffers per plane. The library's mask-select
// coder must produce the same chunk bytes and decode the same values — on
// damaged chunks too.

namespace reference {

constexpr std::uint16_t kProbOne = 1U << 11;
constexpr std::uint16_t kProbInit = kProbOne / 2;

struct Contexts {
  std::uint16_t significance[3] = {kProbInit, kProbInit, kProbInit};
  std::uint16_t sign = kProbInit;
  std::uint16_t refinement = kProbInit;
};

class Encoder {
 public:
  explicit Encoder(std::vector<std::uint8_t>& out) : out_(out) {}
  void encode(std::uint16_t& prob, int bit) {
    const std::uint32_t bound = (range_ >> 11) * prob;
    if (bit == 0) {
      range_ = bound;
      prob = static_cast<std::uint16_t>(prob + ((kProbOne - prob) >> 5));
    } else {
      low_ += bound;
      range_ -= bound;
      prob = static_cast<std::uint16_t>(prob - (prob >> 5));
    }
    while (range_ < (1U << 24)) {
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

class Decoder {
 public:
  explicit Decoder(const std::vector<std::uint8_t>& data) : data_(data) {
    next_byte();
    for (int i = 0; i < 4; ++i) {
      code_ = (code_ << 8) | next_byte();
    }
  }
  int decode(std::uint16_t& prob) {
    const std::uint32_t bound = (range_ >> 11) * prob;
    int bit;
    if (code_ < bound) {
      range_ = bound;
      prob = static_cast<std::uint16_t>(prob + ((kProbOne - prob) >> 5));
      bit = 0;
    } else {
      code_ -= bound;
      range_ -= bound;
      prob = static_cast<std::uint16_t>(prob - (prob >> 5));
      bit = 1;
    }
    while (range_ < (1U << 24)) {
      range_ <<= 8;
      code_ = (code_ << 8) | next_byte();
    }
    return bit;
  }
  bool overran() const { return overran_; }

 private:
  std::uint32_t next_byte() {
    if (pos_ >= data_.size()) {
      overran_ = true;
      return 0;
    }
    return data_[pos_++];
  }
  const std::vector<std::uint8_t>& data_;
  std::size_t pos_ = 0;
  std::uint32_t code_ = 0;
  std::uint32_t range_ = 0xFFFFFFFFU;
  bool overran_ = false;
};

std::vector<std::vector<std::uint8_t>> encode(const QuantizedFrame& frame, int planes,
                                              int chunks) {
  const std::size_t n = frame.values.size();
  const std::size_t width = static_cast<std::size_t>(frame.width);
  std::vector<std::uint8_t> significant(n, 0);
  Contexts ctx;
  std::vector<std::vector<std::uint8_t>> out;
  for (int j = 0; j < chunks; ++j) {
    const int bitpos = planes - 1 - j;
    std::vector<std::uint8_t> chunk;
    Encoder encoder(chunk);
    for (std::size_t i = 0; i < n; ++i) {
      const int v = frame.values[i];
      const int bit = ((v < 0 ? -v : v) >> bitpos) & 1;
      if (significant[i] != 0) {
        encoder.encode(ctx.refinement, bit);
        continue;
      }
      const std::size_t col = i % width;
      int neighbors = 0;
      neighbors += (col > 0 && significant[i - 1] != 0) ? 1 : 0;
      neighbors += (i >= width && significant[i - width] != 0) ? 1 : 0;
      encoder.encode(ctx.significance[neighbors], bit);
      if (bit != 0) {
        encoder.encode(ctx.sign, v < 0 ? 1 : 0);
        significant[i] = 1;
      }
    }
    encoder.flush();
    out.push_back(std::move(chunk));
  }
  return out;
}

// Values after decoding the first `want` chunks; *decoded counts the planes
// that decoded cleanly (staged per plane, dropped whole on overrun).
std::vector<std::int16_t> decode(const PlaneStream& stream, std::size_t want, int* decoded) {
  const std::size_t n = static_cast<std::size_t>(stream.height) * stream.width;
  const std::size_t width = stream.width;
  std::vector<std::uint16_t> mag(n, 0);
  std::vector<std::uint8_t> negative(n, 0);
  std::vector<std::uint8_t> significant(n, 0);
  Contexts ctx;
  *decoded = 0;
  for (std::size_t j = 0; j < want; ++j) {
    if (stream.planes[j].size() < 5) {
      break;
    }
    std::vector<std::uint16_t> mag_stage = mag;
    std::vector<std::uint8_t> negative_stage = negative;
    std::vector<std::uint8_t> significant_stage = significant;
    Contexts ctx_stage = ctx;
    const int bitpos = static_cast<int>(stream.plane_count) - 1 - static_cast<int>(j);
    Decoder decoder(stream.planes[j]);
    for (std::size_t i = 0; i < n; ++i) {
      if (significant_stage[i] != 0) {
        const int bit = decoder.decode(ctx_stage.refinement);
        mag_stage[i] = static_cast<std::uint16_t>(mag_stage[i] | (bit << bitpos));
        continue;
      }
      const std::size_t col = i % width;
      int neighbors = 0;
      neighbors += (col > 0 && significant_stage[i - 1] != 0) ? 1 : 0;
      neighbors += (i >= width && significant_stage[i - width] != 0) ? 1 : 0;
      if (decoder.decode(ctx_stage.significance[neighbors]) != 0) {
        mag_stage[i] = static_cast<std::uint16_t>(mag_stage[i] | (1U << bitpos));
        negative_stage[i] = static_cast<std::uint8_t>(decoder.decode(ctx_stage.sign));
        significant_stage[i] = 1;
      }
    }
    if (decoder.overran()) {
      break;
    }
    mag = std::move(mag_stage);
    negative = std::move(negative_stage);
    significant = std::move(significant_stage);
    ctx = ctx_stage;
    ++*decoded;
  }
  std::vector<std::int16_t> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = static_cast<std::int16_t>(negative[i] != 0 ? -mag[i] : mag[i]);
  }
  return values;
}

}  // namespace reference

TEST(Bitplane, CoderMatchesBranchingReference) {
  Rng rng(404);
  int early_stops = 0;  // damaged decodes that ended before their last chunk
  for (const Geometry g : kGeometries) {
    for (int trial = 0; trial < 6; ++trial) {
      // Scene-like, signed and sparse frames: every context and carry path.
      Tensor coded = Tensor::rand_uniform(Shape{g.height, g.width}, rng,
                                          trial % 2 == 0 ? 0.0F : -1.0F, 1.0F);
      if (trial >= 4) {
        for (float& v : coded.data()) {
          v = rng.bernoulli(0.1F) ? v : 0.0F;
        }
      }
      const QuantizedFrame q = quantize_frame(coded);
      for (const int cap : {0, 3, 8}) {
        const PlaneStream stream = encode_bitplanes(q, cap);
        const int chunks = static_cast<int>(stream.planes.size());
        ASSERT_EQ(stream.planes, reference::encode(q, stream.plane_count, chunks))
            << g.height << "x" << g.width << " trial " << trial << " cap " << cap;

        // Decode the clean stream, then one with a damaged chunk.
        PlaneStream damaged = stream;
        if (!damaged.planes.empty()) {
          auto& chunk = damaged.planes[damaged.planes.size() / 2];
          chunk.resize(chunk.size() * 2 / 3);
          if (!chunk.empty()) {
            chunk[chunk.size() / 2] ^= 0x5A;
          }
        }
        for (const PlaneStream* s : {&stream, static_cast<const PlaneStream*>(&damaged)}) {
          int want_decoded = 0;
          const std::vector<std::int16_t> want =
              reference::decode(*s, s->planes.size(), &want_decoded);
          const BitplaneDecode got = decode_bitplanes(*s, cap);
          ASSERT_EQ(got.decoded_planes, want_decoded);
          ASSERT_EQ(got.frame.values, want);
          early_stops += got.decoded_planes < static_cast<int>(s->planes.size()) ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(early_stops, 0);
}

TEST(StreamHeader, SerializeParseRoundTrip) {
  Rng rng(3);
  const QuantizedFrame q =
      quantize_frame(Tensor::rand_uniform(Shape{5, 6}, rng, -1.0F, 1.0F));
  const PlaneStream stream = encode_bitplanes(q);
  const auto bytes = serialize_stream_header(stream);
  PlaneStream parsed;
  ASSERT_TRUE(parse_stream_header(bytes.data(), bytes.size(), parsed));
  EXPECT_EQ(parsed.scale, stream.scale);
  EXPECT_EQ(parsed.height, stream.height);
  EXPECT_EQ(parsed.width, stream.width);
  EXPECT_EQ(parsed.plane_count, stream.plane_count);
}

TEST(StreamHeader, TruncatedHeaderIsRejected) {
  Rng rng(4);
  const PlaneStream stream =
      encode_bitplanes(quantize_frame(Tensor::rand_uniform(Shape{4, 4}, rng)));
  const auto bytes = serialize_stream_header(stream);
  PlaneStream parsed;
  for (std::size_t size = 0; size < kStreamHeaderBytes; ++size) {
    EXPECT_FALSE(parse_stream_header(bytes.data(), size, parsed));
  }
}

// Single-byte corruption fuzz: every parse either rejects the header or
// yields structurally valid fields — never UB, never absurd geometry.
TEST(StreamHeader, CorruptHeaderBytesNeverYieldInvalidFields) {
  Rng rng(5);
  const PlaneStream stream =
      encode_bitplanes(quantize_frame(Tensor::rand_uniform(Shape{6, 6}, rng)));
  const auto golden = serialize_stream_header(stream);
  for (std::size_t pos = 0; pos < golden.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bytes = golden;
      bytes[pos] = static_cast<std::uint8_t>(bytes[pos] ^ (1U << bit));
      PlaneStream parsed;
      if (parse_stream_header(bytes.data(), bytes.size(), parsed)) {
        EXPECT_GT(parsed.height, 0);
        EXPECT_GT(parsed.width, 0);
        EXPECT_LE(parsed.plane_count, kMaxBitplanes);
        EXPECT_TRUE(std::isfinite(parsed.scale));
        EXPECT_GE(parsed.scale, 0.0F);
      }
    }
  }
}

// Corrupt chunk bytes must never crash the decoder: it either decodes some
// prefix or stops at the damaged plane, and every reported plane count is
// within bounds. (On the real wire the CSI-2 CRC catches this first; the
// decoder still has to be safe on arbitrary bytes.)
TEST(Bitplane, CorruptChunkBytesDecodeSafely) {
  Rng rng(6);
  const Tensor coded = Tensor::rand_uniform(Shape{10, 10}, rng, -2.0F, 2.0F);
  const QuantizedFrame q = quantize_frame(coded);
  const PlaneStream full = encode_bitplanes(q);
  ASSERT_GT(full.plane_count, 0);
  for (int trial = 0; trial < 200; ++trial) {
    PlaneStream damaged = full;
    const auto plane =
        static_cast<std::size_t>(rng.uniform_int(0, full.plane_count - 1));
    auto& chunk = damaged.planes[plane];
    const auto byte =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(chunk.size()) - 1));
    chunk[byte] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const BitplaneDecode decode = decode_bitplanes(damaged);
    EXPECT_GE(decode.decoded_planes, 0);
    EXPECT_LE(decode.decoded_planes, static_cast<int>(full.plane_count));
    EXPECT_EQ(decode.frame.values.size(), q.values.size());
  }
}

// A chunk shorter than the range coder's minimum stream ends the decode at
// that plane; earlier planes are kept.
TEST(Bitplane, UndersizedChunkStopsDecodeCleanly) {
  Rng rng(8);
  const QuantizedFrame q =
      quantize_frame(Tensor::rand_uniform(Shape{6, 6}, rng, -1.0F, 1.0F));
  const PlaneStream full = encode_bitplanes(q);
  ASSERT_GT(full.plane_count, 1);
  PlaneStream damaged = full;
  damaged.planes[1] = {0x00, 0x01};  // too short to be a range-coder stream
  const BitplaneDecode decode = decode_bitplanes(damaged);
  EXPECT_EQ(decode.decoded_planes, 1);
  EXPECT_EQ(decode.frame.values,
            decode_bitplanes(full, 1).frame.values);
}

TEST(Bitplane, InvalidArgumentsThrow) {
  Rng rng(9);
  const QuantizedFrame q = quantize_frame(Tensor::rand_uniform(Shape{4, 4}, rng));
  EXPECT_THROW(encode_bitplanes(q, -1), std::exception);
  const PlaneStream stream = encode_bitplanes(q);
  EXPECT_THROW(decode_bitplanes(stream, -2), std::exception);
  QuantizedFrame bad = q;
  bad.values.pop_back();
  EXPECT_THROW(encode_bitplanes(bad), std::exception);
}

}  // namespace
}  // namespace snappix

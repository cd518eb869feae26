// Seeded byte-mutation fuzzing of every parser of untrusted wire bytes: the
// RAW32 depacketizer, the codec depacketizer (full depth and capped), the
// codec stream-header parser and the bit-plane decoder.
//
// Each case copies a clean seed frame and applies one to three mutations —
// bit flips, byte overwrites, truncated, extended, dropped, duplicated and
// reordered packets, edited word counts and plane indices — then runs the
// parsers twice: on the raw mutant, which the link checks mostly stop, and on
// the mutant resealed with its header ECCs and payload CRCs recomputed, so
// hostile bytes reach the header parse and the plane decoder. Every run must
// return a valid classification with bounded plane counts and an output of
// the requested geometry, and a warm codec depacketizer must allocate no
// more on a mutant than on the clean frame. The sanitizer builds run this
// binary too, which turns any out-of-bounds read into a failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "codec/bitplane.h"
#include "transport/csi2.h"
#include "util/rng.h"

namespace snappix {
namespace {

using transport::CodedFramePacketizer;
using transport::Depacketizer;
using transport::kCrcBytes;
using transport::kHeaderBytes;
using transport::Packet;
using transport::RxOutcome;
using transport::WireFrame;

// Cases per seed frame; each runs raw and resealed.
constexpr int kCases = 2500;

// A clean frame on the wire and the geometry the receiver expects.
struct Seed {
  std::string name;
  WireFrame wire;
  std::int64_t height = 0;
  std::int64_t width = 0;
  int cap = 0;  // transmit-side plane cap of a codec seed (0 = full depth)
};

std::vector<Seed> codec_seeds() {
  Rng rng(101);
  const CodedFramePacketizer packetizer(0);
  std::vector<Seed> seeds;
  const Tensor wide = Tensor::rand_uniform(Shape{16, 16}, rng, -2.0F, 2.0F);
  seeds.push_back({"codec 16x16", packetizer.packetize_codec(wide, 7), 16, 16, 0});
  seeds.push_back({"codec 16x16 capped", packetizer.packetize_codec(wide, 8, 4), 16, 16, 4});
  const Tensor odd = Tensor::rand_uniform(Shape{12, 12}, rng, -0.5F, 1.0F);
  seeds.push_back({"codec 12x12", packetizer.packetize_codec(odd, 9), 12, 12, 0});
  // An all-zero frame has no planes at all: header only.
  seeds.push_back({"codec 8x8 zeros", packetizer.packetize_codec(Tensor::zeros(Shape{8, 8}), 10),
                   8, 8, 0});
  return seeds;
}

std::vector<Seed> raw_seeds() {
  Rng rng(103);
  const CodedFramePacketizer packetizer(1);
  std::vector<Seed> seeds;
  seeds.push_back({"raw 8x8", packetizer.packetize(Tensor::rand_uniform(Shape{8, 8}, rng), 1),
                   8, 8, 0});
  seeds.push_back({"raw 12x6",
                   packetizer.packetize(Tensor::rand_uniform(Shape{12, 6}, rng, -1.0F, 1.0F), 2),
                   12, 6, 0});
  return seeds;
}

// --- mutations ---------------------------------------------------------------

std::size_t pick(Rng& rng, std::size_t size) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
}

// A byte value, biased toward the ones that sit on parser boundaries.
std::uint8_t hostile_byte(Rng& rng) {
  static constexpr std::uint8_t kEdges[] = {0x00, 0x01, 0x0E, 0x0F, 0x10,
                                            0x7F, 0x80, 0xFE, 0xFF};
  return rng.bernoulli(0.5F) ? kEdges[pick(rng, sizeof kEdges)]
                             : static_cast<std::uint8_t>(rng.uniform_int(0, 255));
}

void mutate(WireFrame& wire, Rng& rng) {
  std::vector<Packet>& packets = wire.packets;
  if (packets.empty()) {
    packets.emplace_back(static_cast<std::size_t>(rng.uniform_int(0, 8)), hostile_byte(rng));
    return;
  }
  Packet& p = packets[pick(rng, packets.size())];
  switch (rng.uniform_int(0, 8)) {
    case 0:  // bit flip
      if (!p.empty()) {
        p[pick(rng, p.size())] ^= static_cast<std::uint8_t>(1U << rng.uniform_int(0, 7));
      }
      break;
    case 1:  // byte overwrite
      if (!p.empty()) {
        p[pick(rng, p.size())] = hostile_byte(rng);
      }
      break;
    case 2:  // truncated packet
      p.resize(p.empty() ? 0 : pick(rng, p.size()));
      break;
    case 3:  // extended packet
      for (std::int64_t i = rng.uniform_int(1, 16); i > 0; --i) {
        p.push_back(hostile_byte(rng));
      }
      break;
    case 4:  // dropped packet
      packets.erase(packets.begin() + static_cast<std::ptrdiff_t>(pick(rng, packets.size())));
      break;
    case 5: {  // duplicated packet
      const Packet copy = p;
      packets.insert(packets.begin() + static_cast<std::ptrdiff_t>(pick(rng, packets.size() + 1)),
                     copy);
      break;
    }
    case 6:  // reordered packets
      std::swap(p, packets[pick(rng, packets.size())]);
      break;
    case 7:  // edited word count: off by a little, or anything
      if (p.size() >= 3) {
        const int wc = p[1] | (p[2] << 8);
        const int edited = rng.bernoulli(0.5F) ? wc + static_cast<int>(rng.uniform_int(-4, 4))
                                               : static_cast<int>(rng.uniform_int(0, 0xFFFF));
        p[1] = static_cast<std::uint8_t>(edited & 0xFF);
        p[2] = static_cast<std::uint8_t>((edited >> 8) & 0xFF);
      }
      break;
    default:  // edited plane index (a codec plane packet's first payload byte)
      if (p.size() > static_cast<std::size_t>(kHeaderBytes)) {
        p[kHeaderBytes] = rng.bernoulli(0.5F) ? static_cast<std::uint8_t>(rng.uniform_int(
                                                    0, codec::kMaxBitplanes + 1))
                                              : hostile_byte(rng);
      }
      break;
  }
}

// Recomputes every packet's header ECC and, where the packet still holds the
// payload its word count promises, the payload CRC.
void reseal(WireFrame& wire) {
  for (Packet& p : wire.packets) {
    if (p.size() < static_cast<std::size_t>(kHeaderBytes)) {
      continue;
    }
    const std::uint32_t header24 = static_cast<std::uint32_t>(p[0]) |
                                   (static_cast<std::uint32_t>(p[1]) << 8) |
                                   (static_cast<std::uint32_t>(p[2]) << 16);
    p[3] = transport::ecc_encode(header24);
    const std::size_t wc = static_cast<std::size_t>(p[1]) | (static_cast<std::size_t>(p[2]) << 8);
    if ((p[0] & 0x3F) < 0x10 || p.size() < kHeaderBytes + wc + kCrcBytes) {
      continue;
    }
    const std::uint16_t crc = transport::crc16_ccitt(p.data() + kHeaderBytes, wc);
    p[kHeaderBytes + wc] = static_cast<std::uint8_t>(crc & 0xFF);
    p[kHeaderBytes + wc + 1] = static_cast<std::uint8_t>(crc >> 8);
  }
}

// Runs `check` on kCases mutants of `seed`, raw and resealed, and fails with
// the first violation it returns (empty = the mutant was handled safely).
void fuzz(const Seed& seed, std::uint64_t rng_seed,
          const std::function<std::string(const WireFrame&)>& check) {
  Rng rng(rng_seed);
  int failures = 0;
  std::string first;
  for (int c = 0; c < kCases; ++c) {
    WireFrame mutant = seed.wire;
    for (std::int64_t m = rng.uniform_int(1, 3); m > 0; --m) {
      mutate(mutant, rng);
    }
    for (const bool sealed : {false, true}) {
      if (sealed) {
        reseal(mutant);
      }
      const std::string violation = check(mutant);
      if (!violation.empty() && failures++ == 0) {
        first = seed.name + " case " + std::to_string(c) + (sealed ? " (resealed)" : " (raw)") +
                ": " + violation;
      }
    }
  }
  EXPECT_EQ(failures, 0) << first;
}

bool valid(RxOutcome outcome) {
  return outcome == RxOutcome::kOk || outcome == RxOutcome::kCrcError ||
         outcome == RxOutcome::kTruncated || outcome == RxOutcome::kMissingLines;
}

bool all_finite(const Tensor& t) {
  return std::all_of(t.data().begin(), t.data().end(), [](float v) { return std::isfinite(v); });
}

// --- the parsers -------------------------------------------------------------

TEST(WireFuzz, Raw32DepacketizerSurvivesMutations) {
  const Depacketizer depacketizer;
  std::uint64_t rng_seed = 1;
  for (const Seed& seed : raw_seeds()) {
    ASSERT_EQ(depacketizer.depacketize(seed.wire, seed.height, seed.width).outcome,
              RxOutcome::kOk);
    fuzz(seed, rng_seed++, [&](const WireFrame& wire) -> std::string {
      const transport::RxFrame rx = depacketizer.depacketize(wire, seed.height, seed.width);
      if (!valid(rx.outcome)) {
        return "invalid outcome";
      }
      if (rx.coded.shape() != Shape{seed.height, seed.width}) {
        return "output shape " + rx.coded.shape().to_string();
      }
      if (rx.lines_received > static_cast<std::uint32_t>(seed.height)) {
        return "more lines than rows";
      }
      return {};
    });
  }
}

TEST(WireFuzz, CodecDepacketizerSurvivesMutations) {
  std::uint64_t rng_seed = 11;
  int outcomes[4] = {};  // by RxOutcome: the mutants reach every classification
  for (const Seed& seed : codec_seeds()) {
    Depacketizer depacketizer;
    ASSERT_EQ(depacketizer.depacketize_codec(seed.wire, seed.height, seed.width, seed.cap).outcome,
              RxOutcome::kOk);
    // Warm: the decode buffers are sized for this geometry.
    const std::uint64_t clean_allocations = fixtures::allocations_of(
        [&] { depacketizer.depacketize_codec(seed.wire, seed.height, seed.width, seed.cap); });
    // The capped seed runs at its own cap; the full-depth seeds at full depth
    // and at a receiver-side cap of three planes.
    const std::vector<int> caps = seed.cap != 0 ? std::vector<int>{seed.cap}
                                                : std::vector<int>{0, 3};
    fuzz(seed, rng_seed++, [&](const WireFrame& wire) -> std::string {
      for (const int cap : caps) {
        transport::RxFrame rx;
        const std::uint64_t allocations = fixtures::allocations_of(
            [&] { rx = depacketizer.depacketize_codec(wire, seed.height, seed.width, cap); });
        std::ostringstream at;
        at << "cap " << cap << ": ";
        if (!valid(rx.outcome)) {
          return at.str() + "invalid outcome";
        }
        if (rx.decoded_planes > rx.total_planes || rx.total_planes > codec::kMaxBitplanes) {
          at << "decoded " << int{rx.decoded_planes} << " of " << int{rx.total_planes} << " planes";
          return at.str();
        }
        const int needed = cap == 0 ? rx.total_planes : std::min<int>(cap, rx.total_planes);
        if (rx.outcome == RxOutcome::kOk && rx.decoded_planes != needed) {
          at << "kOk with " << int{rx.decoded_planes} << " of " << needed << " needed planes";
          return at.str();
        }
        if (rx.coded.shape() != Shape{seed.height, seed.width} || !all_finite(rx.coded)) {
          return at.str() + "output shape " + rx.coded.shape().to_string() + " or non-finite";
        }
        if (allocations > clean_allocations) {
          at << allocations << " allocations against " << clean_allocations << " when clean";
          return at.str();
        }
        ++outcomes[static_cast<int>(rx.outcome)];
      }
      return {};
    });
  }
  for (const int count : outcomes) {
    EXPECT_GT(count, 0);
  }
}

TEST(WireFuzz, StreamHeaderParserSurvivesMutations) {
  std::uint64_t rng_seed = 21;
  int accepted_edits = 0;  // headers that parse with a field the seed's lacks
  for (const Seed& seed : codec_seeds()) {
    codec::PlaneStream clean;
    ASSERT_TRUE(codec::parse_stream_header(seed.wire.packets[1].data() + kHeaderBytes,
                                           codec::kStreamHeaderBytes, clean));
    fuzz(seed, rng_seed++, [&](const WireFrame& wire) -> std::string {
      // Every packet's bytes past its packet header, as a header candidate.
      for (const Packet& p : wire.packets) {
        if (p.size() < static_cast<std::size_t>(kHeaderBytes)) {
          continue;
        }
        codec::PlaneStream out;
        if (!codec::parse_stream_header(p.data() + kHeaderBytes, p.size() - kHeaderBytes, out)) {
          continue;
        }
        if (out.plane_count > codec::kMaxBitplanes || out.height == 0 || out.width == 0 ||
            !std::isfinite(out.scale) || out.scale < 0.0F ||
            (out.plane_count > 0) != (out.scale > 0.0F)) {
          return "parse accepted an invalid header";
        }
        accepted_edits += out.plane_count != clean.plane_count || out.height != clean.height ||
                          out.width != clean.width || out.scale != clean.scale;
      }
      return {};
    });
  }
  EXPECT_GT(accepted_edits, 0);
}

// The decoder on mutated chunks: plane packets' payloads in arrival order,
// under the mutant's header where one parses at the expected geometry (the
// check depacketize_codec makes before it decodes) and the seed's otherwise.
TEST(WireFuzz, PlaneDecoderSurvivesMutations) {
  std::uint64_t rng_seed = 31;
  int partial = 0;  // decodes that a damaged chunk stopped short
  for (const Seed& seed : codec_seeds()) {
    codec::PlaneStream clean;
    ASSERT_TRUE(codec::parse_stream_header(seed.wire.packets[1].data() + kHeaderBytes,
                                           codec::kStreamHeaderBytes, clean));
    fuzz(seed, rng_seed++, [&](const WireFrame& wire) -> std::string {
      codec::PlaneStream stream = clean;
      for (const Packet& p : wire.packets) {
        codec::PlaneStream parsed;
        if (p.size() >= static_cast<std::size_t>(kHeaderBytes) &&
            codec::parse_stream_header(p.data() + kHeaderBytes, p.size() - kHeaderBytes,
                                       parsed) &&
            parsed.height == clean.height && parsed.width == clean.width) {
          stream = parsed;
          break;
        }
      }
      for (const Packet& p : wire.packets) {
        if (p.size() > static_cast<std::size_t>(kHeaderBytes) + 1 &&
            (p[0] & 0x3F) == transport::kDtCodecPlane) {
          stream.planes.emplace_back(p.begin() + kHeaderBytes + 1, p.end());
        }
      }
      for (const int cap : {0, 3}) {
        const codec::BitplaneDecode decode = codec::decode_bitplanes(stream, cap);
        const std::size_t bound = std::min<std::size_t>(stream.planes.size(), stream.plane_count);
        if (decode.decoded_planes < 0 || static_cast<std::size_t>(decode.decoded_planes) > bound) {
          return "decoded " + std::to_string(decode.decoded_planes) + " planes of " +
                 std::to_string(bound);
        }
        if (decode.frame.values.size() != static_cast<std::size_t>(seed.height * seed.width)) {
          return "decoded " + std::to_string(decode.frame.values.size()) + " values";
        }
        const std::size_t want = cap == 0 ? bound : std::min<std::size_t>(bound, cap);
        partial += static_cast<std::size_t>(decode.decoded_planes) < want;
      }
      return {};
    });
  }
  EXPECT_GT(partial, 0);
}

}  // namespace
}  // namespace snappix

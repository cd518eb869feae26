// Transport test suite: golden CSI-2 packet layouts (byte-exact header / CRC
// vectors), the table CRC and ECC against their bit-serial and Hamming-loop
// references, header-ECC correction behavior, packetize -> depacketize
// round-trip bit-identity across frame sizes and lane counts, the
// deterministic fault-injection matrix (each fault class -> its expected
// Depacketizer outcome), the FramedLink's byte/lane/outcome accounting, and
// — through a counting global operator new — the heap allocations of a
// camera encode and of a steady transfer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "alloc_counter.h"
#include "codec/bitplane.h"
#include "runtime/camera.h"
#include "runtime/frame.h"
#include "sensor/mipi.h"
#include "transport/csi2.h"
#include "transport/fault.h"
#include "transport/link.h"
#include "util/rng.h"

namespace snappix {
namespace {

using transport::CodedFramePacketizer;
using transport::Depacketizer;
using transport::EccDecode;
using transport::FaultConfig;
using transport::FaultInjector;
using transport::FramedLink;
using transport::LinkConfig;
using transport::Packet;
using transport::RxFrame;
using transport::RxOutcome;
using transport::TransferResult;
using transport::WireFrame;

// --- integrity primitives ----------------------------------------------------

// Bit-serial CRC-16/CCITT-FALSE reference: one input BIT per step, entirely
// in unsigned arithmetic — the definition the table-driven crc16_ccitt must
// reproduce.
std::uint16_t crc16_bit_serial(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFU;
  for (std::size_t i = 0; i < size; ++i) {
    for (int bit = 7; bit >= 0; --bit) {
      const std::uint32_t in = (static_cast<std::uint32_t>(data[i]) >> bit) & 1U;
      const std::uint32_t top = (crc >> 15) & 1U;
      crc = (crc << 1) & 0xFFFFU;
      if (top != in) {
        crc ^= 0x1021U;
      }
    }
  }
  return static_cast<std::uint16_t>(crc);
}

// The SEC-DED Hamming construction the ECC tables are derived from, one bit
// at a time: the 24 data bits fill the non-power-of-two codeword positions
// 1..29 in order, parity bit m is the XOR of every position with bit m set,
// and the overall bit is the XOR of the whole codeword.
std::uint8_t ecc_hamming_reference(std::uint32_t header24) {
  bool codeword[30] = {};
  int data_bit = 0;
  for (int pos = 1; pos <= 29; ++pos) {
    if ((pos & (pos - 1)) != 0) {
      codeword[pos] = ((header24 >> data_bit) & 1U) != 0;
      ++data_bit;
    }
  }
  std::uint8_t ecc = 0;
  for (int m = 0; m < 5; ++m) {
    bool parity = false;
    for (int pos = 1; pos <= 29; ++pos) {
      if (((pos >> m) & 1) != 0) {
        parity = parity != codeword[pos];
      }
    }
    codeword[1 << m] = parity;
    if (parity) {
      ecc = static_cast<std::uint8_t>(ecc | (1U << m));
    }
  }
  bool overall = false;
  for (int pos = 1; pos <= 29; ++pos) {
    overall = overall != codeword[pos];
  }
  if (overall) {
    ecc = static_cast<std::uint8_t>(ecc | 0x20U);
  }
  return ecc;
}

TEST(Crc16, MatchesSpecCheckValue) {
  // CRC-16/CCITT-FALSE over "123456789" is 0x29B1 in every published table.
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(transport::crc16_ccitt(check, sizeof(check)), 0x29B1);
  EXPECT_EQ(transport::crc16_ccitt(nullptr, 0), 0xFFFF);  // init value
  // Any single-bit change moves the CRC.
  std::uint8_t flipped[sizeof(check)];
  std::memcpy(flipped, check, sizeof(check));
  flipped[4] ^= 0x10;
  EXPECT_NE(transport::crc16_ccitt(flipped, sizeof(check)), 0x29B1);
}

TEST(Crc16, MatchesBitSerialReferenceOnEdgePayloads) {
  // All-0xFF keeps the accumulator's top bit set on nearly every step: any
  // promotion/shift slip (uint16 << 8 silently promotes to signed int)
  // diverges from the reference on dense-MSB payloads like this.
  for (const std::size_t len : {1U, 2U, 15U, 64U, 257U}) {
    const std::vector<std::uint8_t> ones(len, 0xFF);
    EXPECT_EQ(transport::crc16_ccitt(ones.data(), len), crc16_bit_serial(ones.data(), len))
        << "all-0xFF length " << len;
  }
  // And a deterministic mixed payload for good measure.
  std::vector<std::uint8_t> mixed(129);
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    mixed[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  EXPECT_EQ(transport::crc16_ccitt(mixed.data(), mixed.size()),
            crc16_bit_serial(mixed.data(), mixed.size()));
}

TEST(Crc16, TableMatchesBitSerialReferenceAtEveryLength) {
  Rng rng(1024);
  std::vector<std::uint8_t> buffer(1024);
  for (std::uint8_t& b : buffer) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  for (std::size_t len = 0; len <= buffer.size(); ++len) {
    ASSERT_EQ(transport::crc16_ccitt(buffer.data(), len), crc16_bit_serial(buffer.data(), len))
        << "length " << len;
  }
}

TEST(HeaderEcc, TableMatchesHammingConstruction) {
  // Every header with a single nonzero byte: each table entry on its own.
  for (int byte = 0; byte < 3; ++byte) {
    for (std::uint32_t v = 0; v < 256; ++v) {
      const std::uint32_t header = v << (8 * byte);
      ASSERT_EQ(transport::ecc_encode(header), ecc_hamming_reference(header))
          << "header " << header;
    }
  }
  // A stride over all 2^24 headers: the tables combine by XOR.
  for (std::uint32_t header = 0; header < (1U << 24); header += 257) {
    ASSERT_EQ(transport::ecc_encode(header), ecc_hamming_reference(header))
        << "header " << header;
  }
}

TEST(HeaderEcc, CorrectsEverySingleBitFlipOverAHeaderStride) {
  std::uint64_t wrong = 0;
  std::uint32_t first_wrong = 0;
  for (std::uint32_t header = 0; header < (1U << 24); header += 257) {
    const std::uint8_t ecc = transport::ecc_encode(header);
    const EccDecode clean = transport::ecc_decode(header, ecc);
    bool ok = clean.status == EccDecode::Status::kClean && clean.header24 == header;
    for (int bit = 0; bit < 30; ++bit) {  // 24 data bits, then the 6 ECC bits
      const EccDecode dec =
          bit < 24 ? transport::ecc_decode(header ^ (1U << bit), ecc)
                   : transport::ecc_decode(header,
                                           static_cast<std::uint8_t>(ecc ^ (1U << (bit - 24))));
      ok = ok && dec.status == EccDecode::Status::kCorrected && dec.header24 == header;
    }
    if (!ok && wrong++ == 0) {
      first_wrong = header;
    }
  }
  EXPECT_EQ(wrong, 0U) << "first wrong header " << first_wrong;
}

TEST(HeaderEcc, CleanHeaderDecodesClean) {
  for (const std::uint32_t header : {0x000000U, 0xFFFFFFU, 0x300830U, 0x123456U}) {
    const std::uint8_t ecc = transport::ecc_encode(header);
    const EccDecode dec = transport::ecc_decode(header, ecc);
    EXPECT_EQ(dec.status, EccDecode::Status::kClean);
    EXPECT_EQ(dec.header24, header);
  }
}

TEST(HeaderEcc, CorrectsEverySingleBitFlip) {
  const std::uint32_t header = 0x30A55AU;
  const std::uint8_t ecc = transport::ecc_encode(header);
  for (int bit = 0; bit < 24; ++bit) {  // data bits
    const EccDecode dec = transport::ecc_decode(header ^ (1U << bit), ecc);
    ASSERT_EQ(dec.status, EccDecode::Status::kCorrected) << "data bit " << bit;
    ASSERT_EQ(dec.header24, header) << "data bit " << bit;
  }
  for (int bit = 0; bit < 6; ++bit) {  // ECC bits themselves
    const EccDecode dec =
        transport::ecc_decode(header, static_cast<std::uint8_t>(ecc ^ (1U << bit)));
    ASSERT_EQ(dec.status, EccDecode::Status::kCorrected) << "ecc bit " << bit;
    ASSERT_EQ(dec.header24, header) << "ecc bit " << bit;
  }
}

TEST(HeaderEcc, DetectsDoubleBitFlips) {
  // Every double flip over the WHOLE 30-bit received word (24 data bits +
  // 6 ECC bits, including the overall-parity bit) must be detected as
  // uncorrectable or — at minimum — never silently hand back wrong data.
  const std::uint32_t header = 0x30A55AU;
  const std::uint8_t ecc = transport::ecc_encode(header);
  int uncorrectable = 0;
  int miscorrected = 0;
  const auto decode_with_flips = [&](int a, int b) {
    std::uint32_t h = header;
    std::uint8_t e = ecc;
    for (const int bit : {a, b}) {
      if (bit < 24) {
        h ^= 1U << bit;
      } else {
        e = static_cast<std::uint8_t>(e ^ (1U << (bit - 24)));
      }
    }
    return transport::ecc_decode(h, e);
  };
  for (int a = 0; a < 30; ++a) {
    for (int b = a + 1; b < 30; ++b) {
      const EccDecode dec = decode_with_flips(a, b);
      if (dec.status == EccDecode::Status::kUncorrectable) {
        ++uncorrectable;
      } else if (dec.header24 != header) {
        ++miscorrected;  // silently wrong data would defeat the whole point
      }
    }
  }
  EXPECT_EQ(uncorrectable, 30 * 29 / 2);  // SEC-DED: every double flip detected
  EXPECT_EQ(miscorrected, 0);
}

// --- golden packet layout ----------------------------------------------------

TEST(PacketLayout, GoldenShortPacketBytes) {
  // Frame Start, virtual channel 1, frame number 5:
  //   DI = (1 << 6) | 0x00, value little-endian, 6-bit SEC-DED ECC.
  const Packet fs = CodedFramePacketizer::short_packet(0x40, 5);
  EXPECT_EQ(fs, (Packet{0x40, 0x05, 0x00, 0x29}));
  const Packet fe = CodedFramePacketizer::short_packet(0x41, 5);
  EXPECT_EQ(fe, (Packet{0x41, 0x05, 0x00, 0x0A}));
}

TEST(PacketLayout, GoldenLongPacketBytes) {
  // RAW32 row of two floats {1.0f, -2.0f} on virtual channel 0:
  //   header [0x30, wc=8 LE, ECC=0x32], IEEE-754 payload, CRC-16 0x5545 LE.
  const float row[2] = {1.0F, -2.0F};
  const Packet lp = CodedFramePacketizer::long_packet(
      transport::kDtRaw32, reinterpret_cast<const std::uint8_t*>(row), 8);
  EXPECT_EQ(lp, (Packet{0x30, 0x08, 0x00, 0x32,              // header + ECC
                        0x00, 0x00, 0x80, 0x3F,              // 1.0f
                        0x00, 0x00, 0x00, 0xC0,              // -2.0f
                        0x45, 0x55}));                       // CRC-16/CCITT-FALSE
}

TEST(PacketLayout, FrameStructureAndByteBudget) {
  Rng rng(3);
  const Tensor coded = Tensor::rand_uniform(Shape{4, 6}, rng);
  CodedFramePacketizer packetizer(/*virtual_channel=*/2);
  const WireFrame wire = packetizer.packetize(coded, 77);
  ASSERT_EQ(wire.packets.size(), 6U);  // FS + 4 rows + FE
  EXPECT_EQ(wire.packets.front().size(), 4U);
  EXPECT_EQ(wire.packets.back().size(), 4U);
  for (std::size_t r = 1; r + 1 < wire.packets.size(); ++r) {
    EXPECT_EQ(wire.packets[r].size(), 4U + 6 * 4 + 2U);
    EXPECT_EQ(wire.packets[r][0], 0x80 | 0x30);  // VC 2 in DI bits 7..6
  }
  EXPECT_EQ(wire.total_bytes(), 2 * 4U + 4 * (4 + 24 + 2U));
  EXPECT_EQ(wire.payload_bytes(), 4 * 24U);
}

TEST(PacketLayout, RejectsBadGeometry) {
  EXPECT_THROW(CodedFramePacketizer(4), std::runtime_error);  // VC out of range
  CodedFramePacketizer packetizer;
  Rng rng(5);
  EXPECT_THROW(packetizer.packetize(Tensor::rand_uniform(Shape{2, 3, 4}, rng), 0),
               std::runtime_error);  // not (H, W)
}

// --- round trip --------------------------------------------------------------

struct Geometry {
  std::int64_t height;
  std::int64_t width;
  int lanes;
};

class RoundTripTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(RoundTripTest, PacketizeDepacketizeIsBitIdentical) {
  const Geometry g = GetParam();
  Rng rng(static_cast<std::uint64_t>(g.height * 100 + g.width * 10 + g.lanes));
  const Tensor coded = Tensor::rand_uniform(Shape{g.height, g.width}, rng, -3.0F, 3.0F);

  CodedFramePacketizer packetizer(/*virtual_channel=*/1);
  Depacketizer depacketizer;
  const WireFrame wire = packetizer.packetize(coded, 123);
  const RxFrame rx = depacketizer.depacketize(wire, g.height, g.width);
  ASSERT_EQ(rx.outcome, RxOutcome::kOk);
  EXPECT_EQ(rx.frame_number, 123);
  EXPECT_EQ(rx.lines_received, static_cast<std::uint32_t>(g.height));
  EXPECT_EQ(rx.crc_errors, 0U);
  EXPECT_EQ(rx.corrected_headers, 0U);
  ASSERT_EQ(rx.coded.shape(), coded.shape());
  for (std::size_t i = 0; i < coded.data().size(); ++i) {
    ASSERT_EQ(rx.coded.data()[i], coded.data()[i]) << "pixel " << i;
  }

  // Through the clean FramedLink the lane count changes time, never bits.
  LinkConfig link_cfg;
  link_cfg.mipi.lanes = g.lanes;
  link_cfg.virtual_channel = 1;
  FramedLink link(link_cfg);
  const TransferResult result = link.transfer(coded, 123);
  ASSERT_EQ(result.outcome, RxOutcome::kOk);
  EXPECT_EQ(result.wire_bytes, wire.total_bytes());
  for (std::size_t i = 0; i < coded.data().size(); ++i) {
    ASSERT_EQ(result.coded.data()[i], coded.data()[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, RoundTripTest,
                         ::testing::Values(Geometry{1, 1, 1}, Geometry{16, 16, 1},
                                           Geometry{16, 16, 2}, Geometry{16, 16, 4},
                                           Geometry{7, 5, 2}, Geometry{32, 8, 4},
                                           Geometry{3, 17, 4}));

// --- fault matrix: each fault class -> its expected outcome ------------------

class FaultMatrixTest : public ::testing::Test {
 protected:
  FaultMatrixTest() {
    Rng rng(11);
    coded_ = Tensor::rand_uniform(Shape{8, 8}, rng);
    wire_ = CodedFramePacketizer(0).packetize(coded_, 9);
  }
  RxFrame receive() const { return Depacketizer().depacketize(wire_, 8, 8); }

  Tensor coded_;
  WireFrame wire_;  // FS + 8 rows + FE; packets[1..8] are the rows
};

TEST_F(FaultMatrixTest, PayloadBitFlipIsCrcError) {
  wire_.packets[3][transport::kHeaderBytes + 5] ^= 0x04;
  const RxFrame rx = receive();
  EXPECT_EQ(rx.outcome, RxOutcome::kCrcError);
  EXPECT_EQ(rx.crc_errors, 1U);
  EXPECT_EQ(rx.lines_received, 8U);  // geometry complete, payload damaged
}

TEST_F(FaultMatrixTest, CrcFooterBitFlipIsCrcError) {
  wire_.packets[5].back() ^= 0x80;
  EXPECT_EQ(receive().outcome, RxOutcome::kCrcError);
}

TEST_F(FaultMatrixTest, SingleHeaderBitFlipIsCorrectedToOk) {
  wire_.packets[4][1] ^= 0x01;  // word-count byte takes a hit
  const RxFrame rx = receive();
  EXPECT_EQ(rx.outcome, RxOutcome::kOk);  // ECC repaired it: frame intact
  EXPECT_EQ(rx.corrected_headers, 1U);
  for (std::size_t i = 0; i < coded_.data().size(); ++i) {
    ASSERT_EQ(rx.coded.data()[i], coded_.data()[i]);
  }
}

TEST_F(FaultMatrixTest, ReservedEccBitFlipLosesTheLine) {
  // The ECC byte's two reserved (always-zero) bits are outside the Hamming
  // code's reach: a flip there cannot be repaired, only rejected.
  wire_.packets[4][3] ^= 0x40;
  const RxFrame rx = receive();
  EXPECT_EQ(rx.outcome, RxOutcome::kMissingLines);
  EXPECT_EQ(rx.lost_packets, 1U);
  EXPECT_EQ(rx.corrected_headers, 0U);
}

TEST_F(FaultMatrixTest, DoubleHeaderBitFlipLosesTheLine) {
  wire_.packets[4][0] ^= 0x01;
  wire_.packets[4][2] ^= 0x40;
  const RxFrame rx = receive();
  EXPECT_EQ(rx.outcome, RxOutcome::kMissingLines);
  EXPECT_EQ(rx.lost_packets, 1U);
  EXPECT_EQ(rx.lines_received, 7U);
}

TEST_F(FaultMatrixTest, DroppedRowPacketIsMissingLines) {
  wire_.packets.erase(wire_.packets.begin() + 2);
  const RxFrame rx = receive();
  EXPECT_EQ(rx.outcome, RxOutcome::kMissingLines);
  EXPECT_EQ(rx.lines_received, 7U);
}

TEST_F(FaultMatrixTest, ForeignDataTypeRowIsMissingLines) {
  // A long packet of another data type is no row, even with a row's word
  // count: its payload must not be copied in as pixels.
  const Packet row = wire_.packets[4];
  wire_.packets[4] = CodedFramePacketizer::long_packet(
      transport::kDtCodecPlane, row.data() + transport::kHeaderBytes, 32);
  const RxFrame rx = receive();
  EXPECT_EQ(rx.outcome, RxOutcome::kMissingLines);
  EXPECT_EQ(rx.lost_packets, 1U);
  EXPECT_EQ(rx.lines_received, 7U);
}

TEST_F(FaultMatrixTest, DroppedFrameStartIsTruncated) {
  wire_.packets.erase(wire_.packets.begin());
  EXPECT_EQ(receive().outcome, RxOutcome::kTruncated);
}

TEST_F(FaultMatrixTest, DroppedFrameEndIsTruncated) {
  wire_.packets.pop_back();
  EXPECT_EQ(receive().outcome, RxOutcome::kTruncated);
}

TEST_F(FaultMatrixTest, LaneStallMidPacketIsTruncated) {
  wire_.packets[6].resize(transport::kHeaderBytes + 10);  // tail cut mid-payload
  EXPECT_EQ(receive().outcome, RxOutcome::kTruncated);
}

TEST_F(FaultMatrixTest, StreamDyingMidHeaderIsTruncated) {
  wire_.packets[6].resize(2);
  EXPECT_EQ(receive().outcome, RxOutcome::kTruncated);
}

// --- seeded injector ---------------------------------------------------------

TEST(FaultInjector, ValidatesRates) {
  FaultConfig bad;
  bad.packet_drop_rate = 1.5;
  EXPECT_THROW(FaultInjector{bad}, std::invalid_argument);
  bad.packet_drop_rate = -0.1;
  EXPECT_THROW(FaultInjector{bad}, std::invalid_argument);
}

TEST(FaultInjector, ZeroRatesAreACountedNoOp) {
  Rng rng(13);
  const Tensor coded = Tensor::rand_uniform(Shape{4, 4}, rng);
  WireFrame wire = CodedFramePacketizer(0).packetize(coded, 1);
  const WireFrame original = wire;
  FaultInjector injector{FaultConfig{}};
  EXPECT_FALSE(injector.apply(wire));
  EXPECT_EQ(injector.stats().frames, 1U);
  EXPECT_EQ(injector.stats().frames_faulted, 0U);
  ASSERT_EQ(wire.packets.size(), original.packets.size());
  for (std::size_t i = 0; i < wire.packets.size(); ++i) {
    EXPECT_EQ(wire.packets[i], original.packets[i]);
  }
}

// The same seed must reproduce the exact same corruption — outcomes, counters
// and bytes — across independent injector instances.
TEST(FaultInjector, SeededFaultsAreDeterministicAcrossRuns) {
  FaultConfig cfg;
  cfg.bit_flip_per_byte = 0.002;
  cfg.packet_drop_rate = 0.05;
  cfg.lane_stall_rate = 0.02;
  cfg.seed = 99;

  const auto run = [&cfg] {
    Rng rng(17);
    FaultInjector injector(cfg);
    Depacketizer depacketizer;
    std::vector<RxOutcome> outcomes;
    for (int f = 0; f < 40; ++f) {
      const Tensor coded = Tensor::rand_uniform(Shape{8, 8}, rng);
      WireFrame wire = CodedFramePacketizer(0).packetize(
          coded, static_cast<std::uint16_t>(f));
      injector.apply(wire);
      outcomes.push_back(depacketizer.depacketize(wire, 8, 8).outcome);
    }
    return std::make_pair(outcomes, injector.stats());
  };

  const auto [outcomes_a, stats_a] = run();
  const auto [outcomes_b, stats_b] = run();
  EXPECT_EQ(outcomes_a, outcomes_b);
  EXPECT_EQ(stats_a.bits_flipped, stats_b.bits_flipped);
  EXPECT_EQ(stats_a.packets_dropped, stats_b.packets_dropped);
  EXPECT_EQ(stats_a.lane_stalls, stats_b.lane_stalls);
  EXPECT_EQ(stats_a.frames_faulted, stats_b.frames_faulted);
  EXPECT_GT(stats_a.frames_faulted, 0U);  // the rates actually did something
  int corrupted = 0;
  for (const RxOutcome outcome : outcomes_a) {
    corrupted += outcome != RxOutcome::kOk ? 1 : 0;
  }
  EXPECT_GT(corrupted, 0);
}

// Under drop-only faults, a frame is corrupt IFF the injector touched it —
// the exactness the serving-level drop counters are pinned to.
TEST(FaultInjector, DropOnlyFaultsCorruptExactlyTheFaultedFrames) {
  FaultConfig cfg;
  cfg.packet_drop_rate = 0.08;
  cfg.seed = 7;
  Rng rng(19);
  FaultInjector injector(cfg);
  Depacketizer depacketizer;
  std::uint64_t corrupt_frames = 0;
  for (int f = 0; f < 60; ++f) {
    const Tensor coded = Tensor::rand_uniform(Shape{6, 6}, rng);
    WireFrame wire =
        CodedFramePacketizer(0).packetize(coded, static_cast<std::uint16_t>(f));
    const bool faulted = injector.apply(wire);
    const RxOutcome outcome = depacketizer.depacketize(wire, 6, 6).outcome;
    ASSERT_EQ(faulted, outcome != RxOutcome::kOk) << "frame " << f;
    corrupt_frames += outcome != RxOutcome::kOk ? 1 : 0;
  }
  EXPECT_EQ(corrupt_frames, injector.stats().frames_faulted);
  EXPECT_GT(corrupt_frames, 0U);
}

// --- FramedLink accounting ---------------------------------------------------

TEST(FramedLinkTest, CleanTransferAccountsBytesAndOutcomes) {
  Rng rng(23);
  const Tensor coded = Tensor::rand_uniform(Shape{16, 16}, rng);
  LinkConfig cfg;
  cfg.mipi.lanes = 2;
  FramedLink link(cfg);
  const TransferResult result = link.transfer(coded, 0);
  ASSERT_EQ(result.outcome, RxOutcome::kOk);
  // FS + FE (4 bytes each) + 16 rows of (4 + 64 + 2).
  const std::uint64_t expected = 2 * 4U + 16 * (4 + 64 + 2U);
  EXPECT_EQ(result.wire_bytes, expected);
  EXPECT_EQ(link.mipi().total_bytes(), expected);
  EXPECT_EQ(link.mipi().payload_bytes(), 16 * 64U);
  EXPECT_EQ(link.mipi().packets(), 18U);
  // Lane accounting: every packet striped over 2 lanes, per-packet ceilings.
  EXPECT_EQ(link.mipi().lane_bytes(0), 2 * 2U + 16 * 35U);
  EXPECT_EQ(link.mipi().lane_bytes(1), 2 * 2U + 16 * 35U);
}

// Retransmit accounting exactness (the bugfix audit): every attempt pays the
// wire exactly once — total and per-lane bytes scale linearly in the attempt
// count, with no double-charging and no forgiveness for repeated payloads.
TEST(FramedLinkTest, RepeatedTransfersChargeTheWireOncePerAttempt) {
  Rng rng(37);
  const Tensor coded = Tensor::rand_uniform(Shape{8, 8}, rng);
  LinkConfig cfg;
  cfg.mipi.lanes = 2;
  FramedLink link(cfg);
  const TransferResult first = link.transfer(coded, 0);
  ASSERT_EQ(first.outcome, RxOutcome::kOk);
  const std::uint64_t per_attempt = first.wire_bytes;
  const std::uint64_t lane0 = link.mipi().lane_bytes(0);
  const std::uint64_t lane1 = link.mipi().lane_bytes(1);
  const int attempts = 5;
  for (int a = 1; a < attempts; ++a) {
    const TransferResult again = link.transfer(coded, 0);  // same frame, retried
    EXPECT_EQ(again.outcome, RxOutcome::kOk);
    EXPECT_EQ(again.wire_bytes, per_attempt);
  }
  EXPECT_EQ(link.mipi().total_bytes(), attempts * per_attempt);
  EXPECT_EQ(link.mipi().lane_bytes(0), attempts * lane0);
  EXPECT_EQ(link.mipi().lane_bytes(1), attempts * lane1);
}

TEST(FramedLinkTest, FaultyTransfersLandInOutcomeCounters) {
  Rng rng(29);
  LinkConfig cfg;
  cfg.faults.packet_drop_rate = 0.10;
  cfg.faults.seed = 31;
  FramedLink link(cfg);
  std::uint64_t ok_frames = 0;
  for (int f = 0; f < 30; ++f) {
    const TransferResult result = link.transfer(Tensor::rand_uniform(Shape{6, 6}, rng),
                                                static_cast<std::uint16_t>(f));
    ok_frames += result.outcome == RxOutcome::kOk ? 1U : 0U;
  }
  EXPECT_LT(ok_frames, 30U);  // the drop rate bit someone
  EXPECT_EQ(30U - ok_frames, link.injector().stats().frames_faulted);
}

// --- entropy-coded wire mode -------------------------------------------------

TEST(CodecWire, FrameStructureCarriesHeaderAndPlanePackets) {
  Rng rng(41);
  const Tensor coded = Tensor::rand_uniform(Shape{8, 8}, rng, -1.0F, 1.0F);
  const codec::PlaneStream stream = codec::encode_bitplanes(codec::quantize_frame(coded));
  CodedFramePacketizer packetizer(/*virtual_channel=*/1);
  const WireFrame wire = packetizer.packetize_codec(coded, 42);
  // FS + stream header + one packet per plane chunk + FE.
  ASSERT_EQ(wire.packets.size(), 3U + stream.planes.size());
  EXPECT_EQ(wire.packets.front()[0] & 0x3F, transport::kDtFrameStart);
  EXPECT_EQ(wire.packets.back()[0] & 0x3F, transport::kDtFrameEnd);
  const Packet& header = wire.packets[1];
  EXPECT_EQ(header[0] & 0x3F, transport::kDtCodecHeader);
  EXPECT_EQ(header.size(), 4U + codec::kStreamHeaderBytes + 2U);
  for (std::size_t p = 0; p < stream.planes.size(); ++p) {
    const Packet& packet = wire.packets[2 + p];
    EXPECT_EQ(packet[0] & 0x3F, transport::kDtCodecPlane);
    EXPECT_EQ(packet[0] >> 6, 1);  // virtual channel rides along
    // Payload: one index byte + the chunk's entropy-coded bytes.
    EXPECT_EQ(packet.size(), 4U + 1U + stream.planes[p].size() + 2U);
    EXPECT_EQ(packet[4], static_cast<std::uint8_t>(p));
  }
}

TEST(CodecWire, CleanRoundTripMatchesInMemoryQuantizeExactly) {
  Rng rng(43);
  const Tensor coded = Tensor::rand_uniform(Shape{16, 16}, rng, -2.0F, 2.0F);
  const Tensor reference = codec::dequantize_frame(codec::quantize_frame(coded));

  CodedFramePacketizer packetizer(0);
  Depacketizer depacketizer;
  const WireFrame wire = packetizer.packetize_codec(coded, 7);
  const RxFrame rx = depacketizer.depacketize_codec(wire, 16, 16);
  ASSERT_EQ(rx.outcome, RxOutcome::kOk);
  EXPECT_EQ(rx.frame_number, 7);
  EXPECT_EQ(rx.decoded_planes, rx.total_planes);
  ASSERT_EQ(rx.coded.shape(), reference.shape());
  EXPECT_EQ(std::memcmp(rx.coded.data().data(), reference.data().data(),
                        reference.data().size() * sizeof(float)),
            0);

  // Same guarantee through the clean FramedLink in codec mode.
  LinkConfig cfg;
  cfg.codec = true;
  FramedLink link(cfg);
  const TransferResult result = link.transfer(coded, 7);
  ASSERT_EQ(result.outcome, RxOutcome::kOk);
  EXPECT_EQ(result.decoded_planes, result.total_planes);
  EXPECT_GT(result.total_planes, 0);
  EXPECT_EQ(std::memcmp(result.coded.data().data(), reference.data().data(),
                        reference.data().size() * sizeof(float)),
            0);
  // The entropy-coded wire beats raw float32 framing on bytes.
  LinkConfig raw_cfg;
  FramedLink raw_link(raw_cfg);
  const TransferResult raw = raw_link.transfer(coded, 7);
  EXPECT_LT(result.wire_bytes, raw.wire_bytes);
}

TEST(CodecWire, TruncatedDepthShrinksWireAndMatchesCappedDecode) {
  Rng rng(47);
  const Tensor coded = Tensor::rand_uniform(Shape{12, 12}, rng, -1.0F, 1.0F);
  const codec::QuantizedFrame q = codec::quantize_frame(coded);
  const codec::PlaneStream full_stream = codec::encode_bitplanes(q);
  ASSERT_GT(full_stream.plane_count, 4);
  const int depth = full_stream.plane_count / 2;

  LinkConfig cfg;
  cfg.codec = true;
  FramedLink full_link(cfg);
  const TransferResult full = full_link.transfer(coded, 1);
  ASSERT_EQ(full.outcome, RxOutcome::kOk);

  cfg.codec_planes = depth;
  FramedLink capped_link(cfg);
  const TransferResult capped = capped_link.transfer(coded, 1);
  ASSERT_EQ(capped.outcome, RxOutcome::kOk);
  EXPECT_EQ(capped.decoded_planes, depth);
  EXPECT_EQ(capped.total_planes, full_stream.plane_count);
  // Truncation is transmit-side: genuinely fewer bytes on the wire.
  EXPECT_LT(capped.wire_bytes, full.wire_bytes);
  // And the received pixels equal the in-memory depth-capped decode.
  const Tensor reference =
      codec::dequantize_frame(codec::decode_bitplanes(full_stream, depth).frame);
  EXPECT_EQ(std::memcmp(capped.coded.data().data(), reference.data().data(),
                        reference.data().size() * sizeof(float)),
            0);

  // The cap is adjustable per frame: resetting to full depth restores the
  // lossless round trip on the same link.
  capped_link.set_codec_planes(0);
  const TransferResult restored = capped_link.transfer(coded, 2);
  ASSERT_EQ(restored.outcome, RxOutcome::kOk);
  EXPECT_EQ(restored.decoded_planes, restored.total_planes);
  EXPECT_THROW(capped_link.set_codec_planes(-1), std::invalid_argument);
  EXPECT_THROW(capped_link.set_codec_planes(codec::kMaxBitplanes + 1),
               std::invalid_argument);
}

// Fault matrix for the codec wire: each damage class lands on its documented
// classification, and no corruption ever crashes the decoder.
TEST(CodecWire, FaultMatrixClassifiesDamage) {
  Rng rng(53);
  const Tensor coded = Tensor::rand_uniform(Shape{8, 8}, rng, -1.0F, 1.0F);
  CodedFramePacketizer packetizer(0);
  Depacketizer depacketizer;
  const WireFrame golden = packetizer.packetize_codec(coded, 3);
  ASSERT_GT(golden.packets.size(), 4U);

  {  // dropped frame start -> truncated
    WireFrame wire = golden;
    wire.packets.erase(wire.packets.begin());
    EXPECT_EQ(depacketizer.depacketize_codec(wire, 8, 8).outcome, RxOutcome::kTruncated);
  }
  {  // dropped stream header -> truncated (nothing can be decoded)
    WireFrame wire = golden;
    wire.packets.erase(wire.packets.begin() + 1);
    EXPECT_EQ(depacketizer.depacketize_codec(wire, 8, 8).outcome, RxOutcome::kTruncated);
  }
  {  // header for the wrong geometry -> truncated
    WireFrame wire = golden;
    const auto rx = depacketizer.depacketize_codec(wire, 4, 4);
    EXPECT_EQ(rx.outcome, RxOutcome::kTruncated);
  }
  {  // dropped MSB plane packet -> missing lines (a needed plane never came)
    WireFrame wire = golden;
    wire.packets.erase(wire.packets.begin() + 2);
    const auto rx = depacketizer.depacketize_codec(wire, 8, 8);
    EXPECT_EQ(rx.outcome, RxOutcome::kMissingLines);
    EXPECT_EQ(rx.decoded_planes, 0);
  }
  {  // payload bit flip in a plane packet -> CRC error, packet discarded whole
    WireFrame wire = golden;
    wire.packets[2][transport::kHeaderBytes + 1] ^= 0x10;
    const auto rx = depacketizer.depacketize_codec(wire, 8, 8);
    EXPECT_EQ(rx.outcome, RxOutcome::kCrcError);
    EXPECT_EQ(rx.crc_errors, 1U);
    EXPECT_EQ(rx.decoded_planes, 0);
  }
  {  // a RAW32 row on a codec link is no plane: counted lost, the decode unharmed
    WireFrame wire = golden;
    const std::vector<std::uint8_t> row(32, 0x3F);
    wire.packets.insert(wire.packets.end() - 1,
                        CodedFramePacketizer::long_packet(transport::kDtRaw32, row.data(), 32));
    const auto rx = depacketizer.depacketize_codec(wire, 8, 8);
    EXPECT_EQ(rx.outcome, RxOutcome::kOk);
    EXPECT_EQ(rx.lost_packets, 1U);
    EXPECT_EQ(rx.decoded_planes, rx.total_planes);
  }
  {  // damage to a LATER plane than the cap requires does not demote kOk
    WireFrame wire = golden;
    wire.packets[wire.packets.size() - 2][transport::kHeaderBytes + 1] ^= 0x10;
    const auto rx = depacketizer.depacketize_codec(wire, 8, 8, /*max_planes=*/1);
    EXPECT_EQ(rx.outcome, RxOutcome::kOk);
    EXPECT_EQ(rx.decoded_planes, 1);
  }
}

// Seeded-injector sweep over codec frames: arbitrary corruption must always
// produce a sane classification and bounded plane counts — never UB, never a
// crash (the ASan/UBSan arms run this too).
TEST(CodecWire, InjectedFaultsAlwaysClassifySafely) {
  FaultConfig fault_cfg;
  fault_cfg.bit_flip_per_byte = 0.004;
  fault_cfg.packet_drop_rate = 0.06;
  fault_cfg.lane_stall_rate = 0.03;
  fault_cfg.seed = 61;
  FaultInjector injector(fault_cfg);
  CodedFramePacketizer packetizer(0);
  Depacketizer depacketizer;
  Rng rng(59);
  int corrupt = 0;
  for (int f = 0; f < 60; ++f) {
    const Tensor coded = Tensor::rand_uniform(Shape{8, 8}, rng, -1.0F, 1.0F);
    WireFrame wire = packetizer.packetize_codec(coded, static_cast<std::uint16_t>(f));
    const bool faulted = injector.apply(wire);
    const auto rx = depacketizer.depacketize_codec(wire, 8, 8);
    EXPECT_LE(rx.decoded_planes, rx.total_planes == 0 ? codec::kMaxBitplanes
                                                      : rx.total_planes);
    ASSERT_EQ(rx.coded.shape(), (Shape{8, 8}));
    if (!faulted) {
      EXPECT_EQ(rx.outcome, RxOutcome::kOk) << "clean frame " << f << " misclassified";
    }
    corrupt += rx.outcome != RxOutcome::kOk ? 1 : 0;
  }
  EXPECT_GT(corrupt, 0);  // the rates actually exercised the paths
}

// --- construction validation -------------------------------------------------

// Every unusable LinkConfig/FaultConfig field is rejected with
// std::invalid_argument at construction — including NaN/inf rates, which a
// naive `rate < 0 || rate > 1` check lets straight through to the bernoulli
// draws.
TEST(LinkValidation, RejectsNonFiniteAndOutOfRangeFaultRates) {
  FaultConfig bad;
  bad.bit_flip_per_byte = std::nan("");
  EXPECT_THROW(transport::validate(bad), std::invalid_argument);
  EXPECT_THROW(FaultInjector{bad}, std::invalid_argument);

  bad = FaultConfig{};
  bad.packet_drop_rate = std::numeric_limits<double>::infinity();
  EXPECT_THROW(transport::validate(bad), std::invalid_argument);

  bad = FaultConfig{};
  bad.lane_stall_rate = -0.25;
  EXPECT_THROW(transport::validate(bad), std::invalid_argument);

  // set_rates goes through the same gate: a running injector cannot be
  // flipped to garbage mid-chaos-schedule.
  FaultInjector injector{FaultConfig{}};
  FaultConfig nan_rates;
  nan_rates.bit_flip_per_byte = std::nan("");
  EXPECT_THROW(injector.set_rates(nan_rates), std::invalid_argument);
}

TEST(LinkValidation, RejectsUnusableLinkGeometry) {
  const LinkConfig good;
  EXPECT_NO_THROW(transport::validate(good));

  LinkConfig bad;
  bad.mipi.lanes = 0;
  EXPECT_THROW(transport::validate(bad), std::invalid_argument);
  // The FramedLink constructor throws the SAME type for the same reason —
  // construction order must not let an inner component reject it first with
  // a different exception.
  EXPECT_THROW(FramedLink{bad}, std::invalid_argument);

  bad = LinkConfig{};
  bad.mipi.lanes = 9;
  EXPECT_THROW(FramedLink{bad}, std::invalid_argument);

  bad = LinkConfig{};
  bad.mipi.byte_clock_hz = 0.0;
  EXPECT_THROW(FramedLink{bad}, std::invalid_argument);
  bad.mipi.byte_clock_hz = std::nan("");
  EXPECT_THROW(FramedLink{bad}, std::invalid_argument);

  bad = LinkConfig{};
  bad.virtual_channel = 4;
  EXPECT_THROW(FramedLink{bad}, std::invalid_argument);

  bad = LinkConfig{};
  bad.codec = true;
  bad.codec_planes = codec::kMaxBitplanes + 1;
  EXPECT_THROW(FramedLink{bad}, std::invalid_argument);

  bad = LinkConfig{};
  bad.faults.packet_drop_rate = 2.0;
  EXPECT_THROW(FramedLink{bad}, std::invalid_argument);
}

TEST(LinkValidation, SetFaultsSwapsRatesButKeepsSeedAndRngStream) {
  Rng rng(67);
  const Tensor coded = Tensor::rand_uniform(Shape{8, 8}, rng, -1.0F, 1.0F);

  LinkConfig cfg;
  cfg.faults.packet_drop_rate = 1.0;
  cfg.faults.seed = 99;
  FramedLink link(cfg);
  EXPECT_NE(link.transfer(coded, 0).outcome, RxOutcome::kOk);

  FaultConfig clean;
  clean.seed = 12345;  // ignored: the running injector keeps its own stream
  link.set_faults(clean);
  EXPECT_EQ(link.config().faults.packet_drop_rate, 0.0);
  EXPECT_EQ(link.config().faults.seed, 99U);
  EXPECT_EQ(link.transfer(coded, 1).outcome, RxOutcome::kOk);

  FaultConfig bad;
  bad.bit_flip_per_byte = -1.0;
  EXPECT_THROW(link.set_faults(bad), std::invalid_argument);
}

// --- codec-header damage under retransmit ------------------------------------

// A CRC-failed kDtCodecHeader packet is classified kTruncated (the stream
// header's bytes cannot be trusted, so nothing downstream is decodable) and
// counted as a CRC error — the classification TransportPolicy::kRetransmit
// keys the retry on.
TEST(CodecWire, CrcFailedHeaderPacketIsTruncatedAndCounted) {
  Rng rng(71);
  const Tensor coded = Tensor::rand_uniform(Shape{8, 8}, rng, -1.0F, 1.0F);
  CodedFramePacketizer packetizer(0);
  Depacketizer depacketizer;
  WireFrame wire = packetizer.packetize_codec(coded, 5);
  ASSERT_EQ(wire.packets[1][0] & 0x3F, transport::kDtCodecHeader);

  wire.packets[1][transport::kHeaderBytes] ^= 0x01;  // first payload byte
  const auto rx = depacketizer.depacketize_codec(wire, 8, 8);
  EXPECT_EQ(rx.outcome, RxOutcome::kTruncated);
  EXPECT_EQ(rx.crc_errors, 1U);
  EXPECT_EQ(rx.decoded_planes, 0);
}

// Retransmit recovery end to end: a camera on a seeded lossy codec link whose
// first transfer arrives corrupt recovers bit-identically through
// CameraSource::retransmit, and the frame's wire accounting charges every
// attempt — corrupt ones included — exactly once.
TEST(CodecWire, RetransmitRecoversBitIdenticallyAndChargesEveryAttempt) {
  Rng rng(73);
  const Tensor coded = Tensor::rand_uniform(Shape{8, 8}, rng, -1.0F, 1.0F);
  const Tensor reference = codec::dequantize_frame(codec::quantize_frame(coded));

  // The clean wire cost of this frame, for the accounting check below.
  LinkConfig clean_cfg;
  clean_cfg.codec = true;
  FramedLink clean_link(clean_cfg);
  const std::uint64_t clean_bytes = clean_link.transfer(coded, 0).wire_bytes;
  ASSERT_GT(clean_bytes, 0U);

  // Find a seed whose FIRST transfer corrupts and whose retries recover
  // within budget — purely deterministic given the seed, so the test never
  // flakes; the scan just avoids hand-tuning a magic constant.
  bool exercised = false;
  for (std::uint64_t seed = 1; seed <= 64 && !exercised; ++seed) {
    LinkConfig cfg;
    cfg.codec = true;
    cfg.faults.bit_flip_per_byte = 0.01;
    cfg.faults.packet_drop_rate = 0.05;
    cfg.faults.seed = seed;
    runtime::ReplayCameraSource camera(0, ce::CePattern::long_exposure(8, 8),
                                       std::vector<Tensor>{coded},
                                       std::vector<std::int64_t>{});
    camera.set_framed(cfg);

    runtime::Frame frame = camera.next_frame();
    if (!runtime::is_corrupt(frame.transport)) {
      continue;  // this seed's first attempt was clean; try another
    }
    int attempts = 1;
    while (runtime::is_corrupt(frame.transport) && frame.retransmits < 8) {
      camera.retransmit(frame);
      ++attempts;
    }
    if (runtime::is_corrupt(frame.transport)) {
      continue;  // still dead after 8 retries; try another seed
    }
    exercised = true;
    EXPECT_GE(frame.retransmits, 1);
    EXPECT_EQ(attempts, frame.retransmits + 1);
    // Bit-identity: the recovered payload equals the in-memory quantize round
    // trip — damage from the failed attempts must not leak into the frame.
    ASSERT_EQ(frame.coded.shape(), reference.shape());
    EXPECT_EQ(std::memcmp(frame.coded.data().data(), reference.data().data(),
                          reference.data().size() * sizeof(float)),
              0);
    // Wire accounting: every attempt crossed the wire and cost its bytes.
    EXPECT_EQ(frame.wire_bytes,
              clean_bytes * static_cast<std::uint64_t>(attempts));
  }
  ASSERT_TRUE(exercised) << "no seed in [1, 64] produced corrupt-then-recovered";
}

// --- heap allocations on the edge path ---------------------------------------
//
// alloc_counter.h replaces this binary's global operator new with one that
// counts the calls made on the current thread while a counter is armed.

using fixtures::allocations_of;
using fixtures::kTensorAllocations;

// A camera whose protected encode the tests can call directly.
class EncodingCamera final : public runtime::CameraSource {
 public:
  explicit EncodingCamera(runtime::PatternRef pattern) : CameraSource(0, std::move(pattern)) {}
  using CameraSource::encode_normalized;

 protected:
  runtime::Frame capture_frame() override { return runtime::Frame{}; }
};

// The edge path allocates nothing per frame beyond its returned tensor.

TEST(EdgeAllocations, EncodeNormalizedAllocatesOnlyItsResult) {
  Rng rng(61);
  const EncodingCamera camera(runtime::make_pattern_ref(ce::CePattern::random(8, 8, rng)));
  const Tensor clip = Tensor::rand_uniform(Shape{8, 16, 16}, rng);
  EXPECT_EQ(allocations_of([&] { camera.encode_normalized(clip); }), kTensorAllocations);
}

TEST(EdgeAllocations, SteadyTransferAllocatesTheSameAtEveryDepth) {
  Rng rng(62);
  std::vector<Tensor> frames;
  for (int i = 0; i < 3; ++i) {
    frames.push_back(Tensor::rand_uniform(Shape{16, 16}, rng, -1.0F, 1.0F));
  }
  for (const bool codec : {true, false}) {
    for (const int depth : {8, 0}) {
      LinkConfig cfg;
      cfg.codec = codec;
      cfg.codec_planes = depth;
      FramedLink link(cfg);
      for (const Tensor& frame : frames) {  // warm the link's buffers
        link.transfer(frame, 0);
      }
      TransferResult result;
      const std::uint64_t allocations =
          allocations_of([&] { result = link.transfer(frames[1], 1); });
      ASSERT_EQ(result.outcome, RxOutcome::kOk);
      if (codec) {
        ASSERT_EQ(result.decoded_planes, depth == 0 ? result.total_planes : depth);
      }
      EXPECT_EQ(allocations, kTensorAllocations)
          << (codec ? "codec" : "RAW32") << " link, depth " << depth;
    }
  }
}

}  // namespace
}  // namespace snappix

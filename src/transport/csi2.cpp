#include "transport/csi2.h"

#include <array>
#include <cstring>

#include "util/common.h"

namespace snappix::transport {

namespace {

// CRC-16/CCITT-FALSE, sliced by four bytes. Table 0 entry b is the register
// after shifting b through the polynomial (MSB first) from zero; table k
// entry b is table 0's entry followed by k zero bytes. The CRC is linear, so
// four message bytes fold into the register as the XOR of one lookup each.
using CrcTables = std::array<std::array<std::uint16_t, 256>, 4>;
constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t crc = b << 8;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x8000U) != 0 ? ((crc << 1) ^ 0x1021U) : (crc << 1);
    }
    tables[0][b] = static_cast<std::uint16_t>(crc & 0xFFFFU);
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      const std::uint32_t prev = tables[k - 1][b];
      tables[k][b] = static_cast<std::uint16_t>(((prev << 8) ^ tables[0][prev >> 8]) & 0xFFFFU);
    }
  }
  return tables;
}
constexpr CrcTables kCrcTables = make_crc_tables();

}  // namespace

std::uint16_t crc16_ccitt(const std::uint8_t* data, std::size_t size) {
  // uint32 accumulator: a uint16 operand would promote to signed int under
  // the shift. The mask keeps each step's result exactly the CRC-16 state.
  std::uint32_t crc = 0xFFFFU;
  std::size_t i = 0;
  for (; i + 4 <= size; i += 4) {
    crc = kCrcTables[3][(crc >> 8) ^ data[i]] ^ kCrcTables[2][(crc & 0xFFU) ^ data[i + 1]] ^
          kCrcTables[1][data[i + 2]] ^ kCrcTables[0][data[i + 3]];
  }
  for (; i < size; ++i) {
    crc = ((crc << 8) ^ kCrcTables[0][((crc >> 8) ^ data[i]) & 0xFFU]) & 0xFFFFU;
  }
  return static_cast<std::uint16_t>(crc);
}

// --- header ECC --------------------------------------------------------------
//
// SEC-DED Hamming code over the 24 header bits. Codeword positions 1..29:
// positions 1, 2, 4, 8, 16 hold the five Hamming parity bits, the remaining
// 24 positions hold data bits d0..d23 in increasing position order. A sixth,
// overall parity bit covers the whole codeword, turning single-error
// correction into single-correct/double-detect.
//
// The code is linear over GF(2), so the ECC of a header is the XOR of the
// ECCs of its set bits, and those of one header byte come from a 256-entry
// table. Data bit k at codeword position pos feeds parity bit m iff pos has
// bit m set, so its ECC is pos itself plus the overall parity of the data bit
// and the parity bits it sets.

namespace {

constexpr int kCodewordBits = 29;  // 24 data + 5 Hamming parity positions

constexpr bool is_parity_position(int pos) { return (pos & (pos - 1)) == 0; }

constexpr std::uint8_t data_bit_ecc(int k) {
  int pos = 0;
  for (int seen = -1; seen < k;) {
    ++pos;
    seen += is_parity_position(pos) ? 0 : 1;
  }
  unsigned overall = 1;
  for (int m = pos; m != 0; m >>= 1) {
    overall ^= static_cast<unsigned>(m & 1);
  }
  return static_cast<std::uint8_t>(pos | (overall << 5));
}

using EccTable = std::array<std::array<std::uint8_t, 256>, 3>;
constexpr EccTable make_ecc_tables() {
  EccTable tables{};
  for (int byte = 0; byte < 3; ++byte) {
    for (int v = 0; v < 256; ++v) {
      std::uint8_t ecc = 0;
      for (int bit = 0; bit < 8; ++bit) {
        if (((v >> bit) & 1) != 0) {
          ecc = static_cast<std::uint8_t>(ecc ^ data_bit_ecc(8 * byte + bit));
        }
      }
      tables[static_cast<std::size_t>(byte)][static_cast<std::size_t>(v)] = ecc;
    }
  }
  return tables;
}
constexpr EccTable kEccTables = make_ecc_tables();

std::uint8_t ecc_of(std::uint32_t header24) {
  return static_cast<std::uint8_t>(kEccTables[0][header24 & 0xFFU] ^
                                   kEccTables[1][(header24 >> 8) & 0xFFU] ^
                                   kEccTables[2][(header24 >> 16) & 0xFFU]);
}

}  // namespace

std::uint8_t ecc_encode(std::uint32_t header24) {
  SNAPPIX_CHECK((header24 >> 24) == 0, "header ECC covers 24 bits, got " << header24);
  return ecc_of(header24);
}

EccDecode ecc_decode(std::uint32_t header24, std::uint8_t ecc) {
  EccDecode out;
  if ((header24 >> 24) != 0 || (ecc >> 6) != 0) {
    return out;  // reserved bits set: not a parseable header
  }
  const unsigned diff = static_cast<unsigned>(ecc_of(header24) ^ ecc);
  if (diff == 0) {
    out.status = EccDecode::Status::kClean;
    out.header24 = header24;
    return out;
  }
  // A damaged header. Syndrome: which parity groups disagree; nonzero => its
  // value is the (claimed) position of a single-bit error. The received
  // codeword's overall parity is off iff the overall bits differ by other
  // than the parity of the disagreeing groups.
  const int syndrome = static_cast<int>(diff & 0x1FU);
  const bool overall_ok = ((diff >> 5) & 1U) ==
                          (static_cast<unsigned>(__builtin_popcount(diff & 0x1FU)) & 1U);
  if (syndrome == 0) {
    // Only the overall parity bit itself flipped; the data is intact.
    out.status = EccDecode::Status::kCorrected;
    out.header24 = header24;
    return out;
  }
  if (!overall_ok && syndrome <= kCodewordBits) {
    // Single-bit error at position `syndrome`: a parity bit leaves the data
    // intact; a data position holds bit (pos - 2 - floor(log2 pos)).
    out.status = EccDecode::Status::kCorrected;
    out.header24 = header24;
    if (!is_parity_position(syndrome)) {
      const int log2 = 31 - __builtin_clz(static_cast<unsigned>(syndrome));
      out.header24 ^= std::uint32_t{1} << (syndrome - 2 - log2);
    }
    return out;
  }
  // syndrome != 0 with overall parity consistent (or an impossible position):
  // at least two bits flipped — uncorrectable.
  return out;
}

// --- WireFrame ---------------------------------------------------------------

std::uint64_t WireFrame::total_bytes() const {
  std::uint64_t total = 0;
  for (const Packet& packet : packets) {
    total += packet.size();
  }
  return total;
}

std::uint64_t WireFrame::payload_bytes() const {
  std::uint64_t payload = 0;
  for (const Packet& packet : packets) {
    payload += payload_size(packet);
  }
  return payload;
}

// --- CodedFramePacketizer ----------------------------------------------------

CodedFramePacketizer::CodedFramePacketizer(int virtual_channel)
    : virtual_channel_(virtual_channel) {
  SNAPPIX_CHECK(virtual_channel >= 0 && virtual_channel <= 3,
                "CSI-2 virtual channel " << virtual_channel << " out of [0, 3]");
}

namespace {

// Starts `packet` over with its 4-byte header (DI, 16-bit value, ECC),
// keeping its buffer, with room for `payload` bytes and the CRC footer.
void begin_packet(Packet& packet, std::uint8_t data_id, std::uint16_t value,
                  std::size_t payload) {
  const std::uint32_t header24 = static_cast<std::uint32_t>(data_id) |
                                 (static_cast<std::uint32_t>(value) << 8);
  packet.reserve(kHeaderBytes + payload + (payload > 0 ? kCrcBytes : 0));
  packet.assign({data_id, static_cast<std::uint8_t>(value & 0xFF),
                 static_cast<std::uint8_t>(value >> 8), ecc_of(header24)});
}

// Appends the long-packet footer: the CRC of everything after the header.
void end_long_packet(Packet& packet) {
  const std::uint16_t crc =
      crc16_ccitt(packet.data() + kHeaderBytes, packet.size() - kHeaderBytes);
  packet.push_back(static_cast<std::uint8_t>(crc & 0xFF));
  packet.push_back(static_cast<std::uint8_t>(crc >> 8));
}

void write_long_packet(Packet& packet, std::uint8_t data_id, const std::uint8_t* payload,
                       std::uint16_t word_count) {
  begin_packet(packet, data_id, word_count, word_count);
  packet.insert(packet.end(), payload, payload + word_count);
  end_long_packet(packet);
}

}  // namespace

Packet CodedFramePacketizer::short_packet(std::uint8_t data_id, std::uint16_t value) {
  Packet packet;
  begin_packet(packet, data_id, value, 0);
  return packet;
}

Packet CodedFramePacketizer::long_packet(std::uint8_t data_id, const std::uint8_t* payload,
                                         std::uint16_t word_count) {
  Packet packet;
  write_long_packet(packet, data_id, payload, word_count);
  return packet;
}

WireFrame CodedFramePacketizer::packetize_codec(const Tensor& coded,
                                                std::uint16_t frame_number,
                                                int max_planes) const {
  SNAPPIX_CHECK(coded.shape().ndim() == 2,
                "packetize_codec expects a (H, W) coded frame, got rank "
                    << coded.shape().ndim());
  SNAPPIX_CHECK(max_planes >= 0, "max_planes " << max_planes << " negative");
  WireFrame wire;
  packetize_codec(codec::encode_bitplanes(codec::quantize_frame(coded), max_planes),
                  frame_number, wire);
  return wire;
}

void CodedFramePacketizer::packetize_codec(const codec::PlaneStream& stream,
                                           std::uint16_t frame_number,
                                           WireFrame& wire) const {
  const std::uint8_t vc_bits = static_cast<std::uint8_t>(virtual_channel_ << 6);
  wire.packets.resize(stream.planes.size() + 3);
  begin_packet(wire.packets.front(), static_cast<std::uint8_t>(vc_bits | kDtFrameStart),
               frame_number, 0);
  const auto header = codec::serialize_stream_header(stream);
  write_long_packet(wire.packets[1], static_cast<std::uint8_t>(vc_bits | kDtCodecHeader),
                    header.data(), static_cast<std::uint16_t>(header.size()));
  for (std::size_t j = 0; j < stream.planes.size(); ++j) {
    const std::vector<std::uint8_t>& chunk = stream.planes[j];
    SNAPPIX_CHECK(chunk.size() + 1 <= 0xFFFF,
                  "plane chunk of " << chunk.size() << " bytes overflows the word count");
    // Payload: the plane index, then the chunk.
    Packet& packet = wire.packets[j + 2];
    begin_packet(packet, static_cast<std::uint8_t>(vc_bits | kDtCodecPlane),
                 static_cast<std::uint16_t>(chunk.size() + 1), chunk.size() + 1);
    packet.push_back(static_cast<std::uint8_t>(j));
    packet.insert(packet.end(), chunk.begin(), chunk.end());
    end_long_packet(packet);
  }
  begin_packet(wire.packets.back(), static_cast<std::uint8_t>(vc_bits | kDtFrameEnd),
               frame_number, 0);
}

WireFrame CodedFramePacketizer::packetize(const Tensor& coded,
                                          std::uint16_t frame_number) const {
  WireFrame wire;
  packetize(coded, frame_number, wire);
  return wire;
}

void CodedFramePacketizer::packetize(const Tensor& coded, std::uint16_t frame_number,
                                     WireFrame& wire) const {
  SNAPPIX_CHECK(coded.shape().ndim() == 2,
                "packetize expects a (H, W) coded frame, got rank " << coded.shape().ndim());
  const std::int64_t height = coded.shape()[0];
  const std::int64_t width = coded.shape()[1];
  SNAPPIX_CHECK(height >= 1 && width >= 1, "empty coded frame");
  SNAPPIX_CHECK(width * 4 <= 0xFFFF,
                "row of " << width << " float32 pixels overflows the 16-bit word count");
  const std::uint8_t vc_bits = static_cast<std::uint8_t>(virtual_channel_ << 6);

  wire.packets.resize(static_cast<std::size_t>(height) + 2);
  begin_packet(wire.packets.front(), static_cast<std::uint8_t>(vc_bits | kDtFrameStart),
               frame_number, 0);
  const std::uint16_t wc = static_cast<std::uint16_t>(width * 4);
  for (std::int64_t r = 0; r < height; ++r) {
    write_long_packet(
        wire.packets[static_cast<std::size_t>(r) + 1],
        static_cast<std::uint8_t>(vc_bits | kDtRaw32),
        reinterpret_cast<const std::uint8_t*>(coded.data().data() + r * width), wc);
  }
  begin_packet(wire.packets.back(), static_cast<std::uint8_t>(vc_bits | kDtFrameEnd),
               frame_number, 0);
}

// --- Depacketizer ------------------------------------------------------------

const char* to_string(RxOutcome outcome) {
  switch (outcome) {
    case RxOutcome::kOk:
      return "ok";
    case RxOutcome::kCrcError:
      return "crc_error";
    case RxOutcome::kTruncated:
      return "truncated";
    default:
      return "missing_lines";
  }
}

namespace {

// The receive walk both depacketizers share. It parses each packet's header
// through the ECC, notes the FS/FE short packets, checks that each long
// packet's bytes all arrived, and verifies its CRC, counting what it finds in
// `rx`. Each long packet whose header survived and whose bytes all arrived
// goes to `on_long(data_type, payload, wc, crc_ok)`; a payload failing its
// CRC is already counted in rx.crc_errors. Returns false when the frame is
// truncated: the stream died mid-packet, or FS or FE never arrived.
template <typename OnLongPacket>
bool walk_packets(const WireFrame& wire, RxFrame& rx, OnLongPacket&& on_long) {
  bool saw_fs = false;
  bool saw_fe = false;
  for (const Packet& packet : wire.packets) {
    if (packet.size() < static_cast<std::size_t>(kHeaderBytes)) {
      return false;  // the stream died mid-header
    }
    const std::uint32_t header24 = static_cast<std::uint32_t>(packet[0]) |
                                   (static_cast<std::uint32_t>(packet[1]) << 8) |
                                   (static_cast<std::uint32_t>(packet[2]) << 16);
    // Full ECC byte on purpose: a flip in its two reserved (always-zero) bits
    // is outside the Hamming code's reach, and ecc_decode classifies such a
    // header as uncorrectable rather than silently passing corruption.
    const EccDecode dec = ecc_decode(header24, packet[3]);
    if (dec.status == EccDecode::Status::kUncorrectable) {
      ++rx.lost_packets;  // unparseable noise: whatever it carried is gone
      continue;
    }
    if (dec.status == EccDecode::Status::kCorrected) {
      ++rx.corrected_headers;
    }
    const std::uint8_t data_type = static_cast<std::uint8_t>(dec.header24 & 0x3F);
    const std::uint16_t wc = static_cast<std::uint16_t>((dec.header24 >> 8) & 0xFFFF);
    if (data_type < 0x10) {  // short packet: wc field carries the value
      if (data_type == kDtFrameStart) {
        saw_fs = true;
        rx.frame_number = wc;
      } else if (data_type == kDtFrameEnd) {
        saw_fe = true;
      }
      continue;
    }
    // Long packet: header promises wc payload bytes + CRC.
    if (packet.size() < static_cast<std::size_t>(kHeaderBytes) + wc + kCrcBytes) {
      return false;  // a stalled lane cut the packet short
    }
    const std::uint8_t* payload = packet.data() + kHeaderBytes;
    const std::uint16_t crc_rx = static_cast<std::uint16_t>(payload[wc] | (payload[wc + 1] << 8));
    const bool crc_ok = crc16_ccitt(payload, wc) == crc_rx;
    if (!crc_ok) {
      ++rx.crc_errors;
    }
    on_long(data_type, payload, wc, crc_ok);
  }
  return saw_fs && saw_fe;
}

}  // namespace

RxFrame Depacketizer::depacketize(const WireFrame& wire, std::int64_t height,
                                  std::int64_t width) const {
  SNAPPIX_CHECK(height >= 1 && width >= 1,
                "depacketize needs positive geometry, got " << height << "x" << width);
  RxFrame rx;
  std::vector<float> pixels(static_cast<std::size_t>(height * width), 0.0F);
  const std::uint16_t expected_wc = static_cast<std::uint16_t>(width * 4);
  // A row whose CRC failed is still taken: its place in the frame is known,
  // and the outcome says its pixels are damaged.
  const bool complete = walk_packets(
      wire, rx, [&](std::uint8_t data_type, const std::uint8_t* payload, std::uint16_t wc,
                    bool /*crc_ok*/) {
        if (data_type == kDtRaw32 && wc == expected_wc &&
            rx.lines_received < static_cast<std::uint32_t>(height)) {
          std::memcpy(pixels.data() + rx.lines_received * width, payload, wc);
          ++rx.lines_received;
        } else {
          ++rx.lost_packets;  // foreign data type, wrong geometry or surplus line: unusable
        }
      });

  rx.coded = Tensor::from_vector(std::move(pixels), Shape{height, width});
  if (!complete) {
    rx.outcome = RxOutcome::kTruncated;
  } else if (rx.lines_received < static_cast<std::uint32_t>(height)) {
    rx.outcome = RxOutcome::kMissingLines;
  } else if (rx.crc_errors > 0) {
    rx.outcome = RxOutcome::kCrcError;
  } else {
    rx.outcome = RxOutcome::kOk;
  }
  return rx;
}

RxFrame Depacketizer::depacketize_codec(const WireFrame& wire, std::int64_t height,
                                        std::int64_t width, int max_planes) {
  SNAPPIX_CHECK(height >= 1 && width >= 1,
                "depacketize_codec needs positive geometry, got " << height << "x" << width);
  SNAPPIX_CHECK(max_planes >= 0, "max_planes " << max_planes << " negative");
  RxFrame rx;
  bool have_header = false;
  codec::PlaneStream stream;
  // Each received plane's chunk, read in place from its packet.
  std::array<codec::ChunkView, codec::kMaxBitplanes> chunks{};
  std::array<bool, codec::kMaxBitplanes> plane_seen{};

  const bool complete = walk_packets(
      wire, rx, [&](std::uint8_t data_type, const std::uint8_t* payload, std::uint16_t wc,
                    bool crc_ok) {
        if (!crc_ok) {
          return;  // a damaged payload's bytes, a plane's index byte too, cannot be trusted
        }
        if (data_type == kDtCodecHeader) {
          codec::PlaneStream parsed;
          if (!have_header && codec::parse_stream_header(payload, wc, parsed) &&
              parsed.height == static_cast<std::uint16_t>(height) &&
              parsed.width == static_cast<std::uint16_t>(width)) {
            stream = parsed;
            have_header = true;
          } else {
            ++rx.lost_packets;  // duplicate, malformed, or wrong-geometry header
          }
        } else if (data_type == kDtCodecPlane && wc >= 1 && payload[0] < codec::kMaxBitplanes &&
                   !plane_seen[payload[0]]) {
          chunks[payload[0]] = {payload + 1, static_cast<std::size_t>(wc - 1)};
          plane_seen[payload[0]] = true;
        } else {
          ++rx.lost_packets;  // a foreign data type (e.g. a RAW32 row), a bad or repeated plane
        }
      });

  if (!complete || !have_header) {
    rx.coded = Tensor::zeros(Shape{height, width});
    rx.outcome = RxOutcome::kTruncated;
    return rx;
  }

  int needed = stream.plane_count;
  if (max_planes != 0 && max_planes < needed) {
    needed = max_planes;
  }
  std::size_t present = 0;
  while (present < static_cast<std::size_t>(needed) && plane_seen[present]) {
    ++present;
  }
  const int decoded = coder_.decode(stream, chunks.data(), present, needed, decoded_);
  rx.coded = codec::dequantize_frame(decoded_);
  rx.decoded_planes = static_cast<std::uint8_t>(decoded);
  rx.total_planes = stream.plane_count;
  if (decoded >= needed) {
    rx.outcome = RxOutcome::kOk;
  } else if (rx.crc_errors > 0) {
    rx.outcome = RxOutcome::kCrcError;
  } else {
    rx.outcome = RxOutcome::kMissingLines;
  }
  return rx;
}

}  // namespace snappix::transport

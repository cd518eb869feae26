// MIPI CSI-2-style framed transport for coded frames.
//
// A coded (H, W) frame leaves the sensor as a sequence of packets modeled on
// the CSI-2 low-level protocol, so transport errors and partial frames become
// first-class, testable events instead of an accounting fiction:
//
//   Frame Start   short packet   [DI][frame#lo][frame#hi][ECC]
//   row 0..H-1    long packets   [DI][wc lo][wc hi][ECC] payload[wc] [CRC16]
//   Frame End     short packet   [DI][frame#lo][frame#hi][ECC]
//
// DI (data identifier) carries the virtual channel in bits 7..6 and the data
// type in bits 5..0; `wc` (word count) is the payload byte count. The payload
// of a row packet is the row's float32 pixels in host byte order (a RAW32-
// style user-defined data type — full precision, so the framed path can be
// bit-identical to the in-memory path). The footer is CRC-16/CCITT-FALSE over
// the payload, computed a byte at a time from a 256-entry table; the header
// is protected by a 6-bit SEC-DED Hamming code over its 24 bits (single-bit
// errors corrected, double-bit errors detected), in the spirit of the CSI-2
// packet-header ECC. The code is linear, so encoding XORs three per-byte
// tables, and a receiver re-encodes the header and runs the syndrome
// correction only when the ECCs differ.
//
// `CodedFramePacketizer` serializes; `Depacketizer` reassembles, verifies
// CRC/ECC, and classifies the frame-level outcome (`RxOutcome`). Its RAW32
// and codec receivers run one packet walker (header ECC, the FS/FE short
// packets, each long packet's length and CRC) and differ only in what they
// take from a long packet. The wire model between them — byte/lane
// accounting and fault injection — lives in transport/link.h.
#pragma once

#include <cstdint>
#include <vector>

#include "codec/bitplane.h"
#include "sensor/mipi.h"
#include "tensor/tensor.h"

namespace snappix::transport {

// --- integrity primitives ----------------------------------------------------

// CRC-16/CCITT-FALSE: polynomial 0x1021, init 0xFFFF, MSB-first, no final
// xor. crc16_ccitt("123456789") == 0x29B1 (the standard check value).
std::uint16_t crc16_ccitt(const std::uint8_t* data, std::size_t size);

// Encodes the 24 header bits (DI | wc_lo << 8 | wc_hi << 16) into the 6-bit
// SEC-DED code stored in the header's fourth byte (upper two bits zero).
std::uint8_t ecc_encode(std::uint32_t header24);

struct EccDecode {
  enum class Status : std::uint8_t {
    kClean,          // no error
    kCorrected,      // single-bit error (data or ECC) fixed
    kUncorrectable,  // >= 2 bit errors: the header cannot be trusted
  };
  Status status = Status::kUncorrectable;
  std::uint32_t header24 = 0;  // corrected header bits (valid unless uncorrectable)
};
EccDecode ecc_decode(std::uint32_t header24, std::uint8_t ecc);

// --- packet layout -----------------------------------------------------------

// Packet overhead: the sensor link model's constants (sensor/mipi.h).
using sensor::kCrcBytes;
using sensor::kHeaderBytes;

// Data types (DI bits 5..0). Types below 0x10 are short packets.
constexpr std::uint8_t kDtFrameStart = 0x00;
constexpr std::uint8_t kDtFrameEnd = 0x01;
constexpr std::uint8_t kDtRaw32 = 0x30;  // user-defined: one row of float32 pixels
// Entropy-coded mode (codec/bitplane.h): one stream header packet followed by
// one packet per bit-plane chunk. A plane packet's payload is the plane index
// (one byte, MSB plane = 0) followed by the chunk's entropy-coded bytes.
constexpr std::uint8_t kDtCodecHeader = 0x31;
constexpr std::uint8_t kDtCodecPlane = 0x32;

// One packet's bytes exactly as they travel the link.
using Packet = std::vector<std::uint8_t>;

// A packet's long-packet payload: its bytes less the header and CRC footer
// (0 for a short packet).
inline std::size_t payload_size(const Packet& packet) {
  constexpr std::size_t kOverhead = kHeaderBytes + kCrcBytes;
  return packet.size() > kOverhead ? packet.size() - kOverhead : 0;
}

// A whole frame on the wire: Frame Start, H row packets, Frame End.
struct WireFrame {
  std::vector<Packet> packets;

  std::uint64_t total_bytes() const;
  // Long-packet payload bytes only (headers, CRCs and short packets excluded).
  std::uint64_t payload_bytes() const;
};

class CodedFramePacketizer {
 public:
  // `virtual_channel` in [0, 3] is stamped into every packet's DI bits 7..6.
  explicit CodedFramePacketizer(int virtual_channel = 0);

  // Serializes a (H, W) coded frame: FS, one RAW32 long packet per row
  // (wc = W * 4, so W must stay under 16384 pixels), FE. `frame_number`
  // rides in the FS/FE short packets.
  WireFrame packetize(const Tensor& coded, std::uint16_t frame_number) const;
  // The same packets written into `wire`, reusing its packet buffers.
  void packetize(const Tensor& coded, std::uint16_t frame_number, WireFrame& wire) const;

  // Entropy-coded mode: quantizes the frame (codec::quantize_frame), encodes
  // its bit-planes, and serializes FS, a kDtCodecHeader packet, one
  // kDtCodecPlane packet per chunk, FE. `max_planes` > 0 truncates the
  // TRANSMITTED stream to the top planes — the wire carries fewer bytes, not
  // just the decoder reading fewer (0 = every plane).
  WireFrame packetize_codec(const Tensor& coded, std::uint16_t frame_number,
                            int max_planes = 0) const;
  // Serializes an already-encoded stream (every chunk it holds) into `wire`,
  // reusing its packet buffers.
  void packetize_codec(const codec::PlaneStream& stream, std::uint16_t frame_number,
                       WireFrame& wire) const;

  // Building blocks, exposed so tests can pin byte-exact golden vectors.
  static Packet short_packet(std::uint8_t data_id, std::uint16_t value);
  static Packet long_packet(std::uint8_t data_id, const std::uint8_t* payload,
                            std::uint16_t word_count);

  int virtual_channel() const { return virtual_channel_; }

 private:
  int virtual_channel_;
};

// --- reassembly --------------------------------------------------------------

// Frame-level outcome, by severity: a truncated stream beats missing lines
// beats a payload CRC failure beats clean.
enum class RxOutcome : std::uint8_t { kOk, kCrcError, kTruncated, kMissingLines };
const char* to_string(RxOutcome outcome);

// Receiver-side view of one frame, RAW32 or entropy-coded.
struct RxFrame {
  RxOutcome outcome = RxOutcome::kTruncated;
  // Reassembled (H, W) image.
  // RAW32: bit-identical to the transmitted frame when the outcome is kOk.
  // Row packets carry no line index (as in real CSI-2, order is implicit), so
  // rows fill in ARRIVAL order: when a mid-frame row is lost, every later row
  // shifts up one slot and only the trailing rows stay zero — a
  // kMissingLines frame's pixel content is not positionally trustworthy,
  // which is why the serving policy drops or retries it.
  // Codec: dequantized at the decoded depth (undecoded low bits
  // zero-filled); all-zeros when the stream was truncated. With every
  // requested plane decoded this is bit-identical to
  // dequantize_frame(quantize_frame(tx frame)) at the same depth.
  Tensor coded;
  std::uint16_t frame_number = 0;
  std::uint32_t lines_received = 0;     // RAW32: row packets taken in
  std::uint8_t decoded_planes = 0;      // codec: consecutive MSB planes decoded cleanly
  std::uint8_t total_planes = 0;        // codec: full bit depth from the stream header
  std::uint32_t crc_errors = 0;         // long packets whose payload CRC failed
  std::uint32_t corrected_headers = 0;  // single-bit header errors fixed by ECC
  // Headers the ECC could not rescue, and long packets the frame cannot use
  // (a foreign data type, the wrong geometry, a surplus or duplicate).
  std::uint32_t lost_packets = 0;
};

class Depacketizer {
 public:
  // Reassembles a RAW32 frame of known geometry. Classification:
  //   kTruncated     the stream cut off mid-packet, or FS/FE never arrived
  //   kMissingLines  fewer than `height` row packets survived
  //   kCrcError      geometry complete but >= 1 row failed its CRC
  //   kOk            every row present and CRC-verified
  // A packet whose header is uncorrectable is skipped (counted in
  // lost_packets) — on a real link it would be unparseable noise. So is a
  // long packet of any type but kDtRaw32 or of another row's length.
  RxFrame depacketize(const WireFrame& wire, std::int64_t height,
                      std::int64_t width) const;

  // Entropy-coded counterpart. `max_planes` must match the transmit-side cap
  // (0 = full depth): the receiver treats needed = min(cap, header depth)
  // planes as required. Classification:
  //   kTruncated     stream cut off, FS/FE missing, or no valid stream header
  //                  for this geometry
  //   kCrcError      a needed plane arrived damaged (payload CRC failure)
  //   kMissingLines  a needed plane never arrived (dropped / unparseable)
  //   kOk            every needed plane decoded cleanly; later planes may
  //                  still be damaged without demoting the outcome
  // Plane packets failing their CRC are discarded whole — their index byte
  // cannot be trusted — and corrupt chunk contents end the decode at that
  // plane instead of invoking UB (see codec/bitplane.h). Chunks are decoded
  // in place from their packets, and the decode buffers persist across
  // calls, so a warm depacketizer allocates only the returned tensor.
  RxFrame depacketize_codec(const WireFrame& wire, std::int64_t height,
                            std::int64_t width, int max_planes = 0);

 private:
  codec::BitplaneCoder coder_;
  codec::QuantizedFrame decoded_;
};

}  // namespace snappix::transport

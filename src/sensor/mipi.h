// MIPI CSI-2 link model: packetizes read-out rows into long packets
// (4-byte header + payload + 2-byte CRC footer) across one or more lanes.
// kHeaderBytes and kCrcBytes are the one definition of that framing
// overhead: the framed transport (src/transport/csi2.h) builds and parses
// its packets with the same two constants.
//
// Two entry points share the accounting:
//   send_line(payload)          — the analytic sensor read-out path: wire
//                                 bytes = payload + kHeaderBytes + kCrcBytes.
//   send_packet(wire, payload)  — the framed-transport path (src/transport/):
//                                 the caller already built the packet bytes.
// Wire time follows the MOST-LOADED lane: each packet's bytes are striped
// round-robin starting at lane 0, so lane 0 carries ceil(bytes / lanes) of
// every packet and the packet is done only when lane 0 is. Summing that
// per-packet ceiling (rather than dividing the byte total by the lane count)
// is what keeps odd-sized payloads on multi-lane configs from being
// undercounted.
#pragma once

#include <array>
#include <cstdint>

namespace snappix::sensor {

constexpr int kHeaderBytes = 4;  // DI + 16-bit wc/value + ECC
constexpr int kCrcBytes = 2;     // long-packet footer, little-endian on the wire

struct MipiConfig {
  int lanes = 1;
  double byte_clock_hz = 100e6;  // bytes/second per lane
};

class MipiCsi2Link {
 public:
  explicit MipiCsi2Link(const MipiConfig& config);

  // Transmits one row of `payload_bytes` (plus the header and CRC footer);
  // returns bytes on the wire.
  std::uint64_t send_line(std::uint64_t payload_bytes);

  // Transmits one pre-framed packet of `wire_bytes` total, `payload_bytes` of
  // which are payload; returns `wire_bytes`.
  std::uint64_t send_packet(std::uint64_t wire_bytes, std::uint64_t payload_bytes);

  std::uint64_t total_bytes() const { return total_bytes_; }
  std::uint64_t payload_bytes() const { return payload_bytes_; }
  std::uint64_t packets() const { return packets_; }
  // Bytes carried by `lane` (round-robin striping, lane 0 first).
  std::uint64_t lane_bytes(int lane) const;
  // Wire time in seconds: the busiest lane's byte count (summed per packet)
  // over the per-lane byte clock.
  double transmit_seconds() const;
  const MipiConfig& config() const { return config_; }

 private:
  MipiConfig config_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t payload_bytes_ = 0;
  std::uint64_t packets_ = 0;
  // Busiest-lane bytes, accumulated per packet (= sum of ceil(wire / lanes)).
  std::uint64_t busiest_lane_bytes_ = 0;
  std::array<std::uint64_t, 8> lane_bytes_{};
};

}  // namespace snappix::sensor

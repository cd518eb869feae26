#include "sensor/mipi.h"

#include "util/common.h"

namespace snappix::sensor {

MipiCsi2Link::MipiCsi2Link(const MipiConfig& config) : config_(config) {
  SNAPPIX_CHECK(config.lanes >= 1 && config.lanes <= 8, "MIPI lanes " << config.lanes
                                                                      << " out of [1, 8]");
  SNAPPIX_CHECK(config.byte_clock_hz > 0.0, "MIPI byte clock must be positive");
}

std::uint64_t MipiCsi2Link::send_line(std::uint64_t payload) {
  SNAPPIX_CHECK(payload > 0, "MIPI line payload must be positive");
  return send_packet(payload + kHeaderBytes + kCrcBytes, payload);
}

std::uint64_t MipiCsi2Link::send_packet(std::uint64_t wire_bytes,
                                        std::uint64_t payload_bytes) {
  SNAPPIX_CHECK(wire_bytes > 0, "MIPI packet must carry at least one byte");
  SNAPPIX_CHECK(payload_bytes <= wire_bytes,
                "payload " << payload_bytes << " exceeds wire bytes " << wire_bytes);
  total_bytes_ += wire_bytes;
  payload_bytes_ += payload_bytes;
  ++packets_;
  const auto lanes = static_cast<std::uint64_t>(config_.lanes);
  busiest_lane_bytes_ += (wire_bytes + lanes - 1) / lanes;  // lane 0's share
  for (std::uint64_t lane = 0; lane < lanes; ++lane) {
    lane_bytes_[lane] += wire_bytes / lanes + (lane < wire_bytes % lanes ? 1 : 0);
  }
  return wire_bytes;
}

std::uint64_t MipiCsi2Link::lane_bytes(int lane) const {
  SNAPPIX_CHECK(lane >= 0 && lane < config_.lanes,
                "lane " << lane << " out of range for " << config_.lanes << " lanes");
  return lane_bytes_[static_cast<std::size_t>(lane)];
}

double MipiCsi2Link::transmit_seconds() const {
  return static_cast<double>(busiest_lane_bytes_) / config_.byte_clock_hz;
}

}  // namespace snappix::sensor

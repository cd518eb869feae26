#include "transport/link.h"

#include <stdexcept>
#include <string>

#include "codec/bitplane.h"

namespace snappix::transport {

namespace {

void check_codec_planes(int planes) {
  if (planes < 0 || planes > codec::kMaxBitplanes) {
    throw std::invalid_argument("codec_planes " + std::to_string(planes) +
                                " out of [0, " + std::to_string(codec::kMaxBitplanes) +
                                "]");
  }
}

}  // namespace

void validate(const LinkConfig& config) {
  validate(config.faults);
  if (config.mipi.lanes < 1 || config.mipi.lanes > 8) {
    throw std::invalid_argument("LinkConfig.mipi.lanes must be in [1, 8], got " +
                                std::to_string(config.mipi.lanes));
  }
  // The negated form rejects NaN clocks too (NaN > 0.0 is false either way,
  // but spelling it this way matches the fault-rate checks).
  if (!(config.mipi.byte_clock_hz > 0.0) ||
      config.mipi.byte_clock_hz > 1e18) {
    throw std::invalid_argument("LinkConfig.mipi.byte_clock_hz must be positive and finite");
  }
  if (config.virtual_channel < 0 || config.virtual_channel > 3) {
    throw std::invalid_argument("LinkConfig.virtual_channel must be in [0, 3], got " +
                                std::to_string(config.virtual_channel));
  }
  check_codec_planes(config.codec_planes);
}

namespace {

// Member-init-list validation gate: config_ is the first member, so a bad
// config throws std::invalid_argument before MipiCsi2Link's internal checks
// can fire with a different exception type.
const LinkConfig& validated(const LinkConfig& config) {
  validate(config);
  return config;
}

}  // namespace

FramedLink::FramedLink(const LinkConfig& config)
    : config_(validated(config)), packetizer_(config.virtual_channel), mipi_(config.mipi),
      injector_(config.faults) {}

void FramedLink::set_codec_planes(int planes) {
  check_codec_planes(planes);
  config_.codec_planes = planes;
}

void FramedLink::set_faults(const FaultConfig& faults) {
  injector_.set_rates(faults);
  config_.faults.bit_flip_per_byte = faults.bit_flip_per_byte;
  config_.faults.packet_drop_rate = faults.packet_drop_rate;
  config_.faults.lane_stall_rate = faults.lane_stall_rate;
}

TransferResult FramedLink::transfer(const Tensor& coded, std::uint16_t frame_number) {
  if (config_.codec) {
    codec::quantize_frame(coded, quantized_);
    coder_.encode(quantized_, config_.codec_planes, stream_);
    packetizer_.packetize_codec(stream_, frame_number, wire_);
  } else {
    packetizer_.packetize(coded, frame_number, wire_);
  }

  // Account the transmit side first: every framed byte goes on the wire and
  // costs its lane time whether or not it survives the trip. This runs once
  // per ATTEMPT — a retransmit of the same frame pays the wire again.
  std::uint64_t wire_bytes = 0;
  for (const Packet& packet : wire_.packets) {
    wire_bytes += mipi_.send_packet(packet.size(), payload_size(packet));
  }

  injector_.apply(wire_);

  const std::int64_t height = coded.shape()[0];
  const std::int64_t width = coded.shape()[1];
  return {config_.codec
              ? depacketizer_.depacketize_codec(wire_, height, width, config_.codec_planes)
              : depacketizer_.depacketize(wire_, height, width),
          wire_bytes};
}

}  // namespace snappix::transport

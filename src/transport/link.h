// FramedLink: one camera's end-to-end framed MIPI transport.
//
// transfer() pushes a coded frame through the whole wire model:
//
//   CodedFramePacketizer ──► MipiCsi2Link accounting ──► FaultInjector ──►
//   (FS + row packets + FE)  (bytes, lanes, wire time)   (seeded corruption)
//   ──► Depacketizer ──► TransferResult {outcome, reassembled tensor, counters}
//
// Byte/time accounting happens BEFORE fault injection: a dropped or corrupted
// packet still cost its transmit energy — loss happens in transit, not at the
// transmitter. With all fault rates zero the reassembled tensor is
// bit-identical to the input (float payloads round-trip exactly), which is
// the invariant the framed serving path is pinned to.
//
// A FramedLink is owned by one camera and driven from that camera's producer
// thread only; its Rng stream makes the fault sequence a pure function of
// FaultConfig::seed. The link keeps its wire frame, plane chunks and codec
// scratch across transfers, so a steady transfer allocates only the tensor
// it returns, however many planes or rows the frame has.
#pragma once

#include <cstdint>

#include "sensor/mipi.h"
#include "transport/csi2.h"
#include "transport/fault.h"

namespace snappix::transport {

struct LinkConfig {
  sensor::MipiConfig mipi;  // lanes + byte clock; drives the wire-time model
  FaultConfig faults;       // all-zero rates = clean link
  int virtual_channel = 0;  // stamped into every packet's DI (in [0, 3])
  // Entropy-coded wire mode: frames travel as quantized bit-plane chunks
  // (codec/bitplane.h) instead of raw float32 rows. `codec_planes` > 0
  // truncates the stream at the transmitter — only the top planes are put on
  // the wire and decoded (0 = full depth). Adjustable per frame through
  // FramedLink::set_codec_planes (e.g. classify shallow, reconstruct deep).
  bool codec = false;
  int codec_planes = 0;
};

// Throws std::invalid_argument when the link cannot exist: fault rates
// outside [0, 1] or non-finite, zero (or > 8) MIPI lanes, a non-positive or
// non-finite byte clock, a virtual channel outside [0, 3], or a codec plane
// cap exceeding the stream's total planes (codec::kMaxBitplanes). The single
// validation site for FramedLink construction and every config that embeds a
// LinkConfig.
void validate(const LinkConfig& config);

// One transfer's receiver-side view: the depacketizer's record of the frame,
// plus the framed bytes transmitted for it.
struct TransferResult : RxFrame {
  std::uint64_t wire_bytes = 0;
};

class FramedLink {
 public:
  explicit FramedLink(const LinkConfig& config);

  // Serializes, accounts, (maybe) corrupts, and reassembles one coded frame.
  TransferResult transfer(const Tensor& coded, std::uint16_t frame_number);

  // Adjusts the codec-mode plane cap for subsequent transfers (0 = full
  // depth). No-op semantics on a raw (non-codec) link; retransmits of a
  // frame reuse whatever cap is current, so callers set it before the first
  // attempt.
  void set_codec_planes(int planes);
  int codec_planes() const { return config_.codec_planes; }

  // Swaps the fault rates for subsequent transfers (validated; the
  // injector's Rng stream continues — see FaultInjector::set_rates). Drives
  // the chaos harness's burst-noise episodes and link flapping.
  void set_faults(const FaultConfig& faults);

  // Byte / lane / wire-time accounting for everything transferred so far.
  const sensor::MipiCsi2Link& mipi() const { return mipi_; }
  // Injected-fault ground truth (what the tests compare observed drops to).
  const FaultInjector& injector() const { return injector_; }
  const LinkConfig& config() const { return config_; }

 private:
  LinkConfig config_;
  CodedFramePacketizer packetizer_;
  sensor::MipiCsi2Link mipi_;
  FaultInjector injector_;
  Depacketizer depacketizer_;
  // Transmit-side buffers, reused by every transfer.
  codec::QuantizedFrame quantized_;
  codec::BitplaneCoder coder_;
  codec::PlaneStream stream_;
  WireFrame wire_;
};

}  // namespace snappix::transport

// Fingerprints every byte the edge path produces: CE-encoded and normalized
// frames (library and camera), quantized frames, bit-plane chunks at full
// depth and at depths 3 and 8, codec and RAW32 packet bytes, depacketized
// tensors, whole clean and lossy FramedLink transfers, header ECC codes and
// decodes over a stride of all 2^24 headers, and CRCs. One FNV-1a line per
// (geometry, stage). Inputs are seeded uniform clips and patterns, and every
// stage is integer or exact IEEE arithmetic (no libm), so the output is a
// property of the code, not of the host; scripts/ci.sh diffs it against the
// committed bench/wire_bits.golden, and two builds compare with a plain diff:
//
//   diff <(parent/build/bench_wire_bits) <(build/bench_wire_bits)
#include <cstdint>
#include <cstdio>
#include <vector>

#include "ce/encode.h"
#include "ce/pattern.h"
#include "codec/bitplane.h"
#include "runtime/camera.h"
#include "transport/csi2.h"
#include "transport/link.h"
#include "util/rng.h"

namespace {

using namespace snappix;

class Fnv {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 1099511628211ULL;
    }
  }
  template <typename T>
  void value(T v) {
    bytes(&v, sizeof v);
  }
  void floats(const Tensor& t) { bytes(t.data().data(), t.data().size() * sizeof(float)); }
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

// A camera that encodes the clips it is handed: CameraSource's own encode.
class ClipCamera final : public runtime::CameraSource {
 public:
  explicit ClipCamera(runtime::PatternRef pattern) : CameraSource(0, std::move(pattern)) {}
  Tensor encode(const Tensor& clip) const { return encode_normalized(clip); }

 protected:
  runtime::Frame capture_frame() override { return runtime::Frame{}; }
};

void print(const char* geometry, const char* stage, const Fnv& fnv) {
  std::printf("%-12s %-20s %016llx\n", geometry, stage,
              static_cast<unsigned long long>(fnv.hash()));
}

void hash_wire(Fnv& fnv, const transport::WireFrame& wire) {
  fnv.value(wire.packets.size());
  for (const transport::Packet& packet : wire.packets) {
    fnv.value(packet.size());
    fnv.bytes(packet.data(), packet.size());
  }
}

void hash_transfer(Fnv& fnv, const transport::TransferResult& r) {
  fnv.value(static_cast<int>(r.outcome));
  fnv.floats(r.coded);
  fnv.value(r.wire_bytes);
  fnv.value(r.crc_errors);
  fnv.value(r.corrected_headers);
  fnv.value(r.lost_packets);
  fnv.value(r.decoded_planes);
  fnv.value(r.total_planes);
}

constexpr int kDepths[] = {0, 3, 8};  // 0 = full depth
const char* const kDepthNames[] = {"full", "d3", "d8"};

void run_geometry(std::int64_t image, int slots, int tile, int patterns, std::uint64_t seed) {
  char geometry[32];
  std::snprintf(geometry, sizeof geometry, "%lldx%lld_T%d", static_cast<long long>(image),
                static_cast<long long>(image), slots);
  Rng rng(seed);
  Fnv ce_raw, ce_norm, camera, quantized, rx_raw32, raw32_packets;
  Fnv planes[3], codec_packets[3], decoded[3], rx_codec[3];
  Fnv link_raw, link_codec[3], link_lossy;

  transport::LinkConfig raw_cfg;
  transport::FramedLink raw_link(raw_cfg);
  transport::LinkConfig lossy_cfg;
  lossy_cfg.codec = true;
  lossy_cfg.faults.bit_flip_per_byte = 0.002;
  lossy_cfg.faults.packet_drop_rate = 0.02;
  lossy_cfg.faults.lane_stall_rate = 0.01;
  lossy_cfg.faults.seed = seed + 1;
  transport::FramedLink lossy_link(lossy_cfg);
  std::vector<transport::FramedLink> codec_links;
  codec_links.reserve(3);
  for (const int depth : kDepths) {
    transport::LinkConfig cfg;
    cfg.codec = true;
    cfg.codec_planes = depth;
    codec_links.emplace_back(cfg);
  }
  const transport::CodedFramePacketizer packetizer(1);
  transport::Depacketizer depacketizer;

  std::uint16_t frame_number = 0;
  for (int p = 0; p < patterns; ++p) {
    // Every pattern family, including never-exposed pixels (p = 0.2).
    ce::CePattern pattern(slots, tile);
    switch (p % 4) {
      case 0:
        pattern = ce::CePattern::random(slots, tile, rng, 0.5F);
        break;
      case 1:
        pattern = ce::CePattern::random(slots, tile, rng, 0.2F);
        break;
      case 2:
        pattern = ce::CePattern::sparse_random(slots, tile, rng);
        break;
      default:
        pattern = p % 8 == 3 ? ce::CePattern::long_exposure(slots, tile)
                             : ce::CePattern::short_exposure(slots, tile, 4);
        break;
    }
    const runtime::PatternRef ref = runtime::make_pattern_ref(pattern);
    const ClipCamera cam(ref);
    // Scene-like clips in [0, 1), signed clips, and an all-zero clip.
    const Shape clip_shape{slots, image, image};
    std::vector<Tensor> clips = {Tensor::rand_uniform(clip_shape, rng),
                                 Tensor::rand_uniform(clip_shape, rng, -1.0F, 1.0F)};
    if (p == 0) {
      clips.push_back(Tensor::zeros(clip_shape));
    }
    for (const Tensor& clip : clips) {
      const Tensor batched =
          Tensor::from_vector(clip.data(), Shape{1, slots, image, image});
      const Tensor coded_raw = ce::ce_encode(batched, pattern);
      const Tensor coded_norm = ce::normalize_by_exposure(coded_raw, pattern);
      const Tensor frame = Tensor::from_vector(coded_norm.data(), Shape{image, image});
      ce_raw.floats(coded_raw);
      ce_norm.floats(coded_norm);
      camera.floats(cam.encode(clip));

      const codec::QuantizedFrame q = codec::quantize_frame(frame);
      quantized.value(q.scale);
      quantized.bytes(q.values.data(), q.values.size() * sizeof(std::int16_t));

      ++frame_number;
      const transport::WireFrame raw_wire = packetizer.packetize(frame, frame_number);
      hash_wire(raw32_packets, raw_wire);
      const transport::RxFrame raw_rx = depacketizer.depacketize(raw_wire, image, image);
      rx_raw32.value(static_cast<int>(raw_rx.outcome));
      rx_raw32.floats(raw_rx.coded);
      hash_transfer(link_raw, raw_link.transfer(frame, frame_number));
      hash_transfer(link_lossy, lossy_link.transfer(frame, frame_number));

      for (int d = 0; d < 3; ++d) {
        const codec::PlaneStream stream = codec::encode_bitplanes(q, kDepths[d]);
        planes[d].value(stream.plane_count);
        planes[d].value(stream.planes.size());
        for (const std::vector<std::uint8_t>& chunk : stream.planes) {
          planes[d].value(chunk.size());
          planes[d].bytes(chunk.data(), chunk.size());
        }
        const codec::BitplaneDecode dec = codec::decode_bitplanes(stream, kDepths[d]);
        decoded[d].value(dec.decoded_planes);
        decoded[d].bytes(dec.frame.values.data(), dec.frame.values.size() * sizeof(std::int16_t));

        const transport::WireFrame wire =
            packetizer.packetize_codec(frame, frame_number, kDepths[d]);
        hash_wire(codec_packets[d], wire);
        const transport::RxFrame rx =
            depacketizer.depacketize_codec(wire, image, image, kDepths[d]);
        rx_codec[d].value(static_cast<int>(rx.outcome));
        rx_codec[d].value(rx.decoded_planes);
        rx_codec[d].value(rx.total_planes);
        rx_codec[d].floats(rx.coded);
        hash_transfer(link_codec[d],
                      codec_links[static_cast<std::size_t>(d)].transfer(frame, frame_number));
      }
    }
  }
  const transport::FaultStats& injected = lossy_link.injector().stats();
  link_lossy.value(injected.bits_flipped);
  link_lossy.value(injected.packets_dropped);
  link_lossy.value(injected.lane_stalls);

  print(geometry, "ce_encode", ce_raw);
  print(geometry, "ce_normalized", ce_norm);
  print(geometry, "camera_encode", camera);
  print(geometry, "quantized", quantized);
  char stage[32];
  for (int d = 0; d < 3; ++d) {
    std::snprintf(stage, sizeof stage, "planes_%s", kDepthNames[d]);
    print(geometry, stage, planes[d]);
    std::snprintf(stage, sizeof stage, "decoded_%s", kDepthNames[d]);
    print(geometry, stage, decoded[d]);
    std::snprintf(stage, sizeof stage, "codec_packets_%s", kDepthNames[d]);
    print(geometry, stage, codec_packets[d]);
    std::snprintf(stage, sizeof stage, "rx_codec_%s", kDepthNames[d]);
    print(geometry, stage, rx_codec[d]);
    std::snprintf(stage, sizeof stage, "link_codec_%s", kDepthNames[d]);
    print(geometry, stage, link_codec[d]);
  }
  print(geometry, "raw32_packets", raw32_packets);
  print(geometry, "rx_raw32", rx_raw32);
  print(geometry, "link_raw32", link_raw);
  print(geometry, "link_lossy", link_lossy);
}

// ECC over every 97th 24-bit header: the code, and the decode of the clean
// header, of each of its 30 single-bit flips and of one double flip.
void run_header_ecc() {
  Fnv codes, decodes;
  for (std::uint32_t h = 0; h < (1U << 24); h += 97) {
    const std::uint8_t ecc = transport::ecc_encode(h);
    codes.value(ecc);
    const auto decode = [&decodes](std::uint32_t header, std::uint8_t code) {
      const transport::EccDecode d = transport::ecc_decode(header, code);
      decodes.value(static_cast<int>(d.status));
      decodes.value(d.header24);
    };
    decode(h, ecc);
    for (int bit = 0; bit < 24; ++bit) {
      decode(h ^ (1U << bit), ecc);
    }
    for (int bit = 0; bit < 6; ++bit) {
      decode(h, static_cast<std::uint8_t>(ecc ^ (1U << bit)));
    }
    decode(h ^ (1U << (h % 24)) ^ (1U << ((h / 24 + 1) % 24)), ecc);
  }
  print("header", "ecc_encode", codes);
  print("header", "ecc_decode", decodes);
}

// CRC of every prefix length 0..1024 of a seeded buffer.
void run_crc() {
  Rng rng(99);
  std::vector<std::uint8_t> buffer(1024);
  for (std::uint8_t& b : buffer) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  Fnv crcs;
  for (std::size_t n = 0; n <= buffer.size(); ++n) {
    crcs.value(transport::crc16_ccitt(buffer.data(), n));
  }
  print("payload", "crc16", crcs);
}

}  // namespace

int main() {
  NoGradGuard guard;
  run_geometry(16, 8, 8, 64, 401);
  run_geometry(32, 16, 8, 24, 402);
  run_geometry(8, 4, 4, 32, 403);
  run_header_ecc();
  run_crc();
  return 0;
}

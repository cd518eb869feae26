// Entropy-coded wire tier frontier (BENCH_codec.json).
//
// The bit-plane codec (src/codec/bitplane.h) replaces raw float32 rows on the
// framed MIPI link with quantized, entropy-coded, truncatable plane streams.
// This bench measures what that buys and gates the claims:
//
//   1. RATE-DISTORTION FRONTIER: for every decode depth d, the bytes-on-wire
//      ratio (codec framed bytes / raw float32 framed bytes), the top-1
//      agreement of classification from d planes against full-fidelity
//      classification, and the REC PSNR against ground-truth clips.
//   2. FULL-DEPTH BIT-IDENTITY (gated): the framed codec path at full depth
//      reproduces dequantize(quantize(x)) — the unframed coded measurements —
//      bit for bit, wire headers, CRCs and all.
//   3. RATE POINT (gated): the shallowest depth whose top-1 agreement is
//      >= 0.98 must put <= 0.5x the raw framed bytes on the wire.
//   4. PROGRESSIVE SERVING (gated): a served fleet whose classify cameras ride
//      at the rate-point depth (kReconstruct at full depth) produces results
//      bit-identical to an in-memory reference that pre-applies the same
//      quantize/truncate transform — truncation changes fidelity, never which
//      frames are served.
//
// `--quick` shrinks the streams for CI smoke runs.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.h"
#include "codec/bitplane.h"
#include "core/snappix.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "obs/metrics.h"
#include "runtime/camera.h"
#include "runtime/server.h"
#include "serving_fixtures.h"
#include "transport/csi2.h"
#include "transport/link.h"

namespace {

using namespace snappix;

constexpr int kImage = 16;
constexpr int kFrames = 8;
constexpr int kCameras = 8;

// What the codec wire delivers for a frame shipped at `planes` depth
// (0 = full): quantize, encode, depth-capped decode, dequantize.
Tensor wire_view(const Tensor& frame, int planes) {
  const codec::QuantizedFrame q = codec::quantize_frame(frame);
  const codec::PlaneStream stream = codec::encode_bitplanes(q);
  return codec::dequantize_frame(codec::decode_bitplanes(stream, planes).frame);
}

struct DepthPoint {
  int planes = 0;
  double wire_ratio = 0.0;      // codec framed bytes / raw float32 framed bytes
  double top1_agreement = 0.0;  // vs full-fidelity classification
  double rec_psnr_db = 0.0;     // reconstruction vs ground-truth clips
};

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const std::int64_t eval_frames = quick ? 32 : 96;
  const std::int64_t serve_frames = quick ? 20 : 60;

  bench::print_header("Entropy-coded wire tier: bit-plane codec rate-distortion frontier");
  std::printf("geometry %dx%d, T=%d; %lld eval frames, %d cameras x %lld served frames\n",
              kImage, kImage, kFrames, static_cast<long long>(eval_frames), kCameras,
              static_cast<long long>(serve_frames));

  core::SnapPixConfig cfg;
  cfg.image = kImage;
  cfg.frames = kFrames;
  cfg.num_classes = 6;
  cfg.seed = 42;
  core::SnapPixSystem system(cfg);
  Rng pattern_rng(7);
  system.set_pattern(ce::CePattern::random(kFrames, cfg.tile, pattern_rng, 0.5F));

  NoGradGuard guard;

  // --- ground-truth clips and their coded measurements -----------------------
  data::SceneConfig scene;
  scene.frames = kFrames;
  scene.height = kImage;
  scene.width = kImage;
  scene.num_classes = 6;
  data::SyntheticVideoGenerator generator(scene);
  Rng scene_rng(31337);
  std::vector<float> clips(static_cast<std::size_t>(eval_frames) * kFrames * kImage * kImage);
  for (std::int64_t i = 0; i < eval_frames; ++i) {
    const data::VideoSample sample = generator.sample(scene_rng);
    std::copy(sample.video.data().begin(), sample.video.data().end(),
              clips.begin() + i * kFrames * kImage * kImage);
  }
  const Tensor videos =
      Tensor::from_vector(std::move(clips), Shape{eval_frames, kFrames, kImage, kImage});
  const Tensor eval_coded = system.encode(videos);
  const std::vector<std::int64_t> full_pred = system.classify_coded(eval_coded);

  // --- full-depth bit-identity through the framed codec wire ------------------
  const transport::CodedFramePacketizer packetizer(0);
  const transport::Depacketizer depacketizer;
  bool full_depth_identical = true;
  std::uint64_t raw_framed_bytes = 0;
  int max_depth = 0;
  std::vector<Tensor> eval_slices;
  for (std::int64_t i = 0; i < eval_frames; ++i) {
    std::vector<float> one(static_cast<std::size_t>(kImage) * kImage);
    std::copy(eval_coded.data().begin() + i * kImage * kImage,
              eval_coded.data().begin() + (i + 1) * kImage * kImage, one.begin());
    eval_slices.push_back(Tensor::from_vector(std::move(one), Shape{kImage, kImage}));
    const Tensor& frame = eval_slices.back();
    raw_framed_bytes += packetizer.packetize(frame, static_cast<std::uint16_t>(i)).total_bytes();
    const transport::WireFrame wire =
        packetizer.packetize_codec(frame, static_cast<std::uint16_t>(i));
    const transport::RxCodecFrame rx = depacketizer.depacketize_codec(wire, kImage, kImage);
    const Tensor reference = wire_view(frame, 0);
    full_depth_identical &= rx.outcome == transport::RxOutcome::kOk &&
                            std::memcmp(rx.coded.data().data(), reference.data().data(),
                                        reference.data().size() * sizeof(float)) == 0;
    max_depth = std::max(max_depth, static_cast<int>(rx.total_planes));
  }
  std::printf("full-depth framed decode bit-identical to in-memory quantize: %s "
              "(deepest stream %d planes)\n",
              full_depth_identical ? "yes" : "NO", max_depth);

  // --- per-depth frontier: wire ratio, top-1 agreement, REC PSNR --------------
  std::vector<DepthPoint> frontier;
  for (int depth = 1; depth <= max_depth; ++depth) {
    DepthPoint point;
    point.planes = depth;
    std::uint64_t codec_bytes = 0;
    std::vector<float> truncated(static_cast<std::size_t>(eval_frames) * kImage * kImage);
    for (std::int64_t i = 0; i < eval_frames; ++i) {
      const Tensor& frame = eval_slices[static_cast<std::size_t>(i)];
      codec_bytes +=
          packetizer.packetize_codec(frame, static_cast<std::uint16_t>(i), depth).total_bytes();
      const Tensor view = wire_view(frame, depth);
      std::copy(view.data().begin(), view.data().end(),
                truncated.begin() + i * kImage * kImage);
    }
    const Tensor truncated_coded =
        Tensor::from_vector(std::move(truncated), Shape{eval_frames, kImage, kImage});
    const std::vector<std::int64_t> pred = system.classify_coded(truncated_coded);
    std::size_t agree = 0;
    for (std::size_t i = 0; i < pred.size(); ++i) {
      agree += pred[i] == full_pred[i] ? 1U : 0U;
    }
    point.top1_agreement = static_cast<double>(agree) / static_cast<double>(pred.size());
    point.rec_psnr_db =
        static_cast<double>(eval::psnr_db(system.reconstruct_coded(truncated_coded), videos));
    point.wire_ratio = raw_framed_bytes > 0
                           ? static_cast<double>(codec_bytes) / static_cast<double>(raw_framed_bytes)
                           : 0.0;
    frontier.push_back(point);
    std::printf("  depth %2d: wire %.3fx raw   top-1 agreement %.4f   REC PSNR %.2f dB\n",
                depth, point.wire_ratio, point.top1_agreement, point.rec_psnr_db);
  }

  // --- rate point: shallowest depth with agreement >= 0.98 --------------------
  const DepthPoint* rate_point = nullptr;
  for (const DepthPoint& point : frontier) {
    if (point.top1_agreement >= 0.98) {
      rate_point = &point;
      break;
    }
  }
  const bool rate_point_exists = rate_point != nullptr;
  const bool rate_point_cheap = rate_point_exists && rate_point->wire_ratio <= 0.5;
  bench::print_rule();
  if (rate_point_exists) {
    std::printf("rate point: %d planes at %.3fx raw framed bytes (gates: agreement >= 0.98, "
                "ratio <= 0.5)\n",
                rate_point->planes, rate_point->wire_ratio);
  } else {
    std::printf("rate point: NONE — no truncated depth reached 0.98 top-1 agreement\n");
  }

  // --- progressive serving: codec fleet vs pre-truncated in-memory reference --
  const int serve_depth = rate_point_exists ? rate_point->planes : max_depth;
  std::vector<std::vector<Tensor>> streams(kCameras);
  std::vector<std::vector<std::int64_t>> labels(kCameras);
  for (int cam = 0; cam < kCameras; ++cam) {
    data::SceneConfig cam_scene = scene;
    cam_scene.speed = 1.0F + 0.2F * static_cast<float>(cam % 4);
    runtime::SyntheticCameraSource source(cam, cam_scene, system.pattern(),
                                          1000 + static_cast<std::uint64_t>(cam));
    for (std::int64_t f = 0; f < serve_frames; ++f) {
      runtime::Frame frame = source.next_frame();
      streams[static_cast<std::size_t>(cam)].push_back(std::move(frame.coded));
      labels[static_cast<std::size_t>(cam)].push_back(frame.label);
    }
  }

  const auto run_fleet = [&](bool codec_framed) {
    runtime::ServerConfig server_cfg;
    server_cfg.batch.max_batch = kCameras;
    server_cfg.classify_codec_planes = serve_depth;
    runtime::InferenceServer server(system, server_cfg);
    for (int cam = 0; cam < kCameras; ++cam) {
      const bool reconstruct = cam >= kCameras - 2;
      std::vector<Tensor> stream;
      for (const Tensor& frame : streams[static_cast<std::size_t>(cam)]) {
        stream.push_back(codec_framed ? frame
                                      : wire_view(frame, reconstruct ? 0 : serve_depth));
      }
      auto camera = std::make_unique<runtime::ReplayCameraSource>(
          cam, system.pattern(), std::move(stream), labels[static_cast<std::size_t>(cam)]);
      if (reconstruct) {
        camera->set_task(runtime::Task::kReconstruct);
      }
      if (codec_framed) {
        transport::LinkConfig link;
        link.codec = true;
        link.mipi.lanes = 2;
        camera->set_framed(link);
      }
      server.add_camera(std::move(camera));
    }
    auto results = server.run(serve_frames);
    return std::make_tuple(std::move(results), server.summary(),
                           obs::to_json(server.metrics_snapshot()));
  };

  const auto [reference_results, reference_summary, reference_metrics] = run_fleet(false);
  const auto [served_results, served_summary, served_metrics] = run_fleet(true);
  (void)reference_summary;
  (void)reference_metrics;
  const bool serving_identical =
      fixtures::first_divergence(reference_results, served_results).empty();
  const bool serving_clean =
      served_summary.transport.framed_frames == served_summary.frames &&
      served_summary.transport.codec_frames == served_summary.transport.framed_frames &&
      served_summary.transport.ok_frames == served_summary.transport.framed_frames &&
      served_summary.transport.dropped_frames == 0;

  std::printf("\n[codec_served] classify depth %d, REC full depth\n%s", serve_depth,
              runtime::to_string(served_summary).c_str());
  std::printf("progressive serving bit-identical to pre-truncated reference: %s   "
              "transport clean: %s\n",
              serving_identical ? "yes" : "NO", serving_clean ? "yes" : "NO");

  // --- artifact ---------------------------------------------------------------
  std::ofstream json("BENCH_codec.json");
  json << "{\n  \"image\": " << kImage << ",\n  \"slots\": " << kFrames
       << ",\n  \"eval_frames\": " << eval_frames
       << ",\n  \"max_depth\": " << max_depth
       << ",\n  \"raw_framed_bytes\": " << raw_framed_bytes << ",\n  \"frontier\": [\n";
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const DepthPoint& point = frontier[i];
    json << "    {\"planes\": " << point.planes << ", \"wire_ratio\": " << point.wire_ratio
         << ", \"top1_agreement\": " << point.top1_agreement
         << ", \"rec_psnr_db\": " << point.rec_psnr_db << "}"
         << (i + 1 < frontier.size() ? ",\n" : "\n");
  }
  json << "  ],\n  \"full_depth_bit_identical\": " << (full_depth_identical ? "true" : "false")
       << ",\n  \"agreement_gate\": 0.98,\n  \"ratio_gate\": 0.5"
       << ",\n  \"rate_point_planes\": " << (rate_point_exists ? rate_point->planes : 0)
       << ",\n  \"rate_point_wire_ratio\": "
       << (rate_point_exists ? rate_point->wire_ratio : 0.0)
       << ",\n  \"rate_point_within_gate\": " << (rate_point_cheap ? "true" : "false")
       << ",\n  \"serving\": {\"cameras\": " << kCameras
       << ", \"frames_per_camera\": " << serve_frames
       << ", \"classify_depth\": " << serve_depth
       << ", \"aggregate_fps\": " << served_summary.aggregate_fps
       << ", \"wire_bytes\": " << served_summary.wire_bytes
       << ", \"metrics\": " << served_metrics
       << ", \"bit_identical\": " << (serving_identical ? "true" : "false")
       << ", \"transport_clean\": " << (serving_clean ? "true" : "false") << "}\n}\n";
  json.close();
  std::printf("wrote BENCH_codec.json\n");

  if (!full_depth_identical) {
    std::printf("FAIL: full-depth framed codec decode diverged from the in-memory "
                "quantize round trip\n");
  }
  if (!rate_point_exists) {
    std::printf("FAIL: no truncated depth reached the 0.98 top-1 agreement gate\n");
  }
  if (rate_point_exists && !rate_point_cheap) {
    std::printf("FAIL: rate point %.3fx raw framed bytes, above the 0.5x gate\n",
                rate_point->wire_ratio);
  }
  if (!serving_identical) {
    std::printf("FAIL: progressive serving diverged bitwise from the pre-truncated "
                "reference fleet\n");
  }
  if (!serving_clean) {
    std::printf("FAIL: clean codec fleet reported transport errors or drops\n");
  }
  const bool ok = full_depth_identical && rate_point_exists && rate_point_cheap &&
                  serving_identical && serving_clean;
  return ok ? 0 : 1;
}

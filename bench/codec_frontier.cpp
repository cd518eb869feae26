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
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "codec/bitplane.h"
#include "core/snappix.h"
#include "eval/metrics.h"
#include "fleet.h"
#include "runtime/camera.h"
#include "runtime/server.h"
#include "serving_fixtures.h"
#include "transport/csi2.h"
#include "transport/link.h"

namespace {

using namespace snappix;

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
  bench::Gate gate;

  const core::SnapPixConfig cfg = bench::serving_config();
  const std::int64_t image = cfg.image;
  bench::print_header("Entropy-coded wire tier: bit-plane codec rate-distortion frontier");
  std::printf("geometry %lldx%lld, T=%d; %lld eval frames, %d cameras x %lld served frames\n",
              static_cast<long long>(image), static_cast<long long>(image), cfg.frames,
              static_cast<long long>(eval_frames), kCameras,
              static_cast<long long>(serve_frames));

  core::SnapPixSystem system(cfg);
  system.set_pattern(bench::fleet_pattern(cfg));

  NoGradGuard guard;

  // --- ground-truth clips and their coded measurements -----------------------
  const bench::EvalClips eval = bench::eval_clips(system, eval_frames);
  const std::vector<std::int64_t> full_pred = system.classify_coded(eval.coded);

  // --- full-depth bit-identity through the framed codec wire ------------------
  const transport::CodedFramePacketizer packetizer(0);
  transport::Depacketizer depacketizer;
  bool full_depth_identical = true;
  std::uint64_t raw_framed_bytes = 0;
  int max_depth = 0;
  std::vector<Tensor> eval_slices;
  for (std::int64_t i = 0; i < eval_frames; ++i) {
    std::vector<float> one(static_cast<std::size_t>(image * image));
    std::copy(eval.coded.data().begin() + i * image * image,
              eval.coded.data().begin() + (i + 1) * image * image, one.begin());
    eval_slices.push_back(Tensor::from_vector(std::move(one), Shape{image, image}));
    const Tensor& frame = eval_slices.back();
    raw_framed_bytes += packetizer.packetize(frame, static_cast<std::uint16_t>(i)).total_bytes();
    const transport::WireFrame wire =
        packetizer.packetize_codec(frame, static_cast<std::uint16_t>(i));
    const transport::RxFrame rx = depacketizer.depacketize_codec(wire, image, image);
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
    std::vector<float> truncated(static_cast<std::size_t>(eval_frames * image * image));
    for (std::int64_t i = 0; i < eval_frames; ++i) {
      const Tensor& frame = eval_slices[static_cast<std::size_t>(i)];
      codec_bytes +=
          packetizer.packetize_codec(frame, static_cast<std::uint16_t>(i), depth).total_bytes();
      const Tensor view = wire_view(frame, depth);
      std::copy(view.data().begin(), view.data().end(), truncated.begin() + i * image * image);
    }
    const Tensor truncated_coded =
        Tensor::from_vector(std::move(truncated), Shape{eval_frames, image, image});
    const std::vector<std::int64_t> pred = system.classify_coded(truncated_coded);
    std::size_t agree = 0;
    for (std::size_t i = 0; i < pred.size(); ++i) {
      agree += pred[i] == full_pred[i] ? 1U : 0U;
    }
    point.top1_agreement = static_cast<double>(agree) / static_cast<double>(pred.size());
    point.rec_psnr_db = static_cast<double>(
        eval::psnr_db(system.reconstruct_coded(truncated_coded), eval.videos));
    point.wire_ratio =
        raw_framed_bytes > 0
            ? static_cast<double>(codec_bytes) / static_cast<double>(raw_framed_bytes)
            : 0.0;
    frontier.push_back(point);
    std::printf("  depth %2d: wire %.3fx raw   top-1 agreement %.4f   REC PSNR %.2f dB\n",
                depth, point.wire_ratio, point.top1_agreement, point.rec_psnr_db);
  }

  // --- rate point: shallowest depth with agreement >= 0.98 --------------------
  const auto rate_point = std::find_if(frontier.begin(), frontier.end(), [](const DepthPoint& p) {
    return p.top1_agreement >= 0.98;
  });
  const bool rate_point_exists = rate_point != frontier.end();
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
  const std::vector<bench::RecordedStream> streams =
      bench::record_streams(cfg, {system.pattern_ref()}, 1000, kCameras, serve_frames);

  const auto run_fleet = [&](bool codec_framed) {
    runtime::ServerConfig server_cfg;
    server_cfg.batch.max_batch = kCameras;
    return bench::run_arm(
        system, server_cfg,
        [&](int cam) {
          const bool reconstruct = cam >= kCameras - 2;
          bench::RecordedStream stream = streams[static_cast<std::size_t>(cam)];
          if (!codec_framed) {
            for (Tensor& frame : stream.coded) {
              frame = wire_view(frame, reconstruct ? 0 : serve_depth);
            }
          }
          auto camera = bench::replay_camera(cam, system.pattern_ref(), stream);
          if (reconstruct) {
            camera->set_task(runtime::Task::kReconstruct);
          }
          camera->set_codec_planes(serve_depth);  // reconstruct frames ignore it
          if (codec_framed) {
            transport::LinkConfig link;
            link.codec = true;
            link.mipi.lanes = 2;
            camera->set_framed(link);
          }
          return camera;
        },
        kCameras, serve_frames);
  };

  const bench::ArmRun reference = run_fleet(false);
  const bench::ArmRun served = run_fleet(true);
  const runtime::RuntimeSummary& ss = served.summary;
  const bool serving_identical =
      fixtures::first_divergence(reference.results, served.results).empty();
  const bool serving_clean = ss.transport.framed_frames == ss.frames &&
                             ss.transport.codec_frames == ss.transport.framed_frames &&
                             ss.transport.ok_frames == ss.transport.framed_frames &&
                             ss.transport.dropped_frames == 0;

  std::printf("\n[codec_served] classify depth %d, REC full depth\n%s", serve_depth,
              runtime::to_string(ss).c_str());
  std::printf("progressive serving bit-identical to pre-truncated reference: %s   "
              "transport clean: %s\n",
              serving_identical ? "yes" : "NO", serving_clean ? "yes" : "NO");

  // --- artifact ---------------------------------------------------------------
  std::vector<std::string> rows;
  for (const DepthPoint& point : frontier) {
    rows.push_back(bench::JsonObject()
                       .add("planes", point.planes)
                       .add("wire_ratio", point.wire_ratio)
                       .add("top1_agreement", point.top1_agreement)
                       .add("rec_psnr_db", point.rec_psnr_db)
                       .str());
  }
  bench::JsonObject serving;
  serving.add("cameras", kCameras)
      .add("frames_per_camera", serve_frames)
      .add("classify_depth", serve_depth)
      .add("aggregate_fps", ss.aggregate_fps)
      .add("wire_bytes", ss.wire_bytes)
      .raw("metrics", served.metrics)
      .add("bit_identical", serving_identical)
      .add("transport_clean", serving_clean);
  bench::JsonObject()
      .add("image", image)
      .add("slots", cfg.frames)
      .add("eval_frames", eval_frames)
      .add("max_depth", max_depth)
      .add("raw_framed_bytes", raw_framed_bytes)
      .raw("frontier", bench::json_array(rows))
      .add("full_depth_bit_identical", full_depth_identical)
      .add("agreement_gate", 0.98)
      .add("ratio_gate", 0.5)
      .add("rate_point_planes", rate_point_exists ? rate_point->planes : 0)
      .add("rate_point_wire_ratio", rate_point_exists ? rate_point->wire_ratio : 0.0)
      .add("rate_point_within_gate", rate_point_cheap)
      .add("serving", serving)
      .write("BENCH_codec.json");

  gate(full_depth_identical,
       "full-depth framed codec decode diverged from the in-memory quantize round trip");
  gate(rate_point_exists, "no truncated depth reached the 0.98 top-1 agreement gate");
  gate(!rate_point_exists || rate_point_cheap,
       "rate point %.3fx raw framed bytes, above the 0.5x gate",
       rate_point_exists ? rate_point->wire_ratio : 0.0);
  gate(serving_identical,
       "progressive serving diverged bitwise from the pre-truncated reference fleet");
  gate(serving_clean, "clean codec fleet reported transport errors or drops");
  return gate.exit_code();
}

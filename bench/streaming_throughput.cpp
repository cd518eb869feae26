// Streaming-serving throughput: 8 simulated CE cameras against one server.
//
// Two arms over identical pre-coded frame streams (replay cameras, so the
// measurement is server throughput, not scene synthesis):
//
//   sequential       the naive serving path: one frame at a time through the
//                    tape-based SnapPixSystem::classify_logits_coded (batch 1)
//   runtime_batched  the InferenceServer with batch aggregation + the fused
//                    BatchedVitEngine
//
// The batched arm must (a) reach >= 3x the aggregate fps of the sequential
// arm and (b) produce bit-identical predictions to it — the fused engine
// replicates the tape ops' float semantics exactly, so batching is a pure
// latency/throughput trade, never an accuracy one.
//
// A third section benches the task-typed InferenceServer on a heterogeneous
// fleet: 8 cameras over 4 distinct CE patterns with an AR+REC task mix,
// served through the sharded pattern->engine cache. It reports cache hit
// rate / evictions / fps at two cache sizes (everything resident vs a
// 1-entry cache under thrash) and verifies both task heads stay
// bit-identical to the sequential tape paths.
//
// A fourth section benches SHARDED serving: the same heterogeneous fleet
// served by 4 consumer shards with work stealing versus the single-consumer
// arm above. Identity is gated unconditionally (shard count and steal
// interleaving must never change a bit); the >= 1.5x throughput gate is
// enforced only when the host has >= 4 hardware threads — shard workers are
// real parallelism, and on a 1-2 core runner the arm measures scheduling
// overhead, not scaling (same spirit as the regression floor below).
//
// A fifth section benches the FRAMED MIPI transport path: the heterogeneous
// fleet with every frame serialized into CSI-2-style packets (header + CRC +
// lane model, src/transport/) and reassembled server-side. At zero fault
// rate the framed arm must be bit-identical to the in-memory arm (gated);
// the framed byte overhead ratio (wire bytes / float32 payload bytes) is
// reported. A lossy sub-arm injects seeded packet drops under the kDrop
// policy and gates that the observed drop counters match the links'
// injected-fault ground truth exactly.
//
// A sixth section measures the ACCURACY-VS-THROUGHPUT FRONTIER of the int8
// serving tier (BENCH_int8.json): a calibrated QuantizedVitEngine against
// the bit-exact fp32 engine at a GEMM-heavy geometry — classify/REC
// throughput ratios, top-1 agreement (gated >= 0.98 always), REC PSNR delta
// against ground-truth clips, plus a mixed-precision served fleet whose fp32
// cameras are gated bit-identical to the all-fp32 arm. The >= 1.8x classify
// speedup gate binds only where the AVX2 int8 kernels compiled in.
//
// Writes BENCH_streaming.json, BENCH_pattern_cache.json, BENCH_sharded.json,
// BENCH_framed.json and BENCH_int8.json next to the working directory.
// `--quick` shrinks the streams for CI smoke runs.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_util.h"
#include "core/snappix.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "obs/metrics.h"
#include "runtime/camera.h"
#include "runtime/quant.h"
#include "runtime/server.h"
#include "serving_fixtures.h"
#include "tensor/gemm_s8.h"
#include "transport/link.h"

namespace {

using namespace snappix;

// Edge-node geometry: 16x16 thumbnails, T = 8 slots, 8x8 CE tile (2x2 ViT
// tokens) — the sensor-fleet operating point where per-frame serving
// overhead, not raw FLOPs, dominates the server bill.
constexpr int kStreamImage = 16;
constexpr int kStreamFrames = 8;
constexpr int kCameras = 8;
constexpr int kHeteroPatterns = 4;  // distinct CE patterns in the hetero fleet

struct RecordedStream {
  std::vector<Tensor> coded;  // (H, W) exposure-normalized frames
  std::vector<std::int64_t> labels;
};

struct ArmResult {
  std::string label;
  runtime::RuntimeSummary summary;
  runtime::FleetEnergyReport energy;
  std::string metrics;  // obs::to_json of the arm's final metrics snapshot
  std::vector<runtime::TaskResult> results;
};

data::SceneConfig camera_scene(int camera) {
  data::SceneConfig scene;
  scene.frames = kStreamFrames;
  scene.height = kStreamImage;
  scene.width = kStreamImage;
  scene.num_classes = 6;
  scene.speed = 1.0F + 0.2F * static_cast<float>(camera % 4);  // heterogeneous fleet
  return scene;
}

std::unique_ptr<runtime::ReplayCameraSource> make_camera(int id, const RecordedStream& stream,
                                                         const ce::CePattern& pattern) {
  return std::make_unique<runtime::ReplayCameraSource>(id, pattern, stream.coded,
                                                       stream.labels);
}

ArmResult run_runtime_arm(const std::string& label, const core::SnapPixSystem& system,
                          const std::vector<RecordedStream>& streams,
                          std::int64_t frames_per_camera, const runtime::ServerConfig& config) {
  runtime::InferenceServer server(system, config);
  for (int cam = 0; cam < kCameras; ++cam) {
    server.add_camera(make_camera(cam, streams[static_cast<std::size_t>(cam)], system.pattern()));
  }
  ArmResult arm;
  arm.label = label;
  arm.results = server.run(frames_per_camera);
  arm.summary = server.summary();
  arm.energy = server.fleet_energy(energy::EnergyModel{}, energy::WirelessTech::kPassiveWifi);
  arm.metrics = obs::to_json(server.metrics_snapshot());
  return arm;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const std::int64_t frames_per_camera = quick ? 40 : 150;

  bench::print_header("Streaming serving throughput: 8 CE cameras, one ViT server");
  std::printf("geometry %dx%d, T=%d; %d cameras x %lld frames\n", kStreamImage, kStreamImage,
              kStreamFrames, kCameras, static_cast<long long>(frames_per_camera));

  core::SnapPixConfig cfg;
  cfg.image = kStreamImage;
  cfg.frames = kStreamFrames;
  cfg.num_classes = 6;
  cfg.seed = 42;
  core::SnapPixSystem system(cfg);
  Rng pattern_rng(7);
  system.set_pattern(ce::CePattern::random(kStreamFrames, cfg.tile, pattern_rng, 0.5F));

  // Pre-code each camera's stream once; every arm replays the same bytes.
  std::vector<RecordedStream> streams;
  for (int cam = 0; cam < kCameras; ++cam) {
    runtime::SyntheticCameraSource source(cam, camera_scene(cam), system.pattern(),
                                          1000 + static_cast<std::uint64_t>(cam));
    RecordedStream stream;
    for (std::int64_t i = 0; i < frames_per_camera; ++i) {
      runtime::Frame frame = source.next_frame();
      stream.coded.push_back(std::move(frame.coded));
      stream.labels.push_back(frame.label);
    }
    streams.push_back(std::move(stream));
  }

  // --- arm 1: sequential single-camera path (tape framework, batch 1) -------
  ArmResult sequential;
  sequential.label = "sequential";
  std::vector<Tensor> sequential_logits;
  {
    NoGradGuard guard;
    runtime::RuntimeStats stats;
    stats.add_shard(0);
    const runtime::Clock::time_point t0 = runtime::Clock::now();
    for (int cam = 0; cam < kCameras; ++cam) {
      auto camera = make_camera(cam, streams[static_cast<std::size_t>(cam)], system.pattern());
      for (std::int64_t i = 0; i < frames_per_camera; ++i) {
        const runtime::Clock::time_point f0 = runtime::Clock::now();
        runtime::Frame frame = camera->next_frame();
        const Tensor one = Tensor::from_vector(
            frame.coded.data(), Shape{1, frame.coded.shape()[0], frame.coded.shape()[1]});
        const runtime::Clock::time_point i0 = runtime::Clock::now();
        const Tensor logits = system.classify_logits_coded(one);
        const double infer_s =
            std::chrono::duration<double>(runtime::Clock::now() - i0).count();
        const auto predicted = argmax_last_axis(logits)[0];
        sequential_logits.push_back(logits);
        stats.record_batch(/*shard=*/0, frame.task, frame.precision, 1, infer_s,
                           runtime::FlushReason::kMaxBatch);
        stats.record_frame_done(
            frame.raw_bytes, frame.wire_bytes,
            std::chrono::duration<double>(runtime::Clock::now() - f0).count(), frame.qos);
        runtime::TaskResult result;
        result.camera_id = cam;
        result.sequence = frame.sequence;
        result.task = frame.task;
        result.pattern_id = frame.pattern_id;
        result.predicted = predicted;
        result.label = frame.label;
        sequential.results.push_back(std::move(result));
      }
    }
    const double wall =
        std::chrono::duration<double>(runtime::Clock::now() - t0).count();
    sequential.summary = stats.summary(wall);
    sequential.energy = stats.fleet_energy(energy::EnergyModel{},
                                           static_cast<std::int64_t>(kStreamImage) * kStreamImage,
                                           kStreamFrames, energy::WirelessTech::kPassiveWifi);
    sequential.metrics = obs::to_json(stats.registry().snapshot());
  }

  // --- arm 2: InferenceServer, batching enabled (fused engine) -------------
  runtime::ServerConfig batched_cfg;
  batched_cfg.batch.max_batch = kCameras;
  batched_cfg.batch.max_delay = std::chrono::microseconds(2000);
  const ArmResult runtime_batched =
      run_runtime_arm("runtime_batched", system, streams, frames_per_camera, batched_cfg);

  // --- verification: batched serving is bit-identical to sequential --------
  const bool identical_predictions =
      fixtures::first_divergence(sequential.results, runtime_batched.results).empty();
  // Logit-level bitwise check: the fused engine vs the tape framework over
  // every recorded frame, served as full cross-camera batches.
  bool identical_logits = true;
  {
    runtime::BatchedVitEngine engine(*system.classifier(), kCameras);
    std::size_t frame_index = 0;
    for (std::int64_t i = 0; i < frames_per_camera && identical_logits; ++i) {
      std::vector<runtime::Frame> batch;
      for (int cam = 0; cam < kCameras; ++cam) {
        runtime::Frame frame;
        frame.coded = streams[static_cast<std::size_t>(cam)].coded[static_cast<std::size_t>(i)];
        batch.push_back(std::move(frame));
      }
      const Tensor coded = runtime::BatchAggregator::stack_coded(batch);
      const Tensor batched_logits = engine.classify_logits(coded);
      for (int cam = 0; cam < kCameras; ++cam) {
        const Tensor& single = sequential_logits[static_cast<std::size_t>(cam) *
                                                     static_cast<std::size_t>(frames_per_camera) +
                                                 static_cast<std::size_t>(i)];
        for (std::int64_t c = 0; c < cfg.num_classes; ++c) {
          identical_logits &=
              single.data()[static_cast<std::size_t>(c)] ==
              batched_logits.data()[static_cast<std::size_t>(cam * cfg.num_classes + c)];
        }
      }
      ++frame_index;
    }
    (void)frame_index;
  }

  const std::vector<const ArmResult*> arms = {&sequential, &runtime_batched};
  for (const ArmResult* arm : arms) {
    std::printf("\n[%s]\n%s", arm->label.c_str(), runtime::to_string(arm->summary).c_str());
    std::printf("  fleet energy: conventional %.3f J vs snappix %.3f J (%.1fx)\n",
                arm->energy.conventional_j, arm->energy.snappix_j,
                arm->energy.saving_factor);
  }

  const double speedup_vs_sequential =
      runtime_batched.summary.aggregate_fps / sequential.summary.aggregate_fps;
  bench::print_rule();
  std::printf("batched vs sequential: %.2fx\n", speedup_vs_sequential);
  std::printf("bit-identical predictions: %s   bit-identical logits: %s\n",
              identical_predictions ? "yes" : "NO", identical_logits ? "yes" : "NO");

  std::ofstream json("BENCH_streaming.json");
  json << "{\n  \"cameras\": " << kCameras << ",\n  \"frames_per_camera\": "
       << frames_per_camera << ",\n  \"image\": " << kStreamImage
       << ",\n  \"slots\": " << kStreamFrames << ",\n  \"arms\": [\n";
  for (std::size_t i = 0; i < arms.size(); ++i) {
    json << "    " << runtime::to_json(arms[i]->summary, arms[i]->energy, arms[i]->label)
         << (i + 1 < arms.size() ? ",\n" : "\n");
  }
  json << "  ],\n  \"metrics\": {";
  for (std::size_t i = 0; i < arms.size(); ++i) {
    json << (i > 0 ? ", " : "") << "\"" << arms[i]->label << "\": " << arms[i]->metrics;
  }
  json << "},\n  \"speedup_batched_vs_sequential\": " << speedup_vs_sequential
       << ",\n  \"bit_identical_predictions\": " << (identical_predictions ? "true" : "false")
       << ",\n  \"bit_identical_logits\": " << (identical_logits ? "true" : "false") << "\n}\n";
  json.close();
  std::printf("wrote BENCH_streaming.json\n");

  // --- heterogeneous fleet: 4 patterns, AR+REC mix, pattern->engine cache ---
  bench::print_rule();
  std::printf("heterogeneous fleet: %d cameras x %d patterns, AR+REC mix\n", kCameras,
              kHeteroPatterns);
  const std::int64_t hetero_frames = quick ? 25 : 100;

  std::vector<runtime::PatternRef> patterns;
  {
    Rng hetero_rng(19);
    for (int p = 0; p < kHeteroPatterns; ++p) {
      patterns.push_back(runtime::make_pattern_ref(
          ce::CePattern::random(kStreamFrames, cfg.tile, hetero_rng, 0.5F)));
    }
  }
  // Camera c uses pattern c % 4; the last two cameras request reconstruction.
  std::vector<RecordedStream> hetero_streams;
  for (int cam = 0; cam < kCameras; ++cam) {
    runtime::SyntheticCameraSource source(cam, camera_scene(cam),
                                          patterns[static_cast<std::size_t>(cam % kHeteroPatterns)],
                                          2000 + static_cast<std::uint64_t>(cam));
    RecordedStream stream;
    for (std::int64_t i = 0; i < hetero_frames; ++i) {
      runtime::Frame frame = source.next_frame();
      stream.coded.push_back(std::move(frame.coded));
      stream.labels.push_back(frame.label);
    }
    hetero_streams.push_back(std::move(stream));
  }

  // The ONE definition of the heterogeneous fleet's shape (pattern mix +
  // AR/REC task split), shared by the cache, sharded, and framed arms so
  // their bit-identity gates always compare the same fleet.
  const auto make_hetero_camera = [&](int cam) {
    auto camera = std::make_unique<runtime::ReplayCameraSource>(
        cam, patterns[static_cast<std::size_t>(cam % kHeteroPatterns)],
        hetero_streams[static_cast<std::size_t>(cam)].coded,
        hetero_streams[static_cast<std::size_t>(cam)].labels);
    if (cam >= kCameras - 2) {
      camera->set_task(runtime::Task::kReconstruct);
    }
    return camera;
  };

  const auto run_hetero = [&](const char* label, const runtime::EngineCacheConfig& cache_cfg,
                              std::int64_t frames, std::size_t shards = 1) {
    runtime::ServerConfig server_cfg;
    server_cfg.batch.max_batch = kCameras;
    server_cfg.batch.max_delay = std::chrono::microseconds(2000);
    server_cfg.cache = cache_cfg;
    server_cfg.shards = shards;
    runtime::InferenceServer server(system, server_cfg);
    for (int cam = 0; cam < kCameras; ++cam) {
      server.add_camera(make_hetero_camera(cam));
    }
    auto results = server.run(frames);
    auto summary = server.summary();
    std::printf("\n[%s] consumer_shards=%zu cache_shards=%zu capacity/shard=%zu\n%s", label,
                shards, cache_cfg.shards, cache_cfg.capacity_per_shard,
                runtime::to_string(summary).c_str());
    return std::make_tuple(std::move(results), summary,
                           obs::to_json(server.metrics_snapshot()));
  };

  // All four patterns resident: every batch after first touch is a hit.
  runtime::EngineCacheConfig roomy;
  roomy.shards = 2;
  roomy.capacity_per_shard = 4;
  auto [hetero_results, hetero_summary, hetero_metrics] =
      run_hetero("pattern_cache_resident", roomy, hetero_frames);
  // One-entry cache: pattern alternation thrashes, counting evictions.
  runtime::EngineCacheConfig tiny;
  tiny.shards = 1;
  tiny.capacity_per_shard = 1;
  auto [pressure_results, pressure_summary, pressure_metrics] =
      run_hetero("pattern_cache_pressure", tiny, quick ? 10 : 25);
  (void)pressure_results;
  (void)pressure_metrics;

  // Verify both task heads against the sequential tape paths, per camera.
  bool hetero_identical = true;
  {
    NoGradGuard guard;
    std::size_t idx = 0;
    for (int cam = 0; cam < kCameras && hetero_identical; ++cam) {
      const auto& stream = hetero_streams[static_cast<std::size_t>(cam)];
      for (std::int64_t f = 0; f < hetero_frames && hetero_identical; ++f, ++idx) {
        const Tensor& coded = stream.coded[static_cast<std::size_t>(
            f % static_cast<std::int64_t>(stream.coded.size()))];
        const Tensor one =
            Tensor::from_vector(coded.data(), Shape{1, coded.shape()[0], coded.shape()[1]});
        const auto& r = hetero_results[idx];
        hetero_identical &= r.camera_id == cam && r.sequence == f;
        if (r.task == runtime::Task::kClassify) {
          hetero_identical &= r.predicted == system.classify_coded(one)[0];
        } else {
          const Tensor expected = system.reconstruct_coded(one);
          const auto& actual = r.reconstruction.data();
          hetero_identical &= actual.size() == expected.data().size();
          for (std::size_t v = 0; hetero_identical && v < actual.size(); ++v) {
            hetero_identical &= actual[v] == expected.data()[v];
          }
        }
      }
    }
  }

  const bool cache_hits_nonzero = hetero_summary.cache_hits > 0;
  const bool pressure_evicted = pressure_summary.cache_evictions > 0;
  std::printf("\nhetero bit-identical (AR+REC): %s   cache hits: %llu (rate %.2f)   "
              "pressure evictions: %llu\n",
              hetero_identical ? "yes" : "NO",
              static_cast<unsigned long long>(hetero_summary.cache_hits),
              hetero_summary.cache_hit_rate,
              static_cast<unsigned long long>(pressure_summary.cache_evictions));

  {
    std::ofstream cache_json("BENCH_pattern_cache.json");
    const auto arm_json = [](const runtime::RuntimeSummary& s,
                             const runtime::EngineCacheConfig& c) {
      std::string out = "{\"shards\": " + std::to_string(c.shards) +
                        ", \"capacity_per_shard\": " + std::to_string(c.capacity_per_shard) +
                        ", \"frames\": " + std::to_string(s.frames) +
                        ", \"classify_frames\": " + std::to_string(s.classify_frames) +
                        ", \"reconstruct_frames\": " + std::to_string(s.reconstruct_frames) +
                        ", \"aggregate_fps\": " + std::to_string(s.aggregate_fps) +
                        ", \"mean_batch_size\": " + std::to_string(s.mean_batch_size) +
                        ", \"cache_hits\": " + std::to_string(s.cache_hits) +
                        ", \"cache_misses\": " + std::to_string(s.cache_misses) +
                        ", \"cache_evictions\": " + std::to_string(s.cache_evictions) +
                        ", \"cache_hit_rate\": " + std::to_string(s.cache_hit_rate) + "}";
      return out;
    };
    cache_json << "{\n  \"cameras\": " << kCameras
               << ",\n  \"patterns\": " << kHeteroPatterns
               << ",\n  \"frames_per_camera\": " << hetero_frames
               << ",\n  \"task_mix\": \"" << (kCameras - 2) << " classify + 2 reconstruct\""
               << ",\n  \"resident\": " << arm_json(hetero_summary, roomy)
               << ",\n  \"pressure\": " << arm_json(pressure_summary, tiny)
               << ",\n  \"bit_identical\": " << (hetero_identical ? "true" : "false")
               << "\n}\n";
  }
  std::printf("wrote BENCH_pattern_cache.json\n");

  // --- sharded serving: 4 consumer shards + work stealing vs 1 consumer ----
  bench::print_rule();
  const std::size_t kShards = 4;
  const unsigned hw_threads = std::max(1U, std::thread::hardware_concurrency());
  std::printf("sharded serving: %zu consumer shards (work stealing) vs single consumer, "
              "%u hardware threads\n", kShards, hw_threads);
  // Same fleet, same cache geometry, same batch policy — the only variable is
  // the consumer topology, so the fps ratio isolates shard scaling.
  auto [sharded_results, sharded_summary, sharded_metrics] =
      run_hetero("sharded_x4", roomy, hetero_frames, kShards);

  const bool sharded_identical =
      fixtures::first_divergence(hetero_results, sharded_results).empty();
  const double sharded_speedup =
      hetero_summary.aggregate_fps > 0.0
          ? sharded_summary.aggregate_fps / hetero_summary.aggregate_fps
          : 0.0;
  // The 1.5x gate measures parallel scaling, so it only binds where the
  // shards can actually run in parallel; below 4 hardware threads the arm
  // still gates identity and reports the measured ratio.
  const bool speedup_gate_enforced = hw_threads >= 4;
  std::printf("\nsharded vs single consumer: %.2fx (gate %s)   bit-identical: %s   "
              "steals: %llu/%llu (%llu frames)\n",
              sharded_speedup, speedup_gate_enforced ? ">=1.5x enforced" : "report-only",
              sharded_identical ? "yes" : "NO",
              static_cast<unsigned long long>(sharded_summary.steal_successes),
              static_cast<unsigned long long>(sharded_summary.steal_attempts),
              static_cast<unsigned long long>(sharded_summary.stolen_frames));

  {
    std::ofstream sharded_json("BENCH_sharded.json");
    const auto arm_json = [](const runtime::RuntimeSummary& s, const std::string& metrics) {
      return "{\"frames\": " + std::to_string(s.frames) +
             ", \"batches\": " + std::to_string(s.batches) +
             ", \"aggregate_fps\": " + std::to_string(s.aggregate_fps) +
             ", \"mean_batch_size\": " + std::to_string(s.mean_batch_size) +
             ", \"steal_attempts\": " + std::to_string(s.steal_attempts) +
             ", \"steal_successes\": " + std::to_string(s.steal_successes) +
             ", \"stolen_frames\": " + std::to_string(s.stolen_frames) +
             ", \"metrics\": " + metrics + "}";
    };
    sharded_json << "{\n  \"cameras\": " << kCameras
                 << ",\n  \"patterns\": " << kHeteroPatterns
                 << ",\n  \"frames_per_camera\": " << hetero_frames
                 << ",\n  \"consumer_shards\": " << kShards
                 << ",\n  \"hardware_threads\": " << hw_threads
                 << ",\n  \"single_consumer\": " << arm_json(hetero_summary, hetero_metrics)
                 << ",\n  \"sharded\": " << arm_json(sharded_summary, sharded_metrics)
                 << ",\n  \"speedup_sharded_vs_single\": " << sharded_speedup
                 << ",\n  \"speedup_gate_enforced\": "
                 << (speedup_gate_enforced ? "true" : "false")
                 << ",\n  \"bit_identical\": " << (sharded_identical ? "true" : "false")
                 << "\n}\n";
  }
  std::printf("wrote BENCH_sharded.json\n");

  // --- framed MIPI transport: CSI-2 packets + CRC vs the in-memory hop ------
  bench::print_rule();
  std::printf("framed transport: hetero fleet over CSI-2-style packets vs in-memory\n");

  const auto run_framed = [&](const char* label, double drop_rate,
                              runtime::TransportPolicy policy) {
    runtime::ServerConfig server_cfg;
    server_cfg.batch.max_batch = kCameras;
    server_cfg.batch.max_delay = std::chrono::microseconds(2000);
    server_cfg.cache = roomy;
    server_cfg.transport = policy;
    runtime::InferenceServer server(system, server_cfg);
    std::vector<const runtime::CameraSource*> cameras;
    for (int cam = 0; cam < kCameras; ++cam) {
      auto camera = make_hetero_camera(cam);
      transport::LinkConfig link;
      link.mipi.lanes = 2;
      link.virtual_channel = cam % 4;
      link.faults.packet_drop_rate = drop_rate;
      link.faults.seed = 4000 + static_cast<std::uint64_t>(cam);
      camera->set_framed(link);
      cameras.push_back(camera.get());  // server-owned; alive until it dies
      server.add_camera(std::move(camera));
    }
    auto results = server.run(hetero_frames);
    auto summary = server.summary();
    std::uint64_t injected_faulted = 0;
    for (const auto* camera : cameras) {
      injected_faulted += camera->framed_link()->injector().stats().frames_faulted;
    }
    std::printf("\n[%s] drop_rate=%.3f\n%s", label, drop_rate,
                runtime::to_string(summary).c_str());
    return std::make_tuple(std::move(results), summary, injected_faulted,
                           obs::to_json(server.metrics_snapshot()));
  };

  const auto [framed_results, framed_summary, framed_injected, framed_metrics] =
      run_framed("framed_clean", 0.0, {});

  // Zero faults: the framed arm must reproduce the in-memory arm bit for bit.
  const bool framed_identical =
      fixtures::first_divergence(hetero_results, framed_results).empty();
  const bool framed_all_ok =
      framed_summary.transport.framed_frames == framed_summary.frames &&
      framed_summary.transport.ok_frames == framed_summary.transport.framed_frames &&
      framed_summary.transport.dropped_frames == 0 && framed_injected == 0;
  // Transport overhead: framed wire bytes over the raw float32 payload.
  const double framed_payload_bytes = static_cast<double>(framed_summary.frames) *
                                      kStreamImage * kStreamImage * 4.0;
  const double framed_overhead_ratio =
      framed_payload_bytes > 0.0
          ? static_cast<double>(framed_summary.wire_bytes) / framed_payload_bytes
          : 0.0;
  const double framed_fps_ratio =
      hetero_summary.aggregate_fps > 0.0
          ? framed_summary.aggregate_fps / hetero_summary.aggregate_fps
          : 0.0;

  // Lossy sub-arm: seeded packet drops under the kDrop policy. The gate is
  // exactness: observed drop counters == the links' injected ground truth.
  runtime::TransportPolicy drop_policy;
  drop_policy.corrupt = runtime::TransportPolicy::Corrupt::kDrop;
  const auto [lossy_results, lossy_summary, lossy_injected, lossy_metrics] =
      run_framed("framed_lossy", 0.02, drop_policy);
  const bool drops_exact = lossy_summary.transport.dropped_frames == lossy_injected &&
                           lossy_results.size() + lossy_injected ==
                               static_cast<std::size_t>(kCameras) *
                                   static_cast<std::size_t>(hetero_frames);

  std::printf("\nframed bit-identical at zero faults: %s   transport all-ok: %s   "
              "overhead %.3fx   fps vs in-memory %.2fx\n",
              framed_identical ? "yes" : "NO", framed_all_ok ? "yes" : "NO",
              framed_overhead_ratio, framed_fps_ratio);
  std::printf("lossy arm: %llu dropped vs %llu injected (%s), %zu/%lld frames served\n",
              static_cast<unsigned long long>(lossy_summary.transport.dropped_frames),
              static_cast<unsigned long long>(lossy_injected),
              drops_exact ? "exact" : "MISMATCH", lossy_results.size(),
              static_cast<long long>(kCameras * hetero_frames));

  {
    std::ofstream framed_json("BENCH_framed.json");
    framed_json << "{\n  \"cameras\": " << kCameras
                << ",\n  \"patterns\": " << kHeteroPatterns
                << ",\n  \"frames_per_camera\": " << hetero_frames
                << ",\n  \"in_memory_fps\": " << hetero_summary.aggregate_fps
                << ",\n  \"framed_fps\": " << framed_summary.aggregate_fps
                << ",\n  \"framed_fps_ratio\": " << framed_fps_ratio
                << ",\n  \"framed_wire_bytes\": " << framed_summary.wire_bytes
                << ",\n  \"framed_overhead_ratio\": " << framed_overhead_ratio
                << ",\n  \"bit_identical\": " << (framed_identical ? "true" : "false")
                << ",\n  \"metrics\": " << framed_metrics
                << ",\n  \"lossy_drop_rate\": 0.02"
                << ",\n  \"lossy_injected_faulted_frames\": " << lossy_injected
                << ",\n  \"lossy_metrics\": " << lossy_metrics
                << ",\n  \"lossy_drops_exact\": " << (drops_exact ? "true" : "false")
                << "\n}\n";
  }
  std::printf("wrote BENCH_framed.json\n");

  // --- int8 frontier: calibrated QuantizedVitEngine vs bit-exact fp32 ------
  bench::print_rule();
  const bool avx2_int8 = snappix::detail::gemm_s8_simd_enabled();
  std::printf("int8 frontier: calibrated engine vs fp32 at 32x32 (int8 SIMD: %s)\n",
              avx2_int8 ? "AVX2" : "scalar fallback");

  // A GEMM-heavy geometry (16 tokens instead of 4) so the ratio measures the
  // compute backends, not patchify glue; same backbone family as the fleet.
  core::SnapPixConfig frontier_cfg;
  frontier_cfg.image = 32;
  frontier_cfg.frames = kStreamFrames;
  frontier_cfg.num_classes = 6;
  frontier_cfg.seed = 42;
  core::SnapPixSystem frontier(frontier_cfg);
  {
    Rng frontier_rng(7);
    frontier.set_pattern(
        ce::CePattern::random(kStreamFrames, frontier_cfg.tile, frontier_rng, 0.5F));
  }

  const std::int64_t frontier_frames = quick ? 32 : 96;
  const int frontier_reps = quick ? 3 : 5;
  double fp32_classify_fps = 0.0, int8_classify_fps = 0.0;
  double fp32_rec_fps = 0.0, int8_rec_fps = 0.0;
  double top1_agreement = 0.0, mean_abs_logit_diff = 0.0;
  double psnr_fp32 = 0.0, psnr_int8 = 0.0;
  {
    NoGradGuard guard;
    // Ground-truth clips (for REC PSNR) and their coded frames.
    data::SceneConfig scene;
    scene.frames = kStreamFrames;
    scene.height = 32;
    scene.width = 32;
    scene.num_classes = 6;
    data::SyntheticVideoGenerator generator(scene);
    Rng scene_rng(31337);
    std::vector<float> clips(static_cast<std::size_t>(frontier_frames) * kStreamFrames * 32 *
                             32);
    for (std::int64_t i = 0; i < frontier_frames; ++i) {
      const data::VideoSample sample = generator.sample(scene_rng);
      std::copy(sample.video.data().begin(), sample.video.data().end(),
                clips.begin() + i * kStreamFrames * 32 * 32);
    }
    const Tensor videos = Tensor::from_vector(
        std::move(clips), Shape{frontier_frames, kStreamFrames, 32, 32});
    const Tensor eval_coded = frontier.encode(videos);

    // Calibrate exactly the way the serving tier does on an int8 cache miss.
    const runtime::ServerConfig defaults;
    const Tensor calib = runtime::make_calibration_frames(frontier.pattern(), 32, 32,
                                                          defaults.calibration);
    const runtime::QuantSpec spec =
        runtime::calibrate(*frontier.classifier(), *frontier.reconstructor(), calib);
    const runtime::BatchedVitEngine fp32_engine(*frontier.classifier(),
                                                *frontier.reconstructor(), 32);
    const runtime::QuantizedVitEngine int8_engine(*frontier.classifier(),
                                                  *frontier.reconstructor(), spec, 32);

    const auto fps_of = [&](const auto& fn) {
      fn();  // warm the workspace
      const runtime::Clock::time_point t0 = runtime::Clock::now();
      for (int r = 0; r < frontier_reps; ++r) {
        fn();
      }
      const double seconds =
          std::chrono::duration<double>(runtime::Clock::now() - t0).count();
      return static_cast<double>(frontier_frames * frontier_reps) / seconds;
    };
    fp32_classify_fps = fps_of([&] { fp32_engine.classify_logits(eval_coded); });
    int8_classify_fps = fps_of([&] { int8_engine.classify_logits(eval_coded); });
    fp32_rec_fps = fps_of([&] { fp32_engine.reconstruct(eval_coded); });
    int8_rec_fps = fps_of([&] { int8_engine.reconstruct(eval_coded); });

    const Tensor fp32_logits = fp32_engine.classify_logits(eval_coded);
    const Tensor int8_logits = int8_engine.classify_logits(eval_coded);
    const auto fp32_pred = argmax_last_axis(fp32_logits);
    const auto int8_pred = argmax_last_axis(int8_logits);
    std::size_t agree = 0;
    for (std::size_t i = 0; i < fp32_pred.size(); ++i) {
      agree += fp32_pred[i] == int8_pred[i] ? 1U : 0U;
    }
    top1_agreement = static_cast<double>(agree) / static_cast<double>(fp32_pred.size());
    for (std::size_t i = 0; i < fp32_logits.data().size(); ++i) {
      mean_abs_logit_diff += std::fabs(fp32_logits.data()[i] - int8_logits.data()[i]);
    }
    mean_abs_logit_diff /= static_cast<double>(fp32_logits.data().size());

    psnr_fp32 = eval::psnr_db(fp32_engine.reconstruct(eval_coded), videos);
    psnr_int8 = eval::psnr_db(int8_engine.reconstruct(eval_coded), videos);
  }
  const double int8_classify_speedup =
      fp32_classify_fps > 0.0 ? int8_classify_fps / fp32_classify_fps : 0.0;
  const double int8_rec_speedup = fp32_rec_fps > 0.0 ? int8_rec_fps / fp32_rec_fps : 0.0;
  const double psnr_delta = psnr_fp32 - psnr_int8;

  std::printf("\nclassify fps: fp32 %.1f vs int8 %.1f (%.2fx)   rec fps: fp32 %.1f vs "
              "int8 %.1f (%.2fx)\n",
              fp32_classify_fps, int8_classify_fps, int8_classify_speedup, fp32_rec_fps,
              int8_rec_fps, int8_rec_speedup);
  std::printf("top-1 agreement %.4f   mean |dlogit| %.5f   REC PSNR fp32 %.2f dB vs int8 "
              "%.2f dB (delta %.3f dB)\n",
              top1_agreement, mean_abs_logit_diff, psnr_fp32, psnr_int8, psnr_delta);

  // Mixed-precision served fleet: odd cameras opt into int8, the server keys
  // batches and cache entries by precision, and the fp32 cameras must stay
  // bit-identical to the all-fp32 arm above.
  std::vector<runtime::TaskResult> mixed_results;
  runtime::RuntimeSummary mixed_summary;
  std::string mixed_metrics;
  {
    runtime::ServerConfig server_cfg;
    server_cfg.batch.max_batch = kCameras;
    server_cfg.batch.max_delay = std::chrono::microseconds(2000);
    server_cfg.cache = roomy;
    server_cfg.shards = 2;
    runtime::InferenceServer server(system, server_cfg);
    for (int cam = 0; cam < kCameras; ++cam) {
      auto camera = make_hetero_camera(cam);
      if (cam % 2 == 1) {
        camera->set_precision(runtime::Precision::kInt8);
      }
      server.add_camera(std::move(camera));
    }
    mixed_results = server.run(hetero_frames);
    mixed_summary = server.summary();
    mixed_metrics = obs::to_json(server.metrics_snapshot());
    std::printf("\n[int8_mixed_fleet]\n%s", runtime::to_string(mixed_summary).c_str());
  }
  bool mixed_fp32_identical = true;
  std::size_t mixed_int8_frames = 0, mixed_int8_agree = 0;
  for (std::size_t i = 0; i < mixed_results.size(); ++i) {
    const auto& mixed = mixed_results[i];
    const auto& reference = hetero_results[i];
    if (mixed.camera_id % 2 == 0) {
      mixed_fp32_identical &= mixed.precision == runtime::Precision::kFp32 &&
                              mixed.camera_id == reference.camera_id &&
                              mixed.sequence == reference.sequence &&
                              mixed.predicted == reference.predicted;
      if (mixed.task == runtime::Task::kReconstruct && mixed_fp32_identical) {
        const auto& va = mixed.reconstruction.data();
        const auto& vb = reference.reconstruction.data();
        mixed_fp32_identical &= va.size() == vb.size();
        for (std::size_t v = 0; mixed_fp32_identical && v < va.size(); ++v) {
          mixed_fp32_identical &= va[v] == vb[v];
        }
      }
    } else if (mixed.task == runtime::Task::kClassify) {
      ++mixed_int8_frames;
      mixed_int8_agree += mixed.predicted == reference.predicted ? 1U : 0U;
    }
  }
  const double mixed_agreement =
      mixed_int8_frames > 0
          ? static_cast<double>(mixed_int8_agree) / static_cast<double>(mixed_int8_frames)
          : 1.0;
  std::printf("mixed fleet: fp32 cameras bit-identical: %s   served int8 top-1 agreement "
              "%.4f   cache fp32 %llu/%llu int8 %llu/%llu (hit/miss)\n",
              mixed_fp32_identical ? "yes" : "NO", mixed_agreement,
              static_cast<unsigned long long>(mixed_summary.cache_fp32.hits),
              static_cast<unsigned long long>(mixed_summary.cache_fp32.misses),
              static_cast<unsigned long long>(mixed_summary.cache_int8.hits),
              static_cast<unsigned long long>(mixed_summary.cache_int8.misses));

  {
    std::ofstream int8_json("BENCH_int8.json");
    int8_json << "{\n  \"image\": 32,\n  \"tokens\": 16,\n  \"frames\": " << frontier_frames
              << ",\n  \"reps\": " << frontier_reps
              << ",\n  \"int8_simd\": " << (avx2_int8 ? "true" : "false")
              << ",\n  \"fp32_classify_fps\": " << fp32_classify_fps
              << ",\n  \"int8_classify_fps\": " << int8_classify_fps
              << ",\n  \"int8_classify_speedup\": " << int8_classify_speedup
              << ",\n  \"fp32_rec_fps\": " << fp32_rec_fps
              << ",\n  \"int8_rec_fps\": " << int8_rec_fps
              << ",\n  \"int8_rec_speedup\": " << int8_rec_speedup
              << ",\n  \"top1_agreement\": " << top1_agreement
              << ",\n  \"mean_abs_logit_diff\": " << mean_abs_logit_diff
              << ",\n  \"rec_psnr_fp32_db\": " << psnr_fp32
              << ",\n  \"rec_psnr_int8_db\": " << psnr_int8
              << ",\n  \"rec_psnr_delta_db\": " << psnr_delta
              << ",\n  \"agreement_gate\": 0.98"
              << ",\n  \"speedup_gate\": 1.8"
              << ",\n  \"speedup_gate_enforced\": " << (avx2_int8 ? "true" : "false")
              << ",\n  \"mixed_fleet\": {\"cameras\": " << kCameras
              << ", \"int8_cameras\": " << kCameras / 2
              << ", \"aggregate_fps\": " << mixed_summary.aggregate_fps
              << ", \"fp32_frames\": " << mixed_summary.fp32_frames
              << ", \"int8_frames\": " << mixed_summary.int8_frames
              << ", \"metrics\": " << mixed_metrics
              << ", \"fp32_bit_identical\": " << (mixed_fp32_identical ? "true" : "false")
              << ", \"int8_top1_agreement\": " << mixed_agreement << "}\n}\n";
  }
  std::printf("wrote BENCH_int8.json\n");

  // Gate numerics strictly; gate throughput with a regression floor below
  // the 3x target so noisy shared CI runners don't flake the build (11
  // --quick runs on a 4-thread AVX2 x86 host read 4.6-7.6x, median 5.4x).
  if (speedup_vs_sequential < 3.0) {
    std::printf("WARNING: batched serving %.2fx over sequential, below the 3x target\n",
                speedup_vs_sequential);
  }
  const bool fast_enough = speedup_vs_sequential >= 2.0;
  if (!fast_enough) {
    std::printf("FAIL: batched serving only %.2fx over sequential (regression floor 2x)\n",
                speedup_vs_sequential);
  }
  if (!cache_hits_nonzero) {
    std::printf("FAIL: heterogeneous fleet served with zero pattern-cache hits\n");
  }
  if (!pressure_evicted) {
    std::printf("FAIL: 1-entry cache under 4-pattern thrash recorded no evictions\n");
  }
  if (!sharded_identical) {
    std::printf("FAIL: sharded serving diverged bitwise from the single-consumer arm\n");
  }
  const bool sharded_fast_enough = !speedup_gate_enforced || sharded_speedup >= 1.5;
  if (!sharded_fast_enough) {
    std::printf("FAIL: sharded serving only %.2fx over single consumer on %u threads "
                "(gate 1.5x)\n", sharded_speedup, hw_threads);
  }
  if (!framed_identical) {
    std::printf("FAIL: framed transport at zero faults diverged bitwise from the "
                "in-memory arm\n");
  }
  if (!framed_all_ok) {
    std::printf("FAIL: clean framed arm reported transport errors or drops\n");
  }
  if (!drops_exact) {
    std::printf("FAIL: lossy framed arm's drop counters diverge from the injected "
                "ground truth\n");
  }
  const bool int8_agrees = top1_agreement >= 0.98;
  if (!int8_agrees) {
    std::printf("FAIL: int8 top-1 agreement %.4f below the 0.98 gate\n", top1_agreement);
  }
  // The 1.8x gate measures the AVX2 int8 kernels; the scalar fallback build
  // (non-x86 hosts) still gates agreement and reports the measured ratio.
  const bool int8_fast_enough = !avx2_int8 || int8_classify_speedup >= 1.8;
  if (!int8_fast_enough) {
    std::printf("FAIL: int8 classify only %.2fx over fp32 on an AVX2 host (gate 1.8x)\n",
                int8_classify_speedup);
  }
  if (!mixed_fp32_identical) {
    std::printf("FAIL: mixed-precision fleet's fp32 cameras diverged bitwise from the "
                "all-fp32 arm\n");
  }
  const bool ok = identical_predictions && identical_logits && fast_enough &&
                  hetero_identical && cache_hits_nonzero && pressure_evicted &&
                  sharded_identical && sharded_fast_enough && framed_identical &&
                  framed_all_ok && drops_exact && int8_agrees && int8_fast_enough &&
                  mixed_fp32_identical;
  return ok ? 0 : 1;
}

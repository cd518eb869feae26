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
// The two arms run as interleaved rounds (5 in --quick, 9 in full runs),
// alternating which goes first. The batched arm must (a) reach >= 2x the
// aggregate fps of the sequential arm, as the median of the per-round
// ratios (a regression floor; below the 3x target it warns) and (b) produce
// bit-identical predictions and logits to it — the fused engine replicates
// the tape ops' float semantics exactly, so batching is a pure
// latency/throughput trade, never an accuracy one.
//
// A third section benches the task-typed InferenceServer on the
// heterogeneous fleet (bench/fleet.h: 8 cameras over 4 distinct CE patterns
// with an AR+REC task mix), served through the sharded pattern->engine
// cache. It reports cache hit rate / evictions / fps at two cache sizes
// (everything resident vs a 1-entry cache under thrash) and verifies both
// task heads stay bit-identical to the sequential tape paths.
//
// A fourth section benches SHARDED serving: the same heterogeneous fleet
// served by 4 consumer shards with work stealing versus the single-consumer
// arm above. Identity is gated unconditionally (shard count and steal
// interleaving must never change a bit); the >= 1.5x throughput gate reads
// the MEDIAN of per-round ratios over fresh single/sharded pairs, each pair
// run back to back in alternating order, and is enforced only when the host
// has >= 4 hardware threads — shard workers are real parallelism, and on a
// 1-2 core runner the arm measures scheduling overhead, not scaling (same
// spirit as the regression floor above).
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
// cameras are gated bit-identical to the all-fp32 arm. The tiers are timed
// in interleaved rounds (classify then REC; fp32 first in even rounds,
// int8 first in odd ones) so both see the same host phase and neither
// always runs first, and the >= 1.8x classify speedup gate
// reads the MEDIAN of the per-round ratios; it binds only where the AVX2
// int8 kernels compiled in.
//
// Writes BENCH_streaming.json, BENCH_pattern_cache.json, BENCH_sharded.json,
// BENCH_framed.json and BENCH_int8.json next to the working directory.
// `--quick` shrinks the streams for CI smoke runs.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/snappix.h"
#include "eval/metrics.h"
#include "fleet.h"
#include "runtime/camera.h"
#include "runtime/quant.h"
#include "runtime/server.h"
#include "serving_fixtures.h"
#include "tensor/gemm_s8.h"
#include "transport/link.h"

namespace {

using namespace snappix;
using bench::HeteroFleet;

constexpr int kCameras = HeteroFleet::kCameras;

// The batch policy every served arm shares: one frame per camera per batch.
runtime::ServerConfig fleet_config() {
  runtime::ServerConfig cfg;
  cfg.batch.max_batch = kCameras;
  cfg.batch.max_delay = std::chrono::microseconds(2000);
  return cfg;
}

// One BENCH_streaming.json arm: throughput, energy bill, metrics snapshot.
bench::JsonObject streaming_arm(const std::string& label, double fps,
                                const runtime::FleetEnergyReport& energy,
                                const std::string& metrics) {
  std::printf("  fleet energy: conventional %.3f J vs snappix %.3f J (%.1fx)\n",
              energy.conventional_j, energy.snappix_j, energy.saving_factor);
  bench::JsonObject arm;
  arm.add("label", label)
      .add("aggregate_fps", fps)
      .add("energy_conventional_j", energy.conventional_j)
      .add("energy_snappix_j", energy.snappix_j)
      .add("energy_saving_factor", energy.saving_factor)
      .raw("metrics", metrics);
  return arm;
}

// Only the results whose camera id has the given parity.
std::vector<runtime::TaskResult> cameras_with_parity(
    const std::vector<runtime::TaskResult>& results, int parity) {
  std::vector<runtime::TaskResult> out;
  for (const runtime::TaskResult& r : results) {
    if (r.camera_id % 2 == parity) {
      out.push_back(r);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const std::int64_t frames_per_camera = quick ? 40 : 150;
  bench::Gate gate;

  bench::print_header("Streaming serving throughput: 8 CE cameras, one ViT server");
  std::printf("geometry %dx%d, T=%d; %d cameras x %lld frames\n", bench::kStreamImage,
              bench::kStreamImage, bench::kStreamFrames, kCameras,
              static_cast<long long>(frames_per_camera));

  const core::SnapPixConfig cfg = bench::serving_config();
  core::SnapPixSystem system(cfg);
  system.set_pattern(bench::fleet_pattern(cfg));
  const std::vector<bench::RecordedStream> streams =
      bench::record_streams(cfg, {system.pattern_ref()}, 1000, kCameras, frames_per_camera);
  const auto make_camera = [&](int cam) {
    return bench::replay_camera(cam, system.pattern_ref(), streams[static_cast<std::size_t>(cam)]);
  };

  // --- arm 1: sequential single-camera path (tape framework, batch 1) -------
  struct SequentialRun {
    std::vector<runtime::TaskResult> results;
    std::vector<Tensor> logits;
    runtime::RuntimeSummary summary;
    runtime::FleetEnergyReport energy;
    std::string metrics;
  };
  const auto run_sequential = [&] {
    NoGradGuard guard;
    SequentialRun run;
    runtime::RuntimeStats stats;
    stats.add_shard(0);
    const runtime::Clock::time_point t0 = runtime::Clock::now();
    for (int cam = 0; cam < kCameras; ++cam) {
      auto camera = make_camera(cam);
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
        run.logits.push_back(logits);
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
        run.results.push_back(std::move(result));
      }
    }
    const double wall =
        std::chrono::duration<double>(runtime::Clock::now() - t0).count();
    run.summary = stats.summary(wall);
    run.energy = stats.fleet_energy(
        energy::EnergyModel{}, static_cast<std::int64_t>(cfg.image) * cfg.image, cfg.frames,
        energy::WirelessTech::kPassiveWifi);
    run.metrics = obs::to_json(stats.registry().snapshot());
    return run;
  };

  // --- arm 2: InferenceServer, batching enabled (fused engine) -------------
  // The two arms run as interleaved rounds, alternating which goes first;
  // the speedup gate reads the median per-round fps ratio.
  const int serve_rounds = quick ? 5 : 9;
  SequentialRun sequential;
  bench::ArmRun batched;
  std::vector<double> sequential_fps, batched_fps;
  for (int round = 0; round < serve_rounds; ++round) {
    bench::run_round(round, {[&] {
                               sequential = run_sequential();
                               sequential_fps.push_back(sequential.summary.aggregate_fps);
                             },
                             [&] {
                               batched = bench::run_arm(system, fleet_config(), make_camera,
                                                        kCameras, frames_per_camera);
                               batched_fps.push_back(batched.summary.aggregate_fps);
                             }});
  }

  // --- verification: batched serving is bit-identical to sequential --------
  // (the last round's runs)
  const bool identical_predictions =
      fixtures::first_divergence(sequential.results, batched.results).empty();
  // Logit-level bitwise check: the fused engine vs the tape framework over
  // every recorded frame, served as full cross-camera batches.
  bool identical_logits = true;
  {
    runtime::BatchedVitEngine engine(*system.classifier(), *system.reconstructor(), kCameras);
    for (std::int64_t i = 0; i < frames_per_camera && identical_logits; ++i) {
      std::vector<runtime::Frame> batch;
      for (int cam = 0; cam < kCameras; ++cam) {
        runtime::Frame frame;
        frame.coded = streams[static_cast<std::size_t>(cam)].coded[static_cast<std::size_t>(i)];
        batch.push_back(std::move(frame));
      }
      const Tensor batched_logits =
          engine.classify_logits(runtime::BatchAggregator::stack_coded(batch));
      for (int cam = 0; cam < kCameras; ++cam) {
        const Tensor& single = sequential.logits[static_cast<std::size_t>(cam) *
                                                     static_cast<std::size_t>(frames_per_camera) +
                                                 static_cast<std::size_t>(i)];
        for (std::int64_t c = 0; c < cfg.num_classes; ++c) {
          identical_logits &=
              single.data()[static_cast<std::size_t>(c)] ==
              batched_logits.data()[static_cast<std::size_t>(cam * cfg.num_classes + c)];
        }
      }
    }
  }

  std::printf("\n[sequential] (last round)\n%s", runtime::to_string(sequential.summary).c_str());
  const bench::JsonObject sequential_arm = streaming_arm(
      "sequential", bench::median_of(sequential_fps), sequential.energy, sequential.metrics);
  std::printf("\n[runtime_batched] (last round)\n%s",
              runtime::to_string(batched.summary).c_str());
  const bench::JsonObject batched_arm = streaming_arm(
      "runtime_batched", bench::median_of(batched_fps),
      batched.server->fleet_energy(energy::EnergyModel{}, energy::WirelessTech::kPassiveWifi),
      batched.metrics);

  const bench::RoundRatios speedup = bench::round_ratios(batched_fps, sequential_fps);
  bench::print_rule();
  std::printf("batched vs sequential: %.2fx median over %d interleaved rounds (min %.2fx, max "
              "%.2fx)\n",
              speedup.median, serve_rounds, speedup.min, speedup.max);
  std::printf("bit-identical predictions: %s   bit-identical logits: %s\n",
              identical_predictions ? "yes" : "NO", identical_logits ? "yes" : "NO");

  bench::JsonObject()
      .add("cameras", kCameras)
      .add("frames_per_camera", frames_per_camera)
      .add("image", cfg.image)
      .add("slots", cfg.frames)
      .raw("arms", bench::json_array({sequential_arm.str(), batched_arm.str()}))
      .add("rounds", serve_rounds)
      .add("speedup_batched_vs_sequential", speedup.median)
      .add("speedup_batched_vs_sequential_min", speedup.min)
      .add("speedup_batched_vs_sequential_max", speedup.max)
      .add("bit_identical_predictions", identical_predictions)
      .add("bit_identical_logits", identical_logits)
      .write("BENCH_streaming.json");

  // Gate numerics strictly; gate throughput with a regression floor below
  // the 3x target so noisy shared CI runners don't flake the build (11
  // single-run --quick reads on a 4-thread AVX2 x86 host were 4.6-7.6x,
  // median 5.4x).
  if (speedup.median < 3.0) {
    std::printf("WARNING: batched serving %.2fx over sequential, below the 3x target\n",
                speedup.median);
  }
  gate(speedup.median >= 2.0,
       "batched serving only %.2fx over sequential (median of %d interleaved rounds; "
       "regression floor 2x)",
       speedup.median, serve_rounds);
  gate(identical_predictions, "batched predictions diverged bitwise from sequential");
  gate(identical_logits, "batched logits diverged bitwise from sequential");

  // --- heterogeneous fleet: 4 patterns, AR+REC mix, pattern->engine cache ---
  bench::print_rule();
  std::printf("heterogeneous fleet: %d cameras x %d patterns, AR+REC mix\n", kCameras,
              HeteroFleet::kPatterns);
  const std::int64_t hetero_frames = quick ? 25 : 100;
  const HeteroFleet hetero(cfg, hetero_frames);

  // All four patterns resident: every batch after first touch is a hit.
  runtime::EngineCacheConfig roomy;
  roomy.capacity = 8;
  const auto hetero_config = [&](const runtime::EngineCacheConfig& cache, std::size_t shards) {
    runtime::ServerConfig server_cfg = fleet_config();
    server_cfg.cache = cache;
    server_cfg.shards = shards;
    return server_cfg;
  };
  const auto run_hetero = [&](const char* label, const runtime::EngineCacheConfig& cache,
                              std::int64_t frames, std::size_t shards) {
    bench::ArmRun arm = bench::run_arm(
        system, hetero_config(cache, shards), [&](int cam) { return hetero.camera(cam); },
        kCameras, frames);
    std::printf("\n[%s] consumer_shards=%zu cache_capacity=%zu\n%s", label, shards,
                cache.capacity, runtime::to_string(arm.summary).c_str());
    return arm;
  };
  const bench::ArmRun resident = run_hetero("pattern_cache_resident", roomy, hetero_frames, 1);
  // One-entry cache: pattern alternation thrashes, counting evictions.
  runtime::EngineCacheConfig tiny;
  tiny.capacity = 1;
  const bench::ArmRun pressure = run_hetero("pattern_cache_pressure", tiny, quick ? 10 : 25, 1);

  // Verify both task heads against the sequential tape paths, per camera.
  std::vector<runtime::TaskResult> tape;
  {
    NoGradGuard guard;
    for (int cam = 0; cam < kCameras; ++cam) {
      const auto camera = hetero.camera(cam);
      const bench::RecordedStream& stream = hetero.streams[static_cast<std::size_t>(cam)];
      for (std::int64_t f = 0; f < hetero_frames; ++f) {
        const Tensor& coded = stream.coded[static_cast<std::size_t>(f)];
        const Tensor one =
            Tensor::from_vector(coded.data(), Shape{1, coded.shape()[0], coded.shape()[1]});
        runtime::TaskResult expected;
        expected.camera_id = cam;
        expected.sequence = f;
        expected.task = camera->task();
        expected.pattern_id = camera->pattern_id();
        expected.label = stream.labels[static_cast<std::size_t>(f)];
        if (expected.task == runtime::Task::kReconstruct) {
          expected.reconstruction = system.reconstruct_coded(one);
        } else {
          expected.predicted = system.classify_coded(one)[0];
        }
        tape.push_back(std::move(expected));
      }
    }
  }
  const bool hetero_identical = fixtures::first_divergence(resident.results, tape).empty();
  std::printf("\nhetero bit-identical (AR+REC): %s   cache hits: %llu (rate %.2f)   "
              "pressure evictions: %llu\n",
              hetero_identical ? "yes" : "NO",
              static_cast<unsigned long long>(resident.summary.cache_hits),
              resident.summary.cache_hit_rate,
              static_cast<unsigned long long>(pressure.summary.cache_evictions));

  const auto cache_arm = [](const runtime::RuntimeSummary& s,
                            const runtime::EngineCacheConfig& c) {
    bench::JsonObject arm;
    arm.add("capacity", c.capacity)
        .add("frames", s.frames)
        .add("classify_frames", s.classify_frames)
        .add("reconstruct_frames", s.reconstruct_frames)
        .add("aggregate_fps", s.aggregate_fps)
        .add("mean_batch_size", s.mean_batch_size)
        .add("cache_hits", s.cache_hits)
        .add("cache_misses", s.cache_misses)
        .add("cache_evictions", s.cache_evictions)
        .add("cache_hit_rate", s.cache_hit_rate);
    return arm;
  };
  bench::JsonObject()
      .add("cameras", kCameras)
      .add("patterns", HeteroFleet::kPatterns)
      .add("frames_per_camera", hetero_frames)
      .add("task_mix", std::to_string(kCameras - 2) + " classify + 2 reconstruct")
      .add("resident", cache_arm(resident.summary, roomy))
      .add("pressure", cache_arm(pressure.summary, tiny))
      .add("bit_identical", hetero_identical)
      .write("BENCH_pattern_cache.json");
  gate(hetero_identical, "heterogeneous fleet diverged bitwise from the sequential tape paths");
  gate(resident.summary.cache_hits > 0,
       "heterogeneous fleet served with zero pattern-cache hits");
  gate(pressure.summary.cache_evictions > 0,
       "1-entry cache under 4-pattern thrash recorded no evictions");

  // --- sharded serving: 4 consumer shards + work stealing vs 1 consumer ----
  bench::print_rule();
  const std::size_t kShards = 4;
  const unsigned hw_threads = std::max(1U, std::thread::hardware_concurrency());
  std::printf("sharded serving: %zu consumer shards (work stealing) vs single consumer, "
              "%u hardware threads\n", kShards, hw_threads);
  // Same fleet, same cache geometry, same batch policy — the only variable is
  // the consumer topology, so the fps ratio isolates shard scaling. The
  // identity gate and the JSON arms read the resident arm above and this
  // sharded arm; the ratio the gate reads comes from fresh single/sharded
  // pairs run back to back (run_round alternates which goes first), so each
  // ratio sees one host phase.
  const int shard_rounds = quick ? 5 : 9;
  const bench::ArmRun sharded = run_hetero("sharded_x4", roomy, hetero_frames, kShards);
  std::vector<double> single_fps, sharded_fps;
  const auto hetero_fps = [&](std::size_t shards, std::vector<double>& fps) {
    fps.push_back(bench::run_arm(system, hetero_config(roomy, shards),
                                 [&](int cam) { return hetero.camera(cam); }, kCameras,
                                 hetero_frames)
                      .summary.aggregate_fps);
  };
  for (int round = 0; round < shard_rounds; ++round) {
    bench::run_round(round, {[&] { hetero_fps(1, single_fps); },
                             [&] { hetero_fps(kShards, sharded_fps); }});
  }

  const bool sharded_identical =
      fixtures::first_divergence(resident.results, sharded.results).empty();
  const bench::RoundRatios sharded_speedup = bench::round_ratios(sharded_fps, single_fps);
  // The 1.5x gate measures parallel scaling, so it only binds where the
  // shards can actually run in parallel; below 4 hardware threads the arm
  // still gates identity and reports the measured ratio.
  const bool speedup_gate_enforced = hw_threads >= 4;
  std::printf("\nsharded vs single consumer: %.2fx median over %d interleaved rounds "
              "(min %.2fx, max %.2fx; gate %s)   bit-identical: %s   "
              "steals: %llu/%llu (%llu frames)\n",
              sharded_speedup.median, shard_rounds, sharded_speedup.min, sharded_speedup.max,
              speedup_gate_enforced ? ">=1.5x enforced" : "report-only",
              sharded_identical ? "yes" : "NO",
              static_cast<unsigned long long>(sharded.summary.steal_successes),
              static_cast<unsigned long long>(sharded.summary.steal_attempts),
              static_cast<unsigned long long>(sharded.summary.stolen_frames));

  const auto sharded_arm = [](const bench::ArmRun& arm) {
    const runtime::RuntimeSummary& s = arm.summary;
    bench::JsonObject out;
    out.add("frames", s.frames)
        .add("batches", s.batches)
        .add("aggregate_fps", s.aggregate_fps)
        .add("mean_batch_size", s.mean_batch_size)
        .add("steal_attempts", s.steal_attempts)
        .add("steal_successes", s.steal_successes)
        .add("stolen_frames", s.stolen_frames)
        .raw("metrics", arm.metrics);
    return out;
  };
  bench::JsonObject()
      .add("cameras", kCameras)
      .add("patterns", HeteroFleet::kPatterns)
      .add("frames_per_camera", hetero_frames)
      .add("consumer_shards", kShards)
      .add("hardware_threads", hw_threads)
      .add("single_consumer", sharded_arm(resident))
      .add("sharded", sharded_arm(sharded))
      .add("rounds", shard_rounds)
      .add("speedup_sharded_vs_single", sharded_speedup.median)
      .add("speedup_sharded_vs_single_min", sharded_speedup.min)
      .add("speedup_sharded_vs_single_max", sharded_speedup.max)
      .add("speedup_gate_enforced", speedup_gate_enforced)
      .add("bit_identical", sharded_identical)
      .write("BENCH_sharded.json");
  gate(sharded_identical, "sharded serving diverged bitwise from the single-consumer arm");
  gate(!speedup_gate_enforced || sharded_speedup.median >= 1.5,
       "sharded serving only %.2fx over single consumer on %u threads (median of %d "
       "interleaved rounds; gate 1.5x)",
       sharded_speedup.median, hw_threads, shard_rounds);

  // --- framed MIPI transport: CSI-2 packets + CRC vs the in-memory hop ------
  bench::print_rule();
  std::printf("framed transport: hetero fleet over CSI-2-style packets vs in-memory\n");

  // Returns the arm and the frames its links' fault injectors faulted.
  const auto run_framed = [&](const char* label, double drop_rate,
                              runtime::TransportPolicy policy) {
    runtime::ServerConfig server_cfg = hetero_config(roomy, 1);
    server_cfg.transport = policy;
    std::vector<const runtime::CameraSource*> cameras;  // server-owned
    bench::ArmRun arm = bench::run_arm(
        system, server_cfg,
        [&](int cam) {
          auto camera = hetero.camera(cam);
          transport::LinkConfig link;
          link.mipi.lanes = 2;
          link.virtual_channel = cam % 4;
          link.faults.packet_drop_rate = drop_rate;
          link.faults.seed = 4000 + static_cast<std::uint64_t>(cam);
          camera->set_framed(link);
          cameras.push_back(camera.get());
          return camera;
        },
        kCameras, hetero_frames);
    std::uint64_t injected_faulted = 0;
    for (const runtime::CameraSource* camera : cameras) {
      injected_faulted += camera->framed_link()->injector().stats().frames_faulted;
    }
    std::printf("\n[%s] drop_rate=%.3f\n%s", label, drop_rate,
                runtime::to_string(arm.summary).c_str());
    return std::make_pair(std::move(arm), injected_faulted);
  };

  const auto [framed, framed_injected] = run_framed("framed_clean", 0.0, {});
  const runtime::RuntimeSummary& fs = framed.summary;

  // Zero faults: the framed arm must reproduce the in-memory arm bit for bit.
  const bool framed_identical =
      fixtures::first_divergence(resident.results, framed.results).empty();
  const bool framed_all_ok = fs.transport.framed_frames == fs.frames &&
                             fs.transport.ok_frames == fs.transport.framed_frames &&
                             fs.transport.dropped_frames == 0 && framed_injected == 0;
  // Transport overhead: framed wire bytes over the raw float32 payload.
  const double framed_payload_bytes =
      static_cast<double>(fs.frames) * static_cast<double>(cfg.image * cfg.image) * 4.0;
  const double framed_overhead_ratio =
      framed_payload_bytes > 0.0 ? static_cast<double>(fs.wire_bytes) / framed_payload_bytes
                                 : 0.0;
  const double framed_fps_ratio = resident.summary.aggregate_fps > 0.0
                                      ? fs.aggregate_fps / resident.summary.aggregate_fps
                                      : 0.0;

  // Lossy sub-arm: seeded packet drops under the kDrop policy. The gate is
  // exactness: observed drop counters == the links' injected ground truth.
  runtime::TransportPolicy drop_policy;
  drop_policy.corrupt = runtime::TransportPolicy::Corrupt::kDrop;
  const auto [lossy, lossy_injected] = run_framed("framed_lossy", 0.02, drop_policy);
  const bool drops_exact =
      lossy.summary.transport.dropped_frames == lossy_injected &&
      lossy.results.size() + lossy_injected ==
          static_cast<std::size_t>(kCameras) * static_cast<std::size_t>(hetero_frames);

  std::printf("\nframed bit-identical at zero faults: %s   transport all-ok: %s   "
              "overhead %.3fx   fps vs in-memory %.2fx\n",
              framed_identical ? "yes" : "NO", framed_all_ok ? "yes" : "NO",
              framed_overhead_ratio, framed_fps_ratio);
  std::printf("lossy arm: %llu dropped vs %llu injected (%s), %zu/%lld frames served\n",
              static_cast<unsigned long long>(lossy.summary.transport.dropped_frames),
              static_cast<unsigned long long>(lossy_injected),
              drops_exact ? "exact" : "MISMATCH", lossy.results.size(),
              static_cast<long long>(kCameras * hetero_frames));

  bench::JsonObject()
      .add("cameras", kCameras)
      .add("patterns", HeteroFleet::kPatterns)
      .add("frames_per_camera", hetero_frames)
      .add("in_memory_fps", resident.summary.aggregate_fps)
      .add("framed_fps", fs.aggregate_fps)
      .add("framed_fps_ratio", framed_fps_ratio)
      .add("framed_wire_bytes", fs.wire_bytes)
      .add("framed_overhead_ratio", framed_overhead_ratio)
      .add("bit_identical", framed_identical)
      .raw("metrics", framed.metrics)
      .add("lossy_drop_rate", 0.02)
      .add("lossy_injected_faulted_frames", lossy_injected)
      .raw("lossy_metrics", lossy.metrics)
      .add("lossy_drops_exact", drops_exact)
      .write("BENCH_framed.json");
  gate(framed_identical,
       "framed transport at zero faults diverged bitwise from the in-memory arm");
  gate(framed_all_ok, "clean framed arm reported transport errors or drops");
  gate(drops_exact, "lossy framed arm's drop counters diverge from the injected ground truth");

  // --- int8 frontier: calibrated QuantizedVitEngine vs bit-exact fp32 ------
  bench::print_rule();
  const bool avx2_int8 = snappix::detail::gemm_s8_simd_enabled();
  std::printf("int8 frontier: calibrated engine vs fp32 at 32x32 (int8 SIMD: %s)\n",
              avx2_int8 ? "AVX2" : "scalar fallback");

  // A GEMM-heavy geometry (16 tokens instead of 4) so the ratio measures the
  // compute backends, not patchify glue; same backbone family as the fleet.
  const core::SnapPixConfig frontier_cfg = bench::serving_config(bench::kSceneClasses, 32);
  core::SnapPixSystem frontier(frontier_cfg);
  frontier.set_pattern(bench::fleet_pattern(frontier_cfg));

  const std::int64_t frontier_frames = quick ? 32 : 96;
  const int frontier_reps = quick ? 3 : 5;     // forwards per arm per round
  const int frontier_rounds = quick ? 5 : 9;  // interleaved fp32/int8 rounds
  // Per round: seconds for frontier_reps forwards of each arm.
  std::vector<double> fp32_classify_s, int8_classify_s, fp32_rec_s, int8_rec_s;
  double top1_agreement = 0.0, mean_abs_logit_diff = 0.0;
  double psnr_fp32 = 0.0, psnr_int8 = 0.0;
  {
    NoGradGuard guard;
    // Ground-truth clips (for REC PSNR) and their coded frames.
    const bench::EvalClips eval = bench::eval_clips(frontier, frontier_frames);

    // Calibrate exactly the way the serving tier does on an int8 cache miss.
    const Tensor calib = runtime::make_calibration_frames(
        frontier.pattern(), frontier_cfg.image, frontier_cfg.image, runtime::QuantCalibration{});
    const runtime::QuantSpec spec =
        runtime::calibrate(*frontier.classifier(), *frontier.reconstructor(), calib);
    const runtime::BatchedVitEngine fp32_engine(*frontier.classifier(),
                                                *frontier.reconstructor(), 32);
    const runtime::QuantizedVitEngine int8_engine(*frontier.classifier(),
                                                  *frontier.reconstructor(), spec, 32);

    const auto fp32_classify = [&] { fp32_engine.classify_logits(eval.coded); };
    const auto int8_classify = [&] { int8_engine.classify_logits(eval.coded); };
    const auto fp32_rec = [&] { fp32_engine.reconstruct(eval.coded); };
    const auto int8_rec = [&] { int8_engine.reconstruct(eval.coded); };
    const auto time_reps = [&](const auto& fn, std::vector<double>& seconds) {
      const runtime::Clock::time_point t0 = runtime::Clock::now();
      for (int r = 0; r < frontier_reps; ++r) {
        fn();
      }
      seconds.push_back(std::chrono::duration<double>(runtime::Clock::now() - t0).count());
    };
    fp32_classify();  // warm the workspaces
    int8_classify();
    fp32_rec();
    int8_rec();
    for (int round = 0; round < frontier_rounds; ++round) {
      bench::run_round(round, {[&] { time_reps(fp32_classify, fp32_classify_s); },
                               [&] { time_reps(int8_classify, int8_classify_s); }});
      bench::run_round(round, {[&] { time_reps(fp32_rec, fp32_rec_s); },
                               [&] { time_reps(int8_rec, int8_rec_s); }});
    }

    const Tensor fp32_logits = fp32_engine.classify_logits(eval.coded);
    const Tensor int8_logits = int8_engine.classify_logits(eval.coded);
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

    psnr_fp32 = eval::psnr_db(fp32_engine.reconstruct(eval.coded), eval.videos);
    psnr_int8 = eval::psnr_db(int8_engine.reconstruct(eval.coded), eval.videos);
  }
  const double frames_per_round = static_cast<double>(frontier_frames * frontier_reps);
  const auto median_fps = [&](std::vector<double> seconds) {
    return frames_per_round / bench::median_of(std::move(seconds));
  };
  const double fp32_classify_fps = median_fps(fp32_classify_s);
  const double int8_classify_fps = median_fps(int8_classify_s);
  const double fp32_rec_fps = median_fps(fp32_rec_s);
  const double int8_rec_fps = median_fps(int8_rec_s);
  const bench::RoundRatios classify_ratio = bench::round_ratios(fp32_classify_s, int8_classify_s);
  const bench::RoundRatios rec_ratio = bench::round_ratios(fp32_rec_s, int8_rec_s);
  const double psnr_delta = psnr_fp32 - psnr_int8;

  std::printf("\nclassify fps: fp32 %.1f vs int8 %.1f   rec fps: fp32 %.1f vs int8 %.1f "
              "(medians over %d interleaved rounds)\n",
              fp32_classify_fps, int8_classify_fps, fp32_rec_fps, int8_rec_fps,
              frontier_rounds);
  std::printf("int8/fp32 per-round ratio: classify median %.2fx (min %.2fx, max %.2fx)   "
              "rec median %.2fx (min %.2fx, max %.2fx)\n",
              classify_ratio.median, classify_ratio.min, classify_ratio.max, rec_ratio.median,
              rec_ratio.min, rec_ratio.max);
  std::printf("top-1 agreement %.4f   mean |dlogit| %.5f   REC PSNR fp32 %.2f dB vs int8 "
              "%.2f dB (delta %.3f dB)\n",
              top1_agreement, mean_abs_logit_diff, psnr_fp32, psnr_int8, psnr_delta);

  // Mixed-precision served fleet: odd cameras opt into int8, the server keys
  // batches and cache entries by precision, and the fp32 cameras must stay
  // bit-identical to the all-fp32 arm above.
  const bench::ArmRun mixed = bench::run_arm(
      system, hetero_config(roomy, 2),
      [&](int cam) {
        auto camera = hetero.camera(cam);
        if (cam % 2 == 1) {
          camera->set_precision(runtime::Precision::kInt8);
        }
        return camera;
      },
      kCameras, hetero_frames);
  std::printf("\n[int8_mixed_fleet]\n%s", runtime::to_string(mixed.summary).c_str());
  const std::vector<runtime::TaskResult> mixed_fp32 = cameras_with_parity(mixed.results, 0);
  bool mixed_fp32_identical =
      fixtures::first_divergence(mixed_fp32, cameras_with_parity(resident.results, 0)).empty();
  for (const runtime::TaskResult& r : mixed_fp32) {
    mixed_fp32_identical &= r.precision == runtime::Precision::kFp32;
  }
  std::size_t mixed_int8_frames = 0, mixed_int8_agree = 0;
  for (std::size_t i = 0; i < mixed.results.size() && i < resident.results.size(); ++i) {
    const runtime::TaskResult& r = mixed.results[i];
    if (r.camera_id % 2 == 1 && r.task == runtime::Task::kClassify) {
      ++mixed_int8_frames;
      mixed_int8_agree += r.predicted == resident.results[i].predicted ? 1U : 0U;
    }
  }
  const double mixed_agreement =
      mixed_int8_frames > 0
          ? static_cast<double>(mixed_int8_agree) / static_cast<double>(mixed_int8_frames)
          : 1.0;
  std::printf("mixed fleet: fp32 cameras bit-identical: %s   served int8 top-1 agreement "
              "%.4f   cache fp32 %llu/%llu int8 %llu/%llu (hit/miss)\n",
              mixed_fp32_identical ? "yes" : "NO", mixed_agreement,
              static_cast<unsigned long long>(mixed.summary.cache_fp32.hits),
              static_cast<unsigned long long>(mixed.summary.cache_fp32.misses),
              static_cast<unsigned long long>(mixed.summary.cache_int8.hits),
              static_cast<unsigned long long>(mixed.summary.cache_int8.misses));

  bench::JsonObject mixed_fleet;
  mixed_fleet.add("cameras", kCameras)
      .add("int8_cameras", kCameras / 2)
      .add("aggregate_fps", mixed.summary.aggregate_fps)
      .add("fp32_frames", mixed.summary.fp32_frames)
      .add("int8_frames", mixed.summary.int8_frames)
      .raw("metrics", mixed.metrics)
      .add("fp32_bit_identical", mixed_fp32_identical)
      .add("int8_top1_agreement", mixed_agreement);
  bench::JsonObject()
      .add("image", frontier_cfg.image)
      .add("tokens", 16)
      .add("frames", frontier_frames)
      .add("reps", frontier_reps)
      .add("rounds", frontier_rounds)
      .add("int8_simd", avx2_int8)
      .add("fp32_classify_fps", fp32_classify_fps)
      .add("int8_classify_fps", int8_classify_fps)
      .add("int8_classify_speedup", classify_ratio.median)
      .add("int8_classify_speedup_min", classify_ratio.min)
      .add("int8_classify_speedup_max", classify_ratio.max)
      .add("fp32_rec_fps", fp32_rec_fps)
      .add("int8_rec_fps", int8_rec_fps)
      .add("int8_rec_speedup", rec_ratio.median)
      .add("int8_rec_speedup_min", rec_ratio.min)
      .add("int8_rec_speedup_max", rec_ratio.max)
      .add("top1_agreement", top1_agreement)
      .add("mean_abs_logit_diff", mean_abs_logit_diff)
      .add("rec_psnr_fp32_db", psnr_fp32)
      .add("rec_psnr_int8_db", psnr_int8)
      .add("rec_psnr_delta_db", psnr_delta)
      .add("agreement_gate", 0.98)
      .add("speedup_gate", 1.8)
      .add("speedup_gate_enforced", avx2_int8)
      .add("mixed_fleet", mixed_fleet)
      .write("BENCH_int8.json");

  gate(top1_agreement >= 0.98, "int8 top-1 agreement %.4f below the 0.98 gate", top1_agreement);
  // The 1.8x gate measures the AVX2 int8 kernels; the scalar fallback build
  // (non-x86 hosts) still gates agreement and reports the measured ratio.
  gate(!avx2_int8 || classify_ratio.median >= 1.8,
       "int8 classify only %.2fx over fp32 on an AVX2 host (median of %d interleaved rounds; "
       "gate 1.8x)",
       classify_ratio.median, frontier_rounds);
  gate(mixed_fp32_identical,
       "mixed-precision fleet's fp32 cameras diverged bitwise from the all-fp32 arm");
  return gate.exit_code();
}

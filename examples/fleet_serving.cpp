// Fleet serving: a heterogeneous CE camera fleet streaming into one shared
// task-typed inference server.
//
//   1. train a small SNAPPIX system (pattern + AR head) on synthetic data,
//   2. stand up a runtime::InferenceServer over a mixed fleet — most cameras
//      share the system's learned pattern through one PatternRef (zero
//      copies), one camera carries its own distinct pattern, one camera
//      requests video reconstruction instead of classification, and one
//      camera opts into the int8 quantized engine tier,
//   3. serve everything through TWO work-stealing consumer shards with
//      batched fused-engine inference: batches split by (pattern, task),
//      engines resolved through each shard's private pattern->engine cache,
//      and an idle shard stealing key-pure tail batches from its sibling,
//   4. observe the run live: frame-lifecycle tracing is on (1-in-2 per-camera
//      sampling), a helper thread snapshots the lock-free metrics registry
//      MID-RUN without stalling a worker, and the full trace is written to
//      fleet_trace.json — load it in Perfetto / chrome://tracing to see each
//      sampled frame's capture -> queue_wait -> batch_assembly -> infer spans,
//   5. report accuracy, throughput, latency percentiles, cache and steal
//      traffic per shard, bytes-on-wire, and the fleet's Sec. VI-D energy
//      bill.
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "core/snappix.h"
#include "obs/metrics.h"
#include "runtime/camera.h"
#include "runtime/server.h"

int main() {
  using namespace snappix;

  std::printf("=== SNAPPIX fleet serving demo ===\n\n");

  // 1. A small system: 16x16 frames, T = 8 slots, 4 motion classes.
  core::SnapPixConfig cfg;
  cfg.image = 16;
  cfg.frames = 8;
  cfg.num_classes = 4;
  cfg.seed = 21;
  core::SnapPixSystem system(cfg);

  auto data_cfg = data::ucf101_like(/*frames=*/8, /*size=*/16);
  data_cfg.scene.num_classes = 4;
  data_cfg.train_per_class = 32;
  data_cfg.test_per_class = 8;
  const data::VideoDataset dataset(data_cfg);

  std::printf("learning CE pattern + training AR head...\n");
  train::PatternTrainConfig pattern_cfg;
  pattern_cfg.steps = 40;
  pattern_cfg.batch_size = 8;
  system.learn_pattern(dataset, pattern_cfg);
  train::TrainConfig train_cfg;
  train_cfg.epochs = 12;
  train_cfg.batch_size = 16;
  train_cfg.lr = 2e-3F;
  const auto fit = system.train_action_recognition(dataset, train_cfg);
  std::printf("  test accuracy (offline): %.2f\n\n", static_cast<double>(fit.test_metric));

  // 2. A heterogeneous 7-camera fleet. Cameras 0-4 share the system's learned
  // pattern through ONE shared instance; camera 5 carries its own pattern
  // (the server caches a second engine entry for it); camera 6 requests
  // reconstruction instead of classification.
  data::SceneConfig scene = data_cfg.scene;
  runtime::ServerConfig server_cfg;
  server_cfg.batch.max_batch = 6;
  server_cfg.batch.max_delay = std::chrono::microseconds(3000);
  server_cfg.cache.capacity = 8;
  server_cfg.shards = 2;  // two consumer workers; idle one steals tail batches
  server_cfg.trace.enabled = true;  // per-frame spans for every 2nd frame/camera
  server_cfg.trace.sample_every = 2;
  runtime::InferenceServer server(system, server_cfg);

  const runtime::PatternRef learned = system.pattern_ref();
  for (int cam = 0; cam < 3; ++cam) {
    server.add_camera(std::make_unique<runtime::SyntheticCameraSource>(
        cam, scene, learned, 900 + static_cast<std::uint64_t>(cam)));
  }
  {
    // Camera 3 serves through the int8 tier: the server calibrates a
    // QuantizedVitEngine for the learned pattern on first touch (seeded, so
    // rebuilds are identical) and keeps it cached next to the fp32 engine.
    auto int8_camera = std::make_unique<runtime::DatasetCameraSource>(
        3, std::make_shared<const data::VideoDataset>(data_cfg), learned);
    int8_camera->set_precision(runtime::Precision::kInt8);
    server.add_camera(std::move(int8_camera));
  }
  server.add_camera(std::make_unique<runtime::SensorCameraSource>(
      4, system.default_sensor_config(), scene, learned, 906));
  {
    Rng pattern_rng(77);
    server.add_camera(std::make_unique<runtime::SyntheticCameraSource>(
        5, scene, runtime::make_pattern_ref(ce::CePattern::random(8, cfg.tile, pattern_rng, 0.5F)),
        907));
  }
  {
    auto rec_camera =
        std::make_unique<runtime::SyntheticCameraSource>(6, scene, learned, 908);
    rec_camera->set_task(runtime::Task::kReconstruct);
    server.add_camera(std::move(rec_camera));
  }

  // 3. Stream 25 frames per camera through the batched server. While run()
  // blocks, a helper thread takes a live registry snapshot — every write in
  // the registry is lock-free, so this never stalls a shard worker.
  std::printf("serving %zu cameras x 25 frames (2 patterns, AR+REC mix)...\n",
              server.camera_count());
  std::thread monitor([&server] {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    const obs::MetricsSnapshot live = server.metrics_snapshot();
    std::uint64_t frames = 0;
    std::uint64_t batches = 0;
    for (const auto& [name, value] : live.counters) {
      if (name == "snappix_frames_total") {
        frames = value;
      } else if (name == "snappix_batches_total") {
        batches = value;
      }
    }
    std::printf("  [mid-run snapshot] %llu frames served in %llu batches so far\n",
                static_cast<unsigned long long>(frames),
                static_cast<unsigned long long>(batches));
  });
  const auto results = server.run(/*frames_per_camera=*/25);
  monitor.join();

  int correct = 0;
  int labelled = 0;
  int reconstructed = 0;
  for (const auto& r : results) {
    if (r.task == runtime::Task::kReconstruct) {
      ++reconstructed;
      continue;
    }
    if (r.label >= 0) {
      ++labelled;
      correct += r.predicted == r.label ? 1 : 0;
    }
  }

  // 4. Report.
  const auto summary = server.summary();
  std::printf("\n%s", runtime::to_string(summary).c_str());
  std::printf("  streaming accuracy: %d/%d (%.2f); %d clips reconstructed\n", correct,
              labelled, labelled > 0 ? static_cast<double>(correct) / labelled : 0.0,
              reconstructed);
  const auto wifi =
      server.fleet_energy(energy::EnergyModel{}, energy::WirelessTech::kPassiveWifi);
  const auto lora =
      server.fleet_energy(energy::EnergyModel{}, energy::WirelessTech::kLoraBackscatter);
  std::printf("  fleet energy, passive Wi-Fi: %.4f J vs %.4f J conventional (%.1fx saved)\n",
              wifi.snappix_j, wifi.conventional_j, wifi.saving_factor);
  std::printf("  fleet energy, LoRa backscatter: %.2f J vs %.2f J conventional (%.1fx saved)\n",
              lora.snappix_j, lora.conventional_j, lora.saving_factor);

  // 5. Export the frame-lifecycle trace for Perfetto / chrome://tracing.
  server.write_trace("fleet_trace.json");
  std::printf("  wrote fleet_trace.json (%zu trace events, %zu dropped) — open in Perfetto\n",
              server.trace_recorder()->all_events().size(),
              server.trace_recorder()->dropped_events());
  return 0;
}

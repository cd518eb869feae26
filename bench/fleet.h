// The serving benches' shared harness (streaming_throughput, obs_overhead,
// saturation, codec_frontier, resilience): the edge-node serving system,
// recorded replay streams, the 4-pattern AR+REC fleet, one arm runner, the
// ground-truth eval clips, the interleaved-round timing helpers, the FAIL
// reporter and the BENCH_*.json writer.
// The batch-1 reference oracle and the per-camera conservation ledger, which
// the tests use too, live in tests/serving_fixtures.h.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ce/pattern.h"
#include "core/snappix.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "runtime/camera.h"
#include "runtime/server.h"
#include "util/rng.h"

namespace snappix::bench {

// Edge-node geometry: 16x16 thumbnails, T = 8 slots, 8x8 CE tile (2x2 ViT
// tokens): the sensor-fleet operating point where per-frame serving
// overhead, not raw FLOPs, dominates the server bill.
inline constexpr int kStreamImage = 16;
inline constexpr int kStreamFrames = 8;
// Motion classes of the synthetic scenes the scene-driven fleets record.
inline constexpr int kSceneClasses = 6;

// The serving system: `image`x`image`, T = 8 slots, seed 42. The
// scene-driven fleets classify kSceneClasses classes; the random-replay
// fleets (saturation, resilience) use 4 and keep the default pattern.
inline core::SnapPixConfig serving_config(std::int64_t classes = kSceneClasses,
                                          std::int64_t image = kStreamImage) {
  core::SnapPixConfig cfg;
  cfg.image = image;
  cfg.frames = kStreamFrames;
  cfg.num_classes = classes;
  cfg.seed = 42;
  return cfg;
}

// The CE pattern the scene-driven fleets install as the system pattern.
inline ce::CePattern fleet_pattern(const core::SnapPixConfig& cfg) {
  Rng rng(7);
  return ce::CePattern::random(cfg.frames, cfg.tile, rng, 0.5F);
}

// Camera `camera`'s synthetic scene; speeds vary with camera % 4 so the
// fleet is heterogeneous.
inline data::SceneConfig camera_scene(const core::SnapPixConfig& cfg, int camera) {
  data::SceneConfig scene;
  scene.frames = cfg.frames;
  scene.height = static_cast<int>(cfg.image);
  scene.width = static_cast<int>(cfg.image);
  scene.num_classes = kSceneClasses;
  scene.speed = 1.0F + 0.2F * static_cast<float>(camera % 4);
  return scene;
}

// One camera's pre-coded stream. Every arm replays the same bytes, so arms
// measure serving, not scene synthesis.
struct RecordedStream {
  std::vector<Tensor> coded;  // (H, W) exposure-normalized frames
  std::vector<std::int64_t> labels;
};

// Records `frames` frames for each of `cameras` cameras: camera c codes
// camera_scene(c) with patterns[c % patterns.size()], seeded seed + c.
inline std::vector<RecordedStream> record_streams(
    const core::SnapPixConfig& cfg, const std::vector<runtime::PatternRef>& patterns,
    std::uint64_t seed, int cameras, std::int64_t frames) {
  std::vector<RecordedStream> streams;
  for (int cam = 0; cam < cameras; ++cam) {
    const runtime::PatternRef& pattern = patterns[static_cast<std::size_t>(cam) % patterns.size()];
    runtime::SyntheticCameraSource source(cam, camera_scene(cfg, cam), pattern,
                                          seed + static_cast<std::uint64_t>(cam));
    RecordedStream stream;
    for (std::int64_t i = 0; i < frames; ++i) {
      runtime::Frame frame = source.next_frame();
      stream.coded.push_back(std::move(frame.coded));
      stream.labels.push_back(frame.label);
    }
    streams.push_back(std::move(stream));
  }
  return streams;
}

inline std::unique_ptr<runtime::ReplayCameraSource> replay_camera(
    int id, const runtime::PatternRef& pattern, const RecordedStream& stream) {
  return std::make_unique<runtime::ReplayCameraSource>(id, pattern, stream.coded,
                                                       stream.labels);
}

// The heterogeneous fleet: 8 cameras over 4 CE patterns drawn from Rng(19).
// Camera c codes with pattern c % 4 from seed 2000 + c, and the last two
// cameras request reconstruction (an AR+REC mix). The pattern-cache,
// sharded, framed, mixed-precision and tracing arms all serve it, so their
// bit-identity gates compare one fleet.
struct HeteroFleet {
  static constexpr int kCameras = 8;
  static constexpr int kPatterns = 4;

  HeteroFleet(const core::SnapPixConfig& cfg, std::int64_t frames) {
    Rng rng(19);
    for (int p = 0; p < kPatterns; ++p) {
      patterns.push_back(
          runtime::make_pattern_ref(ce::CePattern::random(cfg.frames, cfg.tile, rng, 0.5F)));
    }
    streams = record_streams(cfg, patterns, 2000, kCameras, frames);
  }

  std::unique_ptr<runtime::ReplayCameraSource> camera(int cam) const {
    auto camera = replay_camera(cam, patterns[static_cast<std::size_t>(cam % kPatterns)],
                                streams[static_cast<std::size_t>(cam)]);
    if (cam >= kCameras - 2) {
      camera->set_task(runtime::Task::kReconstruct);
    }
    return camera;
  }

  std::vector<runtime::PatternRef> patterns;
  std::vector<RecordedStream> streams;
};

// One served arm. The server stays alive for post-run reads (health
// snapshots, the trace export, energy pricing).
struct ArmRun {
  std::unique_ptr<runtime::InferenceServer> server;
  std::vector<runtime::TaskResult> results;
  runtime::RuntimeSummary summary;
  std::string metrics;        // obs::to_json(server->metrics_snapshot())
  double wall_seconds = 0.0;  // around run()
};

using CameraFactory = std::function<std::unique_ptr<runtime::CameraSource>(int camera)>;

// Serves cameras make_camera(0), make_camera(1), ... through a server built
// from `config`, camera i for frames_per_camera[i] frames.
inline ArmRun run_arm(const core::SnapPixSystem& system, const runtime::ServerConfig& config,
                      const CameraFactory& make_camera,
                      const std::vector<std::int64_t>& frames_per_camera) {
  ArmRun arm;
  arm.server = std::make_unique<runtime::InferenceServer>(system, config);
  for (std::size_t cam = 0; cam < frames_per_camera.size(); ++cam) {
    arm.server->add_camera(make_camera(static_cast<int>(cam)));
  }
  const auto t0 = std::chrono::steady_clock::now();
  arm.results = arm.server->run(frames_per_camera);
  arm.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  arm.summary = arm.server->summary();
  arm.metrics = obs::to_json(arm.server->metrics_snapshot());
  return arm;
}

inline ArmRun run_arm(const core::SnapPixSystem& system, const runtime::ServerConfig& config,
                      const CameraFactory& make_camera, int cameras,
                      std::int64_t frames_per_camera) {
  return run_arm(system, config, make_camera,
                 std::vector<std::int64_t>(static_cast<std::size_t>(cameras), frames_per_camera));
}

// Ground-truth clips for fidelity numbers (REC PSNR) and their coded frames:
// `count` synthetic scenes at the system's geometry drawn from Rng(31337),
// CE-encoded by the system.
struct EvalClips {
  Tensor videos;  // (N, T, H, W)
  Tensor coded;   // (N, H, W)
};

inline EvalClips eval_clips(const core::SnapPixSystem& system, std::int64_t count) {
  NoGradGuard guard;
  const core::SnapPixConfig& cfg = system.config();
  data::SceneConfig scene;
  scene.frames = cfg.frames;
  scene.height = static_cast<int>(cfg.image);
  scene.width = static_cast<int>(cfg.image);
  scene.num_classes = kSceneClasses;
  data::SyntheticVideoGenerator generator(scene);
  Rng rng(31337);
  const std::int64_t clip = cfg.frames * cfg.image * cfg.image;
  std::vector<float> clips(static_cast<std::size_t>(count * clip));
  for (std::int64_t i = 0; i < count; ++i) {
    const data::VideoSample sample = generator.sample(rng);
    std::copy(sample.video.data().begin(), sample.video.data().end(), clips.begin() + i * clip);
  }
  EvalClips out;
  out.videos =
      Tensor::from_vector(std::move(clips), Shape{count, cfg.frames, cfg.image, cfg.image});
  out.coded = system.encode(out.videos);
  return out;
}

// --- interleaved rounds ------------------------------------------------------
//
// A timing gate reads arms run as rounds: each arm once per round, with the
// arm that goes first rotating, and the gate takes the median of the
// per-round ratios, so each ratio sees one host phase.

inline double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// Runs round `round`: every arm once, starting at arm round % arms.size().
inline void run_round(int round, const std::vector<std::function<void()>>& arms) {
  for (std::size_t i = 0; i < arms.size(); ++i) {
    arms[(static_cast<std::size_t>(round) + i) % arms.size()]();
  }
}

// One arm against another per round (num[r] / den[r], e.g. fp32 seconds /
// int8 seconds for the same work, or sharded fps / single fps): the median a
// gate reads, and the spread.
struct RoundRatios {
  double median = 0.0, min = 0.0, max = 0.0;
};

inline RoundRatios round_ratios(const std::vector<double>& num, const std::vector<double>& den) {
  std::vector<double> ratios;
  for (std::size_t r = 0; r < num.size() && r < den.size(); ++r) {
    ratios.push_back(den[r] > 0.0 ? num[r] / den[r] : 0.0);
  }
  if (ratios.empty()) {
    return {};
  }
  const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
  return {median_of(ratios), *lo, *hi};
}

// The one FAIL reporter: a failed gate prints "FAIL: <message>" and makes
// the bench exit non-zero.
class Gate {
 public:
  __attribute__((format(printf, 3, 4))) bool operator()(bool pass, const char* format, ...) {
    if (!pass) {
      std::va_list args;
      va_start(args, format);
      std::printf("FAIL: ");
      std::vprintf(format, args);
      std::printf("\n");
      va_end(args);
      ok_ = false;
    }
    return pass;
  }
  bool ok() const { return ok_; }
  int exit_code() const { return ok_ ? 0 : 1; }

 private:
  bool ok_ = true;
};

// One BENCH_*.json object. Every double renders through obs::json_number
// (never NaN or Infinity) and every string through obs::json_escape.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, double value) {
    return raw(key, obs::json_number(value));
  }
  JsonObject& add(const std::string& key, bool value) { return raw(key, value ? "true" : "false"); }
  JsonObject& add(const std::string& key, const std::string& value) {
    return raw(key, "\"" + obs::json_escape(value) + "\"");
  }
  JsonObject& add(const std::string& key, const char* value) {
    return add(key, std::string(value));
  }
  JsonObject& add(const std::string& key, const JsonObject& value) { return raw(key, value.str()); }
  template <typename Int, typename = std::enable_if_t<std::is_integral_v<Int> &&
                                                      !std::is_same_v<Int, bool>>>
  JsonObject& add(const std::string& key, Int value) {
    return raw(key, std::to_string(value));
  }
  // Pre-rendered JSON: a metrics snapshot or an array.
  JsonObject& raw(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
    return *this;
  }

  std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += (i > 0 ? ", " : "") + field(i);
    }
    return out + "}";
  }

  // Writes the object, one top-level key per line, and says so.
  void write(const std::string& path) const {
    std::ofstream file(path);
    file << "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      file << (i > 0 ? "," : "") << "\n  " << field(i);
    }
    file << "\n}\n";
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  std::string field(std::size_t i) const {
    return "\"" + obs::json_escape(fields_[i].first) + "\": " + fields_[i].second;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

inline std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i > 0 ? ", " : "") + items[i];
  }
  return out + "]";
}

}  // namespace snappix::bench

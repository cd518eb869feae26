#include "fleet.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "ce/encode.h"
#include "codec/bitplane.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "transport/link.h"

namespace perfbench {

namespace rt = snappix::runtime;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

// Each camera's ground-truth clips take this many bytes, so replay cycles
// through 256 scenes at 32x32, T=16 and 2048 at 16x16, T=8. More scenes
// where they are cheap keep the quality metrics' seed-to-seed spread small.
constexpr std::int64_t kClipBytes = std::int64_t{16} << 20;
// Shard 0 reads the e2e histogram at its first batch after each of these
// intervals; the reads cut a round into latency windows.
constexpr double kLatencyWindowS = 0.05;

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const WorkloadSpec kWorkloads[] = {
    // Server-bound: the queues never drain.
    {"ar_fp32",
     32,
     16,
     {{Task::kClassify, Precision::kFp32, false, 0, 4000},
      {Task::kClassify, Precision::kFp32, false, 0, 4000}}},
    // Producer-bound. Producer costs differ (depth-8 vs full-depth link), so
    // the cameras get frame counts in proportion to their rates and finish
    // together. All four threads are busy, so a host slowdown halves whole
    // stretches of a run: over the recorded seeds its medians spread up to
    // 33% (rate) and 47% (latency), the 90th-percentile rate and the
    // 10th-percentile latency window at most 11% and 13% (README.md).
    {"codec_edge",
     16,
     8,
     {{Task::kClassify, Precision::kInt8, true, 8, 7000},
      {Task::kReconstruct, Precision::kFp32, true, 0, 5000}},
     0.9,
     0.1},
};

Tensor encode_clip(const Tensor& clip, const snappix::ce::CePattern& pattern) {
  const auto& s = clip.shape();
  const Tensor batched = Tensor::from_vector(clip.data(), snappix::Shape{1, s[0], s[1], s[2]});
  const Tensor coded = snappix::ce::normalize_by_exposure(
      snappix::ce::ce_encode(batched, pattern), pattern);
  return Tensor::from_vector(coded.data(), snappix::Shape{s[1], s[2]});
}

// The bench's camera: replays its inputs and logs when each frame was asked
// for. The log is written only by the camera's producer thread and read
// after run() has joined it.
class BenchCamera final : public rt::CameraSource {
 public:
  BenchCamera(int id, const CameraInputs& inputs, const CameraSpec& spec, std::int64_t frames,
              SpanLane* lane)
      : rt::CameraSource(id, inputs.pattern), inputs_(inputs), encode_(spec.codec_link),
        lane_(lane) {
    set_task(spec.task);
    set_precision(spec.precision);
    if (spec.codec_link) {
      snappix::transport::LinkConfig link;
      link.codec = true;
      set_framed(link);
      set_codec_planes(spec.codec_planes);
    }
    entries_.reserve(static_cast<std::size_t>(frames));
    if (lane_ != nullptr) {
      lane_->reserve(static_cast<std::size_t>(frames) * 2);
    }
  }

  std::vector<double> take_entries() { return std::move(entries_); }

 protected:
  rt::Frame capture_frame() override {
    const double entry = now_s();
    const std::int64_t seq = next_sequence_;
    const std::uint64_t id = (static_cast<std::uint64_t>(id_) << 32) |
                             static_cast<std::uint64_t>(seq & 0xFFFFFFFF);
    const std::int64_t span = lane_ != nullptr ? lane_->begin("capture", entry, id) : -1;

    const auto i = static_cast<std::size_t>(seq % static_cast<std::int64_t>(inputs_.coded.size()));
    rt::Frame frame = begin_frame(inputs_.coded[i].shape()[0], inputs_.coded[i].shape()[1]);
    if (encode_) {
      const std::int64_t ce = lane_ != nullptr ? lane_->begin("ce_encode", now_s(), id, span) : -1;
      frame.coded = encode_normalized(inputs_.clips[i]);
      if (ce >= 0) {
        lane_->end(ce, now_s());
      }
    } else {
      frame.coded = inputs_.coded[i];
    }
    frame.label = inputs_.labels[i];
    if (span >= 0) {
      lane_->end(span, now_s());
    }
    entries_.push_back(entry);
    return frame;
  }

 private:
  const CameraInputs& inputs_;
  bool encode_;
  SpanLane* lane_;
  std::vector<double> entries_;
};

rt::ServerConfig server_config(bool traced) {
  rt::ServerConfig cfg;
  cfg.shards = 2;
  // Two batches deep: a shard that falls behind in a host stall blocks its
  // producer instead of building a backlog whose drain time, not the serving
  // path, would then set latency_ms.
  cfg.queue_capacity = 16;
  // One camera per shard: stealing would let an idle shard build a second
  // engine for its sibling's key and split batches by timing.
  cfg.work_stealing = false;
  if (traced) {
    cfg.trace.enabled = true;
    cfg.trace.sample_every = 1;
  }
  return cfg;
}

std::unique_ptr<BenchCamera> make_camera(const WorkloadSpec& spec, const Inputs& inputs, int c,
                                         std::int64_t frames, SpanLane* lane) {
  return std::make_unique<BenchCamera>(c, inputs.cameras[c], spec.cameras[c], frames, lane);
}

// Per-frame lifecycle from the server's trace (async events, cat "frame").
void collect_frame_times(const rt::InferenceServer& server, RoundLog& log) {
  enum Stage { kFrame, kCapture, kQueue, kAssembly, kInfer, kStages };
  struct Times {
    std::int64_t b[kStages] = {0, 0, 0, 0, 0};
    std::int64_t e[kStages] = {0, 0, 0, 0, 0};
    int seen = 0;
  };
  const auto stage_of = [](const std::string& name) {
    if (name == "frame") return kFrame;
    if (name == "capture") return kCapture;
    if (name == "queue_wait") return kQueue;
    if (name == "batch_assembly") return kAssembly;
    if (name == "infer") return kInfer;
    return kStages;
  };
  std::unordered_map<std::uint64_t, Times> frames;
  for (const snappix::obs::TraceEvent& ev : server.trace_recorder()->all_events()) {
    if (ev.cat == "frame") {
      const Stage stage = stage_of(ev.name);
      if (stage == kStages) {
        continue;
      }
      Times& t = frames[ev.id];
      (ev.ph == 'b' ? t.b : t.e)[stage] = ev.ts_ns;
      ++t.seen;
    } else if (ev.ph == 'X' && ev.name == "serve_batch" && ev.tid < 2) {
      log.shard_busy_s[ev.tid] += 1e-9 * static_cast<double>(ev.dur_ns);
    }
  }
  log.frame_times.reserve(frames.size());
  for (const auto& entry : frames) {
    const Times& t = entry.second;
    if (t.seen != 2 * kStages) {
      log.errors.push_back("trace lost part of a frame's lifecycle");
      continue;
    }
    RoundLog::FrameTimes ft;
    ft.e2e = 1e-9 * static_cast<double>(t.e[kFrame] - t.b[kFrame]);
    for (int s = kCapture; s < kStages; ++s) {
      ft.stages += 1e-9 * static_cast<double>(t.e[s] - t.b[s]);
    }
    ft.assembly = 1e-9 * static_cast<double>(t.e[kAssembly] - t.b[kAssembly]);
    log.frame_times.push_back(ft);
  }
}

}  // namespace

double now_s() { return std::chrono::duration<double>(Clock::now() - kEpoch).count(); }

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

std::string workload_names() {
  std::string names;
  for (const WorkloadSpec& spec : kWorkloads) {
    names += (names.empty() ? "" : ", ") + spec.name;
  }
  return names;
}

// The served model is part of the system under test, not an input: its
// weights stay fixed while the seed varies the scenes and patterns.
snappix::core::SnapPixConfig system_config(const WorkloadSpec& spec) {
  snappix::core::SnapPixConfig cfg;
  cfg.image = spec.image;
  cfg.frames = spec.slots;
  return cfg;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  snappix::NoGradGuard no_grad;
  Inputs inputs;
  inputs.system = std::make_unique<snappix::core::SnapPixSystem>(system_config(spec));
  snappix::data::SceneConfig scene;
  scene.frames = spec.slots;
  scene.height = spec.image;
  scene.width = spec.image;
  const snappix::data::SyntheticVideoGenerator generator(scene);
  const snappix::Shape batch1{1, spec.image, spec.image};
  const std::int64_t clips =
      kClipBytes / (static_cast<std::int64_t>(sizeof(float)) * spec.slots * spec.image * spec.image);
  for (int c = 0; c < 2; ++c) {
    CameraInputs& cam = inputs.cameras[c];
    const CameraSpec& cs = spec.cameras[c];
    cam.pattern = rt::make_pattern_ref(pattern_for_shard(seed, c, 2, spec.slots, 8));
    snappix::Rng rng(seed * 7919ULL + 17ULL + static_cast<std::uint64_t>(c));
    for (std::int64_t k = 0; k < clips; ++k) {
      snappix::data::VideoSample sample = generator.sample(rng);
      const double t0 = now_s();
      Tensor coded = encode_clip(sample.video, *cam.pattern);
      cam.ce_encode_s.push_back(now_s() - t0);
      if (cs.task == Task::kClassify) {
        cam.reference.push_back(
            inputs.system->classify_coded(Tensor::from_vector(coded.data(), batch1))[0]);
      } else if (cs.precision == Precision::kFp32) {
        // A codec link always carries REC frames at full depth, which
        // delivers exactly the int16 round trip.
        const Tensor received =
            cs.codec_link ? snappix::codec::dequantize_frame(snappix::codec::quantize_frame(coded))
                          : coded;
        const Tensor video =
            inputs.system->reconstruct_coded(Tensor::from_vector(received.data(), batch1));
        cam.rec_reference.push_back(Tensor::from_vector(video.data(), sample.video.shape()));
      }
      cam.coded.push_back(std::move(coded));
      cam.clips.push_back(std::move(sample.video));
      cam.labels.push_back(sample.label);
    }
  }
  return inputs;
}

RoundLog run_round(const WorkloadSpec& spec, const Inputs& inputs, bool traced,
                   SpanLog* spans) {
  RoundLog log;
  rt::ServerConfig cfg = server_config(traced);
  SpanLane* hook_lanes[2] = {nullptr, nullptr};
  SpanLane* camera_lanes[2] = {nullptr, nullptr};
  for (int s = 0; s < 2; ++s) {
    log.offered[s] = spec.cameras[s].frames;
    log.batches[s].reserve(static_cast<std::size_t>(log.offered[s]) + 1);
    if (traced && spans != nullptr) {
      hook_lanes[s] = &spans->lane("shard " + std::to_string(s) + " before_batch");
      hook_lanes[s]->reserve(static_cast<std::size_t>(spec.cameras[s].frames));
      camera_lanes[s] = &spans->lane("camera " + std::to_string(s));
    }
  }
  // Each shard worker appends only to its own vectors; run() joins the
  // workers before anything reads them. Shard 0 also reads the e2e
  // histogram every kLatencyWindowS.
  const rt::InferenceServer* server_ptr = nullptr;
  double next_read = 0.0;
  log.e2e_reads.reserve(1024);
  cfg.before_batch = [&log, hook_lanes, &server_ptr, &next_read](
                         std::size_t shard, const rt::BatchKey&, std::size_t size) {
    const double t = now_s();
    if (shard == 0 && t >= next_read && log.e2e_reads.size() < log.e2e_reads.capacity()) {
      next_read = t + kLatencyWindowS;
      HistogramRead read;
      read.t = t;
      const snappix::obs::MetricsSnapshot snap = server_ptr->metrics_snapshot();
      for (const snappix::obs::HistogramSnapshot& h : snap.histograms) {
        if (h.name == "snappix_e2e_seconds") {
          read.sum = h.sum;
          read.count = h.count;
        }
      }
      log.e2e_reads.push_back(read);
    }
    std::vector<BatchMark>& marks = log.batches[shard];
    marks.push_back({t, static_cast<int>(size)});
    if (SpanLane* lane = hook_lanes[shard]) {
      const std::uint64_t id = (static_cast<std::uint64_t>(shard) << 32) | (marks.size() - 1);
      lane->end(lane->begin("before_batch", t, id), now_s());
    }
  };

  rt::InferenceServer server(*inputs.system, cfg);
  server_ptr = &server;
  BenchCamera* cameras[2] = {nullptr, nullptr};
  for (int c = 0; c < 2; ++c) {
    auto camera = make_camera(spec, inputs, c, log.offered[c], camera_lanes[c]);
    cameras[c] = camera.get();
    server.add_camera(std::move(camera));
  }
  log.start = now_s();
  std::vector<rt::TaskResult> results =
      server.run(std::vector<std::int64_t>{log.offered[0], log.offered[1]});
  log.done = now_s();
  log.summary = server.summary();
  for (int c = 0; c < 2; ++c) {
    log.captures[c] = cameras[c]->take_entries();
  }
  for (const snappix::obs::HistogramSnapshot& h : server.metrics_snapshot().histograms) {
    if (h.name == "snappix_e2e_seconds") {
      log.e2e_sum_s = h.sum;
    }
  }

  // Output checks and quality, frame by frame.
  std::int64_t served[2] = {0, 0};
  for (const rt::TaskResult& r : results) {
    if (r.camera_id < 0 || r.camera_id > 1 || r.sequence < 0 ||
        r.sequence >= log.offered[r.camera_id]) {
      log.errors.push_back("result for an unknown camera or sequence");
      continue;
    }
    const int c = r.camera_id;
    const CameraInputs& cam = inputs.cameras[c];
    const auto i = static_cast<std::size_t>(r.sequence % static_cast<std::int64_t>(cam.coded.size()));
    ++served[c];
    log.results_bytes += sizeof(rt::TaskResult);
    if (r.task == Task::kClassify) {
      ++log.classify_served;
      const bool agree = r.predicted == cam.reference[i];
      log.classify_agree += agree ? 1 : 0;
      // fp32 in memory is bit-exact: every answer must equal batch-1.
      if (!agree && r.precision == Precision::kFp32 && !spec.cameras[c].codec_link) {
        std::ostringstream os;
        os << "camera " << c << " frame " << r.sequence << ": served class " << r.predicted
           << " != batch-1 classify_coded " << cam.reference[i];
        log.errors.push_back(os.str());
      }
    } else {
      log.results_bytes += static_cast<std::uint64_t>(r.reconstruction.numel()) * sizeof(float);
      const snappix::Shape& want = cam.clips[i].shape();
      if (!r.reconstruction.defined() || !(r.reconstruction.shape() == want)) {
        log.errors.push_back("reconstruction has the wrong shape");
        continue;
      }
      if (!cam.rec_reference.empty() &&
          std::memcmp(r.reconstruction.data().data(), cam.rec_reference[i].data().data(),
                      r.reconstruction.data().size() * sizeof(float)) != 0) {
        std::ostringstream os;
        os << "camera " << c << " frame " << r.sequence
           << ": served reconstruction differs from batch-1 reconstruct_coded";
        log.errors.push_back(os.str());
      }
      const double psnr = snappix::eval::psnr_db(r.reconstruction, cam.clips[i]);
      if (!std::isfinite(psnr)) {
        log.errors.push_back("reconstruction PSNR is not finite");
        continue;
      }
      ++log.rec_served;
      log.rec_psnr_sum += psnr;
    }
  }

  // Conservation, camera by camera, to the frame.
  for (int c = 0; c < 2; ++c) {
    Tally& t = log.tally[c];
    t.offered = log.offered[c];
    t.served = served[c];
    for (const auto& [id, shed] : log.summary.shed_cameras) {
      if (id == c) t.shed = static_cast<std::int64_t>(shed.queue_full + shed.deadline);
    }
    for (const auto& [id, tc] : log.summary.transport_cameras) {
      if (id == c) t.wire_dropped = static_cast<std::int64_t>(tc.dropped_frames);
    }
    for (const auto& [id, hc] : log.summary.health_cameras) {
      if (id == c) t.quarantined = static_cast<std::int64_t>(hc.quarantine_drops);
    }
    if (!t.balanced()) {
      std::ostringstream os;
      os << "camera " << c << " conservation broke: offered " << t.offered << " != served "
         << t.served << " + shed " << t.shed << " + wire-dropped " << t.wire_dropped
         << " + quarantined " << t.quarantined;
      log.errors.push_back(os.str());
    }
  }
  if (traced) {
    collect_frame_times(server, log);
  }
  return log;
}

double cold_start(const WorkloadSpec& spec, const Inputs& inputs) {
  const double t0 = now_s();
  const snappix::core::SnapPixSystem system(system_config(spec));
  rt::InferenceServer server(system, server_config(false));
  for (int c = 0; c < 2; ++c) {
    server.add_camera(make_camera(spec, inputs, c, 1, nullptr));
  }
  const std::vector<rt::TaskResult> results = server.run(1);
  const double elapsed = now_s() - t0;
  if (results.size() != 2) {
    throw std::runtime_error("cold start served " + std::to_string(results.size()) +
                             " of 2 frames");
  }
  return elapsed;
}

}  // namespace perfbench

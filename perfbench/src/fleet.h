// Fleet workloads for the benchmark: what each one serves, the inputs it is
// built from, the bench-local camera that feeds it, and one served round.
//
// Every workload runs 2 cameras on 2 shards, each camera routed to its own
// shard (its CE pattern is picked so pattern_id % 2 is its index) and work
// stealing off, so each shard serves exactly one serving key. That is 4
// threads (2 producers, 2 shard workers) on a 4-vCPU host. A run is a
// sequence of ROUNDS: each round builds a fresh InferenceServer and serves a
// fixed number of frames per camera. Fixed frame counts bound the memory
// InferenceServer::run holds (every TaskResult, reconstructions included)
// independently of host speed; repeating rounds fills the measured time.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/snappix.h"
#include "estimators.h"
#include "runtime/camera.h"
#include "runtime/server.h"
#include "spans.h"

namespace perfbench {

using snappix::Tensor;
using snappix::runtime::Precision;
using snappix::runtime::Task;

struct CameraSpec {
  Task task = Task::kClassify;
  Precision precision = Precision::kFp32;
  // True: the camera renders pre-generated clips, CE-encodes them at capture
  // and ships them over an entropy-coded framed link. False: it replays
  // pre-coded frames in memory.
  bool codec_link = false;
  int codec_planes = 0;       // classify depth on the codec link (0 = full)
  std::int64_t frames = 0;    // frames per round
};

struct WorkloadSpec {
  std::string name;
  int image = 32;
  int slots = 16;
  CameraSpec cameras[2];
  // fleet_fps: per shard, this quantile of its 16-batch span rates, summed
  // over shards. latency_ms: this quantile of the 0.05 s window means. The
  // median unless recorded spreads show it too noisy (README.md).
  double rate_quantile = 0.5;
  double latency_quantile = 0.5;
};

const WorkloadSpec* find_workload(const std::string& name);
std::string workload_names();

// One camera's inputs, generated from the run seed.
struct CameraInputs {
  snappix::runtime::PatternRef pattern;
  std::vector<Tensor> clips;                // (T, H, W) ground-truth video
  std::vector<Tensor> coded;                // (H, W) clean exposure-normalized coded image
  std::vector<std::int64_t> labels;
  std::vector<std::int64_t> reference;      // fp32 full-depth batch-1 classify_coded
  // fp32 REC cameras only: batch-1 reconstruct_coded of the frame the server
  // receives (the full-depth codec round trip on a codec link), (T, H, W).
  std::vector<Tensor> rec_reference;
  std::vector<double> ce_encode_s;          // time to CE-encode each clip
};

struct Inputs {
  std::unique_ptr<snappix::core::SnapPixSystem> system;
  CameraInputs cameras[2];
};

snappix::core::SnapPixConfig system_config(const WorkloadSpec& spec);
// Builds patterns, clips, coded frames and reference predictions from `seed`.
Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

// Everything one served round leaves behind for the metrics.
struct RoundLog {
  double start = 0.0;
  double done = 0.0;
  std::vector<BatchMark> batches[2];         // per shard, in time order
  std::vector<double> captures[2];           // per camera, by sequence: capture_frame entry
  std::int64_t offered[2] = {0, 0};
  Tally tally[2];
  double e2e_sum_s = 0.0;                    // snappix_e2e_seconds sum after run()
  // snappix_e2e_seconds as shard 0 read it at the start of a batch every
  // kLatencyWindowS.
  std::vector<HistogramRead> e2e_reads;
  snappix::runtime::RuntimeSummary summary;
  std::uint64_t results_bytes = 0;           // what run() held when it returned
  std::int64_t classify_served = 0;
  std::int64_t classify_agree = 0;
  std::int64_t rec_served = 0;
  double rec_psnr_sum = 0.0;
  std::vector<std::string> errors;           // output-check failures

  // Traced rounds only: every served frame's lifecycle from the server's own
  // trace (all frames sampled), in seconds.
  struct FrameTimes {
    double e2e = 0.0;          // capture start -> inference end
    double stages = 0.0;       // capture + queue wait + batch assembly + infer
    double assembly = 0.0;     // dequeue -> inference start
  };
  std::vector<FrameTimes> frame_times;
  double shard_busy_s[2] = {0.0, 0.0};       // summed serve_batch spans per shard
};

// Wall clock since the process started, in seconds.
double now_s();

// Serves one round. `traced` turns on ServerConfig::trace with every frame
// sampled and records bench spans into `spans` (may be null when untraced).
RoundLog run_round(const WorkloadSpec& spec, const Inputs& inputs, bool traced,
                   SpanLog* spans);

// One cold start: build the system, the server, the cameras and links, and
// serve one frame per camera. Returns its wall time in seconds.
double cold_start(const WorkloadSpec& spec, const Inputs& inputs);

}  // namespace perfbench

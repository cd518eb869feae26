// Observability overhead: what does frame-lifecycle tracing cost the serving
// tier, and is the trace it produces complete?
//
// Three arms serve the SAME heterogeneous replay fleet (8 cameras, 4 CE
// patterns, AR+REC mix — the BENCH_sharded geometry) through a 2-shard
// server:
//
//   untraced    ServerConfig::trace.enabled = false — the baseline. The
//               instrumentation compiles in but every ScopedSpan reduces to
//               two null checks.
//   unsampled   tracing enabled, sample_every = 0: recorder + lanes exist,
//               every frame checks its sampling gate, but no frame is
//               sampled so no span is ever emitted. This isolates the
//               always-on overhead, gated <= 2% (fps >= 0.98x untraced).
//   sampled     tracing enabled, sample_every = 8 (1-in-8 per camera),
//               gated <= 5% (fps >= 0.95x untraced).
//
// The arms run as interleaved rounds (5 in --quick, 9 in full runs), and
// each overhead gate reads the median over rounds of the per-round fps
// ratio (printed and written with its min and max). A round is a run of
// passes, each serving every arm once on a fresh server with the first arm
// rotating, until every arm has served for at least kMinArmSeconds; an
// arm's fps for the round is its frames over its seconds. So a ratio
// compares stretches long enough to resolve a few-percent cost, and the
// arms share the host's phases serve by serve. Served results must be
// bit-identical across all three arms — tracing must never change a served
// bit; that gate and the trace checks below read each arm's last serve.
//
// The sampled arm's trace is then validated structurally: zero dropped
// events, time-sorted export, a COMPLETE lifecycle (b/e "frame" +
// capture/queue_wait/batch_assembly/infer pairs) for every sampled served
// frame, and the Chrome JSON must parse (tests/json_lite.h). Writes
// BENCH_obs.json and trace_obs.json; exits non-zero if any gate fails.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/snappix.h"
#include "fleet.h"
#include "json_lite.h"
#include "obs/trace.h"
#include "runtime/server.h"
#include "serving_fixtures.h"

namespace {

using namespace snappix;
using bench::HeteroFleet;

constexpr int kCameras = HeteroFleet::kCameras;
constexpr int kSampleEvery = 8;
constexpr double kMinArmSeconds = 0.25;

struct ArmResult {
  std::string label;
  bool trace_enabled = false;
  int sample_every = 0;
  std::vector<double> fps;  // one entry per round
  double frames = 0.0;      // this round's serves so far
  double seconds = 0.0;
  bench::ArmRun last;  // the last serve: its results and its live server
};

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const std::int64_t frames_per_camera = quick ? 120 : 240;
  const int rounds = quick ? 5 : 9;
  bench::Gate gate;

  bench::print_header("Observability overhead: frame-lifecycle tracing vs untraced serving");
  std::printf("%d cameras x %lld frames, %d patterns, AR+REC mix, 2 shards, %d interleaved "
              "rounds of >= %.2f s per arm (median per-round ratio gates)\n",
              kCameras, static_cast<long long>(frames_per_camera), HeteroFleet::kPatterns,
              rounds, kMinArmSeconds);

  const core::SnapPixConfig cfg = bench::serving_config();
  core::SnapPixSystem system(cfg);
  // Every arm and rep replays the same recorded bytes, so fps differences
  // measure tracing, not scene synthesis.
  const HeteroFleet fleet(cfg, frames_per_camera);

  const auto serve = [&](ArmResult& arm) {
    runtime::ServerConfig server_cfg;
    server_cfg.batch.max_batch = kCameras;
    server_cfg.batch.max_delay = std::chrono::microseconds(2000);
    server_cfg.cache.capacity = 8;
    server_cfg.shards = 2;
    server_cfg.trace.enabled = arm.trace_enabled;
    server_cfg.trace.sample_every = arm.sample_every;
    arm.last = bench::run_arm(system, server_cfg, [&fleet](int cam) { return fleet.camera(cam); },
                              kCameras, frames_per_camera);
    arm.frames += static_cast<double>(arm.last.results.size());
    arm.seconds += arm.last.wall_seconds;
  };

  ArmResult untraced{"untraced", false, 0, {}, 0.0, 0.0, {}};
  ArmResult unsampled{"unsampled_tracing", true, 0, {}, 0.0, 0.0, {}};
  ArmResult sampled{"sampled_1_in_8", true, kSampleEvery, {}, 0.0, 0.0, {}};
  const std::vector<ArmResult*> arms = {&untraced, &unsampled, &sampled};
  for (int round = 0; round < rounds; ++round) {
    for (ArmResult* arm : arms) {
      arm->frames = arm->seconds = 0.0;
    }
    for (int pass = 0; std::any_of(arms.begin(), arms.end(), [](const ArmResult* arm) {
           return arm->seconds < kMinArmSeconds;
         });
         ++pass) {
      bench::run_round(round + pass, {[&] { serve(untraced); }, [&] { serve(unsampled); },
                                      [&] { serve(sampled); }});
    }
    for (ArmResult* arm : arms) {
      arm->fps.push_back(arm->frames / arm->seconds);
    }
  }
  for (const ArmResult* arm : arms) {
    std::printf("\n[%s] fps per round:", arm->label.c_str());
    for (const double fps : arm->fps) {
      std::printf(" %.1f", fps);
    }
    std::printf("  -> median %.1f\n", bench::median_of(arm->fps));
  }

  // --- gates: throughput deltas + bit identity ------------------------------
  const bench::RoundRatios unsampled_ratio = bench::round_ratios(unsampled.fps, untraced.fps);
  const bench::RoundRatios sampled_ratio = bench::round_ratios(sampled.fps, untraced.fps);
  const bool bits_identical =
      fixtures::first_divergence(untraced.last.results, unsampled.last.results).empty() &&
      fixtures::first_divergence(untraced.last.results, sampled.last.results).empty();

  bench::print_rule();
  std::printf("unsampled tracing: %.3fx untraced (min %.3fx, max %.3fx; gate >= 0.98)\n"
              "sampled 1-in-%d:   %.3fx untraced (min %.3fx, max %.3fx; gate >= 0.95)\n"
              "(medians over %d interleaved rounds)\n",
              unsampled_ratio.median, unsampled_ratio.min, unsampled_ratio.max, kSampleEvery,
              sampled_ratio.median, sampled_ratio.min, sampled_ratio.max, rounds);
  std::printf("served bits identical across arms: %s\n", bits_identical ? "yes" : "NO");

  // --- trace completeness: every sampled served frame has a full lifecycle --
  const obs::TraceRecorder* recorder = sampled.last.server->trace_recorder();
  const std::size_t dropped = recorder->dropped_events();
  bool sorted = true;
  std::map<std::uint64_t, std::map<std::string, std::pair<int, int>>> lifecycle;
  std::set<std::string> complete_names;
  {
    std::int64_t prev_ts = std::numeric_limits<std::int64_t>::min();
    for (const obs::TraceEvent& e : recorder->all_events()) {
      sorted &= e.ts_ns >= prev_ts;
      prev_ts = e.ts_ns;
      if (e.cat == "frame") {
        auto& pair = lifecycle[e.id][e.name];
        (e.ph == 'b' ? pair.first : pair.second) += 1;
      } else if (e.ph == 'X') {
        complete_names.insert(e.name);
      }
    }
  }
  std::size_t sampled_frames = 0;
  bool lifecycles_complete = true;
  for (const runtime::TaskResult& result : sampled.last.results) {
    if (result.sequence % kSampleEvery != 0) {
      continue;
    }
    ++sampled_frames;
    const std::uint64_t id =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(result.camera_id)) << 32) |
        static_cast<std::uint64_t>(result.sequence & 0xFFFFFFFF);
    const auto it = lifecycle.find(id);
    if (it == lifecycle.end()) {
      lifecycles_complete = false;
      continue;
    }
    for (const char* name : {"frame", "capture", "queue_wait", "batch_assembly", "infer"}) {
      const auto span = it->second.find(name);
      lifecycles_complete &= span != it->second.end() && span->second.first == 1 &&
                             span->second.second == 1;
    }
  }
  const bool stage_spans_present =
      complete_names.count("serve_batch") > 0 && complete_names.count("cache_resolve") > 0 &&
      complete_names.count("encode") > 0;
  // No extra lifecycles either: exactly one async track per sampled frame.
  lifecycles_complete &= lifecycle.size() == sampled_frames;

  const std::string trace_text = sampled.last.server->trace_json();
  bool json_valid = true;
  std::size_t trace_events = 0;
  try {
    const testing::json::Value root = testing::json::parse(trace_text);
    trace_events = root.at("traceEvents").array.size();
  } catch (const std::exception& e) {
    json_valid = false;
    std::printf("trace JSON parse error: %s\n", e.what());
  }
  {
    std::ofstream trace_file("trace_obs.json");
    trace_file << trace_text;
  }

  std::printf("sampled frames served: %zu   lifecycles complete: %s   dropped events: %zu\n",
              sampled_frames, lifecycles_complete ? "yes" : "NO", dropped);
  std::printf("trace: %zu events, time-sorted: %s, stage spans: %s, valid JSON: %s "
              "(wrote trace_obs.json)\n",
              trace_events, sorted ? "yes" : "NO", stage_spans_present ? "yes" : "NO",
              json_valid ? "yes" : "NO");

  const auto arm_json = [](const ArmResult& arm) {
    std::vector<std::string> fps;
    for (const double f : arm.fps) {
      fps.push_back(obs::json_number(f));
    }
    bench::JsonObject out;
    out.raw("fps", bench::json_array(fps)).add("median_fps", bench::median_of(arm.fps));
    return out;
  };
  bench::JsonObject()
      .add("cameras", kCameras)
      .add("frames_per_camera", frames_per_camera)
      .add("patterns", HeteroFleet::kPatterns)
      .add("rounds", rounds)
      .add("min_arm_seconds", kMinArmSeconds)
      .add("sample_every", kSampleEvery)
      .add("untraced", arm_json(untraced))
      .add("unsampled_tracing", arm_json(unsampled))
      .add("sampled_tracing", arm_json(sampled))
      .add("unsampled_fps_ratio", unsampled_ratio.median)
      .add("unsampled_fps_ratio_min", unsampled_ratio.min)
      .add("unsampled_fps_ratio_max", unsampled_ratio.max)
      .add("sampled_fps_ratio", sampled_ratio.median)
      .add("sampled_fps_ratio_min", sampled_ratio.min)
      .add("sampled_fps_ratio_max", sampled_ratio.max)
      .add("unsampled_gate", 0.98)
      .add("sampled_gate", 0.95)
      .add("bit_identical", bits_identical)
      .add("sampled_frames", sampled_frames)
      .add("trace_events", trace_events)
      .add("dropped_events", dropped)
      .add("lifecycles_complete", lifecycles_complete)
      .add("trace_time_sorted", sorted)
      .add("stage_spans_present", stage_spans_present)
      .add("trace_json_valid", json_valid)
      .write("BENCH_obs.json");

  gate(unsampled_ratio.median >= 0.98,
       "unsampled tracing %.3fx untraced (median of %d interleaved rounds; gate 0.98x)",
       unsampled_ratio.median, rounds);
  gate(sampled_ratio.median >= 0.95,
       "1-in-%d sampling %.3fx untraced (median of %d interleaved rounds; gate 0.95x)",
       kSampleEvery, sampled_ratio.median, rounds);
  gate(bits_identical, "tracing changed served bits");
  gate(lifecycles_complete && sampled_frames > 0,
       "sampled frames missing complete trace lifecycles");
  gate(dropped == 0, "trace lanes dropped %zu events", dropped);
  gate(sorted && json_valid && stage_spans_present,
       "trace export invalid (sorted=%d json=%d stages=%d)", sorted, json_valid,
       stage_spans_present);
  return gate.exit_code();
}

// Saturation bench: does overload discipline actually hold at 3x capacity?
//
// Three arms over the same replay fleet (1 realtime + 5 best-effort cameras,
// one shared pattern, 1 shard):
//
//   baseline    unloaded run (standard QoS, ample queue) — measures the
//               serving capacity C (aggregate fps) that the overload arms
//               are scaled against, and demonstrates the unloaded reference
//               behavior: zero sheds.
//   saturation  producers paced so the fleet OFFERS ~3x C into a tiny
//               queue: the realtime camera offers C/5 (well under
//               capacity), the five best-effort cameras offer ~0.56C each.
//               Admission control must shed the excess from best-effort
//               traffic only.
//   drop_late   same offered load, but best-effort frames carry a deadline
//               budget of half the full-queue wait — frames that sit behind
//               a deep backlog expire and must be shed at dequeue, never
//               served stale. The realtime camera keeps no deadline.
//
// Gates (exit non-zero on any failure):
//   - overload was real: offered > served and best-effort sheds > 0 in both
//     overload arms; drop_late additionally sheds > 0 frames for kDeadline
//   - ZERO realtime sheds in every arm; the realtime camera is served in
//     full at bounded p99 (their producer never offers more than C/5)
//   - exact conservation per camera: offered == served + shed (the run
//     drains before returning, so nothing hides in flight)
//   - no starvation (saturation arm): every camera gets some service
//   - bit identity: every served prediction equals the batch-1 unloaded
//     reference for that replay slot — overload changes WHICH frames are
//     answered, never the bits of an answer
//
// Writes BENCH_saturation.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/snappix.h"
#include "fleet.h"
#include "runtime/camera.h"
#include "runtime/server.h"
#include "serving_fixtures.h"

namespace {

using namespace snappix;

constexpr int kCameras = 6;       // camera 0 realtime, 1..5 best-effort
constexpr int kBufferFrames = 8;  // replay buffer depth per camera

// ReplayCameraSource with a fixed inter-frame gap: the bench's throttle for
// dialing OFFERED load to a multiple of measured capacity. The sleep sits in
// capture_frame, so a blocked admit (backpressure) still dominates the gap
// for realtime/standard producers, exactly as a real sensor's frame interval
// would.
class PacedReplaySource : public runtime::ReplayCameraSource {
 public:
  PacedReplaySource(int id, runtime::PatternRef pattern, std::vector<Tensor> coded,
                    std::chrono::microseconds gap)
      : runtime::ReplayCameraSource(id, std::move(pattern), std::move(coded), {}),
        gap_(gap) {}

 protected:
  runtime::Frame capture_frame() override {
    // Absolute schedule (due_ += gap, sleep_until) rather than sleep_for:
    // per-sleep overshoot would otherwise compound into a much lower offered
    // rate than the arm was dialed to — against an absolute schedule the
    // producer simply skips the sleep until it has caught back up.
    if (gap_.count() > 0) {
      if (due_.time_since_epoch().count() == 0) {
        due_ = std::chrono::steady_clock::now();
      }
      due_ += gap_;
      std::this_thread::sleep_until(due_);
    }
    return runtime::ReplayCameraSource::capture_frame();
  }

 private:
  std::chrono::microseconds gap_;
  std::chrono::steady_clock::time_point due_{};
};

struct ArmOutcome {
  std::string label;
  std::vector<std::int64_t> offered;  // per camera
  bench::ArmRun run;
  std::vector<fixtures::CameraLedger> ledger;
  std::string divergence;  // vs the batch-1 reference; "" when bit-identical
};

double offered_fps(const ArmOutcome& arm) {
  const std::int64_t total =
      std::accumulate(arm.offered.begin(), arm.offered.end(), std::int64_t{0});
  return arm.run.wall_seconds > 0.0 ? static_cast<double>(total) / arm.run.wall_seconds : 0.0;
}

std::int64_t clamp64(double value, std::int64_t lo, std::int64_t hi) {
  const auto v = static_cast<std::int64_t>(value);
  return std::max(lo, std::min(hi, v));
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const double duration_s = quick ? 0.6 : 1.5;      // target wall per overload arm
  const std::int64_t baseline_frames = quick ? 40 : 80;  // per camera
  bench::Gate gate;

  bench::print_header("Saturation: QoS admission control + drop-late under 3x offered load");
  std::printf("%d cameras (1 realtime, %d best-effort), shared pattern, 1 shard\n", kCameras,
              kCameras - 1);

  core::SnapPixSystem system(bench::serving_config(/*classes=*/4));
  // Deterministic replay buffers + the batch-1 reference every served frame
  // is checked against.
  const fixtures::ReplayOracle oracle(system, kCameras, kBufferFrames, /*seed=*/300);

  // One arm: build the fleet, run it, tally per-camera conservation and
  // check every served bit against the reference.
  const auto run_arm = [&](const std::string& label, std::size_t queue_capacity,
                           runtime::QosClass fleet_qos,
                           const std::vector<std::int64_t>& frames_per_camera,
                           std::chrono::microseconds realtime_gap,
                           std::chrono::microseconds best_effort_gap,
                           std::chrono::microseconds best_effort_deadline) {
    runtime::ServerConfig server_cfg;
    server_cfg.batch.max_batch = 8;
    server_cfg.shards = 1;
    server_cfg.queue_capacity = queue_capacity;
    ArmOutcome arm;
    arm.label = label;
    arm.offered = frames_per_camera;
    arm.run = bench::run_arm(
        system, server_cfg,
        [&](int cam) {
          auto camera = std::make_unique<PacedReplaySource>(
              cam, oracle.pattern(), oracle.buffer(cam), cam == 0 ? realtime_gap : best_effort_gap);
          if (cam == 0) {
            camera->set_qos(runtime::QosClass::kRealtime);
          } else {
            camera->set_qos(fleet_qos);
            camera->set_deadline_budget(best_effort_deadline);
          }
          return camera;
        },
        frames_per_camera);
    const runtime::RuntimeSummary& s = arm.run.summary;
    arm.ledger = fixtures::ledger_from(arm.run.results, s, kCameras);
    arm.divergence = oracle.divergence(arm.run.results);
    std::printf("\n[%s] wall %.2fs  offered %.0f fps  served %llu frames "
                "(shed: %llu queue_full, %llu deadline; %llu misses)\n",
                arm.label.c_str(), arm.run.wall_seconds, offered_fps(arm),
                static_cast<unsigned long long>(s.frames),
                static_cast<unsigned long long>(s.shed_queue_full),
                static_cast<unsigned long long>(s.shed_deadline),
                static_cast<unsigned long long>(s.deadline_misses));
    return arm;
  };

  // --- baseline: unloaded capacity --------------------------------------------
  const ArmOutcome baseline =
      run_arm("baseline", 64, runtime::QosClass::kStandard,
              std::vector<std::int64_t>(kCameras, baseline_frames),
              std::chrono::microseconds(0), std::chrono::microseconds(0),
              std::chrono::microseconds(0));
  const double capacity_fps =
      std::max(50.0, std::min(200000.0, baseline.run.summary.aggregate_fps));
  std::printf("measured serving capacity: %.0f fps\n", capacity_fps);

  // --- overload geometry: offer ~3x capacity ----------------------------------
  // Realtime offers C/5; each best-effort camera offers (3C - C/5)/5 = 0.56C.
  const auto rt_gap = std::chrono::microseconds(static_cast<std::int64_t>(5e6 / capacity_fps));
  const auto be_gap =
      std::chrono::microseconds(static_cast<std::int64_t>(1e6 / (0.56 * capacity_fps)));
  const std::int64_t rt_frames = clamp64(duration_s * capacity_fps / 5.0, 20, 20000);
  const std::int64_t be_frames = clamp64(duration_s * 0.56 * capacity_fps, 20, 20000);
  std::vector<std::int64_t> overload_offered(kCameras, be_frames);
  overload_offered[0] = rt_frames;
  // Drop-late budget: half the time a frame would wait behind a FULL queue,
  // so admitted frames expire exactly when the backlog is deep.
  constexpr std::size_t kOverloadQueue = 16;
  const auto be_deadline = std::chrono::microseconds(
      static_cast<std::int64_t>(0.5 * 1e6 * static_cast<double>(kOverloadQueue) / capacity_fps));

  const ArmOutcome saturation =
      run_arm("saturation", kOverloadQueue, runtime::QosClass::kBestEffort, overload_offered,
              rt_gap, be_gap, std::chrono::microseconds(0));
  const ArmOutcome drop_late =
      run_arm("drop_late", kOverloadQueue, runtime::QosClass::kBestEffort, overload_offered,
              rt_gap, be_gap, be_deadline);

  // --- gates -------------------------------------------------------------------
  gate(baseline.run.summary.shed_frames == 0, "baseline run shed frames while unloaded");
  gate(baseline.divergence.empty() && !baseline.run.results.empty(),
       "baseline predictions diverged: %s", baseline.divergence.c_str());

  const auto check_overload_arm = [&](const ArmOutcome& arm, bool require_progress_everywhere,
                                      bool require_deadline_sheds) {
    const runtime::RuntimeSummary& s = arm.run.summary;
    const char* label = arm.label.c_str();
    // Conservation, per camera, exactly.
    const std::string gap = fixtures::conservation_gap(arm.ledger, arm.offered);
    gate(gap.empty(), "[%s] conservation broke: %s", label, gap.c_str());
    gate(s.shed_realtime == 0, "[%s] realtime frames were shed", label);
    gate(arm.ledger[0].served == static_cast<std::uint64_t>(arm.offered[0]),
         "[%s] realtime camera not served in full", label);
    gate(s.shed_best_effort > 0, "[%s] overload arm shed nothing — not saturated", label);
    gate(s.frames < static_cast<std::uint64_t>(arm.offered[0]) +
                        static_cast<std::uint64_t>(kCameras - 1) *
                            static_cast<std::uint64_t>(arm.offered[1]),
         "[%s] overload arm served everything — offered load did not exceed capacity", label);
    gate(arm.divergence.empty() && !arm.run.results.empty(),
         "[%s] served predictions diverged from reference: %s", label, arm.divergence.c_str());
    gate(s.e2e_realtime.count > 0 && s.e2e_realtime.p99_ms < 500.0,
         "[%s] realtime p99 unbounded under overload", label);
    if (require_progress_everywhere) {
      for (int cam = 0; cam < kCameras; ++cam) {
        gate(arm.ledger[static_cast<std::size_t>(cam)].served > 0, "[%s] camera %d starved",
             label, cam);
      }
    }
    if (require_deadline_sheds) {
      gate(s.shed_deadline > 0, "[%s] drop-late arm shed nothing for kDeadline", label);
    }
  };
  check_overload_arm(saturation, /*require_progress_everywhere=*/true,
                     /*require_deadline_sheds=*/false);
  check_overload_arm(drop_late, /*require_progress_everywhere=*/false,
                     /*require_deadline_sheds=*/true);

  bench::print_rule();
  std::printf("realtime p99: baseline %s ms, saturation %s ms, drop_late %s ms\n",
              obs::json_number(baseline.run.summary.e2e_realtime.p99_ms).c_str(),
              obs::json_number(saturation.run.summary.e2e_realtime.p99_ms).c_str(),
              obs::json_number(drop_late.run.summary.e2e_realtime.p99_ms).c_str());

  const auto arm_json = [](const ArmOutcome& arm) {
    const runtime::RuntimeSummary& s = arm.run.summary;
    bench::JsonObject out;
    out.add("offered", std::accumulate(arm.offered.begin(), arm.offered.end(), std::int64_t{0}))
        .add("served", s.frames)
        .add("shed_queue_full", s.shed_queue_full)
        .add("shed_deadline", s.shed_deadline)
        .add("shed_realtime", s.shed_realtime)
        .add("deadline_misses", s.deadline_misses)
        .add("offered_fps", offered_fps(arm))
        .add("served_fps", s.aggregate_fps)
        .add("wall_seconds", arm.run.wall_seconds)
        .add("realtime_p99_ms", s.e2e_realtime.p99_ms)
        .add("bit_identical", arm.divergence.empty())
        .raw("metrics", arm.run.metrics);
    return out;
  };
  bench::JsonObject()
      .add("cameras", kCameras)
      .add("quick", quick)
      .add("capacity_fps", capacity_fps)
      .add("target_overload_factor", 3.0)
      .add("achieved_overload_factor",
           capacity_fps > 0.0 ? offered_fps(saturation) / capacity_fps : 0.0)
      .add("baseline", arm_json(baseline))
      .add("saturation", arm_json(saturation))
      .add("drop_late", arm_json(drop_late))
      .add("gates_passed", gate.ok())
      .write("BENCH_saturation.json");

  if (gate.ok()) {
    std::printf("all saturation gates passed\n");
  }
  return gate.exit_code();
}

// Resilience bench: does fleet health supervision actually contain faults?
//
// Two arms over replay fleets with entropy-coded framed links, driven by the
// chaos harness (tests/chaos.h):
//
//   degradation  4 cameras, 1 shard. Camera 0 rides through a seeded
//                burst-noise episode spanning three observation windows; the
//                health controller must walk it down the degradation ladder
//                (codec depth -> int8 -> best-effort), then walk it back up
//                hysteretically once the link clears. Cameras 1-3 stay
//                clean the whole run.
//   watchdog     4 cameras, 2 shards, work stealing off. Every camera homes
//                on one shard (shared pattern); a SlowShard hook wedges that
//                shard's worker mid-run, and the watchdog must detect the
//                stall, re-route the fleet to the sibling, and drain the
//                stranded queue — with camera 0 running realtime QoS.
//
// Gates (exit non-zero on any failure):
//   - the ladder engaged: camera 0 steps_down > 0, and every step down was
//     matched by a step up (steps_up == steps_down)
//   - recovery completed: camera 0 ends kHealthy at ladder step 0, and no
//     frame at or past the recovery deadline sequence is served degraded
//     (recovery within 4 windows of the episode ending)
//   - the ladder never leaks: cameras 1-3 see zero transitions, zero
//     transport drops, and every one of their answers is bit-identical to
//     the fault-free batch-1 reference
//   - full fidelity means full fidelity: every camera-0 answer served at
//     base depth + fp32 is bit-identical to the same reference
//   - exact per-camera conservation in both arms: offered == served + shed
//     + transport-dropped + quarantine-dropped
//   - the stall was real and caught: watchdog_stalls >= 1, rescued frames
//     re-routed (rerouted_frames >= 1), every frame of every camera served
//     (nothing lost to the hang), zero realtime sheds
//
// Writes BENCH_resilience.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "chaos.h"
#include "core/snappix.h"
#include "fleet.h"
#include "runtime/camera.h"
#include "runtime/health.h"
#include "runtime/server.h"
#include "serving_fixtures.h"

namespace {

using namespace snappix;

constexpr int kCameras = 4;
constexpr int kWindow = 8;  // health observation window (frames per camera)

// Episode geometry for the degradation arm, in sequence numbers: windows
// 1-3 are faulted (three bad windows = the full default ladder, never the
// "no rungs left" quarantine), everything after is clean. With
// recover_clean_windows = 1 the controller is back at step 0 by sequence
// kEpisodeEnd + 3 * kWindow; one extra window of slack is the deadline.
constexpr std::int64_t kEpisodeStart = 1 * kWindow;
constexpr std::int64_t kEpisodeEnd = 4 * kWindow;
constexpr std::int64_t kRecoveryDeadlineSeq = kEpisodeEnd + 4 * kWindow;

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  // The degradation arm needs the full episode + recovery runway; quick mode
  // only trims the healthy tail and the watchdog arm's load.
  const std::int64_t degrade_frames = quick ? kRecoveryDeadlineSeq + 2 * kWindow
                                            : kRecoveryDeadlineSeq + 6 * kWindow;
  const std::int64_t watchdog_frames = quick ? 60 : 120;
  bench::Gate gate;

  bench::print_header("Resilience: degradation ladder + shard watchdog under chaos");
  std::printf("%d cameras, entropy-coded links, episode windows [%lld, %lld), window %d\n",
              kCameras, static_cast<long long>(kEpisodeStart),
              static_cast<long long>(kEpisodeEnd), kWindow);

  core::SnapPixSystem system(bench::serving_config(/*classes=*/4));
  // Deterministic replay buffers + the fault-free batch-1 reference. The
  // clean codec wire reconstructs exactly dequantize(quantize(frame)), so
  // that round-trip IS the full-fidelity baseline every gate compares to.
  const fixtures::ReplayOracle oracle(system, kCameras, /*frames=*/6, /*seed=*/700,
                                      /*codec_wire=*/true);

  // --- arm 1: degradation ladder + hysteretic recovery ------------------------
  runtime::ServerConfig degrade_cfg;
  degrade_cfg.batch.max_batch = 8;
  degrade_cfg.shards = 1;
  degrade_cfg.queue_capacity = 64;  // unloaded: resilience, not overload
  // Retries are bounded by count, so each link's fault-Rng stream (and the
  // whole fault history) is a pure function of its seed and schedule.
  degrade_cfg.transport.corrupt = runtime::TransportPolicy::Corrupt::kRetransmit;
  degrade_cfg.transport.max_retransmits = 3;
  degrade_cfg.transport.backoff_initial = std::chrono::microseconds(20);
  degrade_cfg.health.enabled = true;
  degrade_cfg.health.window = kWindow;
  degrade_cfg.health.degrade_error_rate = 0.25;
  degrade_cfg.health.degrade_retransmit_rate = 1.0;
  // The episode must exercise the LADDER: park the quarantine thresholds
  // far above anything the burst can reach.
  degrade_cfg.health.quarantine_error_rate = 0.99;
  degrade_cfg.health.quarantine_consecutive_losses = 1000;
  degrade_cfg.health.recover_clean_windows = 1;
  const bench::ArmRun degrade = bench::run_arm(
      system, degrade_cfg,
      [&oracle](int cam) {
        std::vector<chaos::Episode> schedule;
        if (cam == 0) {
          // Tuned so most attempts are corrupt (heavy retransmit traffic) and
          // a meaningful fraction of frames stay corrupt through the retry
          // budget — well over the degrade thresholds, under quarantine's.
          schedule.push_back(chaos::burst(kEpisodeStart, kEpisodeEnd,
                                          /*bit_flip_per_byte=*/0.0005,
                                          /*packet_drop_rate=*/0.12));
        }
        auto camera = std::make_unique<chaos::ChaosReplaySource>(
            cam, oracle.pattern(), oracle.buffer(cam), std::vector<std::int64_t>{},
            std::move(schedule));
        transport::LinkConfig link;
        link.codec = true;
        link.faults.seed = 40 + static_cast<std::uint64_t>(cam);
        camera->set_framed(link);
        return camera;
      },
      kCameras, degrade_frames);
  const runtime::CameraHealthSnapshot afflicted = degrade.server->health()->snapshot(0);

  // Camera 0's full-fidelity answers (base depth + fp32) and every answer of
  // the healthy cameras must equal the reference.
  std::int64_t last_degraded_seq = -1;
  std::vector<runtime::TaskResult> healthy, full_fidelity;
  for (const runtime::TaskResult& r : degrade.results) {
    if (r.camera_id != 0) {
      healthy.push_back(r);
    } else if (r.decode_depth == 0 && r.precision == runtime::Precision::kFp32) {
      full_fidelity.push_back(r);
    } else {
      last_degraded_seq = std::max(last_degraded_seq, r.sequence);
    }
  }
  const std::string healthy_divergence = oracle.divergence(healthy);
  const std::string full_fidelity_divergence = oracle.divergence(full_fidelity);

  const std::vector<fixtures::CameraLedger> ledger =
      fixtures::ledger_from(degrade.results, degrade.summary, kCameras);
  const std::string degrade_gap = fixtures::conservation_gap(
      ledger, std::vector<std::int64_t>(kCameras, degrade_frames));
  gate(degrade_gap.empty(), "[degradation] conservation broke: %s", degrade_gap.c_str());
  for (int cam = 1; cam < kCameras; ++cam) {
    const fixtures::CameraLedger& c = ledger[static_cast<std::size_t>(cam)];
    gate(c.transitions == 0, "the ladder leaked onto healthy camera %d", cam);
    gate(c.wire_dropped == 0, "clean link of camera %d dropped frames", cam);
  }

  std::printf("\n[degradation] wall %.2fs  camera 0: %llu steps down, %llu up, "
              "%llu transitions, final %s @ step %d, last degraded seq %lld\n",
              degrade.wall_seconds, static_cast<unsigned long long>(afflicted.steps_down),
              static_cast<unsigned long long>(afflicted.steps_up),
              static_cast<unsigned long long>(afflicted.transitions),
              runtime::to_string(afflicted.state), afflicted.ladder_step,
              static_cast<long long>(last_degraded_seq));

  gate(afflicted.steps_down > 0, "the burst never engaged the ladder");
  gate(afflicted.steps_up == afflicted.steps_down, "recovery did not retrace every ladder step");
  gate(afflicted.state == runtime::HealthState::kHealthy, "afflicted camera did not end kHealthy");
  gate(afflicted.ladder_step == 0, "afflicted camera did not end at ladder step 0");
  gate(last_degraded_seq >= 0, "no frame was ever served degraded — chaos was inert");
  gate(last_degraded_seq < kRecoveryDeadlineSeq,
       "recovery exceeded the 4-window deadline after the episode");
  gate(healthy_divergence.empty(), "a healthy camera's answers diverged from the reference: %s",
       healthy_divergence.c_str());
  gate(!full_fidelity.empty() && full_fidelity_divergence.empty(),
       "a full-fidelity answer from the afflicted camera diverged from the reference: %s",
       full_fidelity_divergence.c_str());

  // --- arm 2: shard stall, watchdog rescue, re-route --------------------------
  runtime::ServerConfig watchdog_cfg;
  watchdog_cfg.batch.max_batch = 4;
  watchdog_cfg.shards = 2;
  watchdog_cfg.queue_capacity = 4;
  watchdog_cfg.work_stealing = false;  // the rescue path, not the thief, moves frames
  watchdog_cfg.health.enabled = true;
  watchdog_cfg.health.window = kWindow;
  watchdog_cfg.health.watchdog.enabled = true;
  watchdog_cfg.health.watchdog.poll = std::chrono::milliseconds(5);
  watchdog_cfg.health.watchdog.stall_polls = 4;  // 20 ms; the default batcher never waits
  // All cameras share the system pattern and home on one shard; wedge it.
  const std::size_t home = system.pattern_ref()->hash() % 2;
  chaos::SlowShard slow(home, /*after_batches=*/2, std::chrono::milliseconds(quick ? 150 : 250));
  watchdog_cfg.before_batch = slow;
  const bench::ArmRun watchdog = bench::run_arm(
      system, watchdog_cfg,
      [&oracle](int cam) {
        auto camera = oracle.camera(cam);
        transport::LinkConfig link;
        link.codec = true;
        link.faults.seed = 80 + static_cast<std::uint64_t>(cam);
        camera->set_framed(link);
        if (cam == 0) {
          camera->set_qos(runtime::QosClass::kRealtime);
        }
        return camera;
      },
      kCameras, watchdog_frames);
  const runtime::RuntimeSummary& ws = watchdog.summary;
  const std::string rescue_divergence = oracle.divergence(watchdog.results);

  std::printf("\n[watchdog] wall %.2fs  %llu stalls detected, %llu frames re-routed, "
              "%llu served\n",
              watchdog.wall_seconds, static_cast<unsigned long long>(ws.watchdog_stalls),
              static_cast<unsigned long long>(ws.rerouted_frames),
              static_cast<unsigned long long>(ws.frames));

  gate(slow.stalls_left() == 0, "the injected stall never fired");
  gate(ws.watchdog_stalls >= 1, "the watchdog never detected the stall");
  gate(ws.rerouted_frames >= 1, "the rescue re-routed nothing");
  gate(ws.shed_realtime == 0, "realtime frames were shed during the rescue");
  // Clean links, no overload: conservation here means EVERY offered frame
  // of EVERY camera was served despite the hang — the stalled shard's
  // traffic survived the re-route exactly.
  const std::vector<fixtures::CameraLedger> rescued =
      fixtures::ledger_from(watchdog.results, ws, kCameras);
  for (int cam = 0; cam < kCameras; ++cam) {
    const std::uint64_t served = rescued[static_cast<std::size_t>(cam)].served;
    gate(served == static_cast<std::uint64_t>(watchdog_frames),
         "[watchdog] camera %d served %llu of %lld offered frames", cam,
         static_cast<unsigned long long>(served), static_cast<long long>(watchdog_frames));
  }
  gate(rescue_divergence.empty(), "a re-routed answer diverged from the reference: %s",
       rescue_divergence.c_str());

  bench::print_rule();
  const runtime::RuntimeSummary& ds = degrade.summary;
  bench::JsonObject degradation;
  degradation.add("offered_per_camera", degrade_frames)
      .add("served", ds.frames)
      .add("steps_down", afflicted.steps_down)
      .add("steps_up", afflicted.steps_up)
      .add("transitions", afflicted.transitions)
      .add("quarantine_drops", afflicted.quarantine_drops)
      .add("final_state", runtime::to_string(afflicted.state))
      .add("final_ladder_step", afflicted.ladder_step)
      .add("last_degraded_sequence", last_degraded_seq)
      .add("recovery_deadline_sequence", kRecoveryDeadlineSeq)
      .add("retransmits", ds.transport.retransmits)
      .add("transport_dropped", ds.transport.dropped_frames)
      .add("healthy_bit_identical", healthy_divergence.empty())
      .add("full_fidelity_bit_identical", full_fidelity_divergence.empty())
      .add("wall_seconds", degrade.wall_seconds)
      .raw("metrics", degrade.metrics);
  bench::JsonObject rescue;
  rescue.add("offered_per_camera", watchdog_frames)
      .add("served", ws.frames)
      .add("watchdog_stalls", ws.watchdog_stalls)
      .add("rerouted_frames", ws.rerouted_frames)
      .add("shed_realtime", ws.shed_realtime)
      .add("bit_identical", rescue_divergence.empty())
      .add("wall_seconds", watchdog.wall_seconds)
      .raw("metrics", watchdog.metrics);
  bench::JsonObject()
      .add("cameras", kCameras)
      .add("quick", quick)
      .add("window", kWindow)
      .add("degradation", degradation)
      .add("watchdog", rescue)
      .add("gates_passed", gate.ok())
      .write("BENCH_resilience.json");

  if (gate.ok()) {
    std::printf("all resilience gates passed\n");
  }
  return gate.exit_code();
}

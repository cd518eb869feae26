// HealthController: per-camera link-health supervision for the serving fleet.
//
// The transport tier reports every framed frame's fate (final outcome +
// retransmits spent); this controller folds those reports into fixed-size
// observation windows per camera and drives a four-state machine on them:
//
//            bad window                 bad window (rungs left)
//   kHealthy ──────────► kDegraded ───────────────────────────┐ (step down)
//      ▲                     │  error rate >= quarantine      │
//      │                     │  threshold, or bad at the      ▼
//      │ step count          │  bottom rung, or N consecutive losses
//      │ reaches 0           ▼                                │
//   kRecovering ◄──── kQuarantined ◄──────────────────────────┘
//        (hold captures elapsed; step back up one rung per
//         `recover_clean_windows` consecutive clean windows)
//
// On a bad window the controller steps the camera DOWN a configured
// degradation ladder — lower classify codec depth, then int8 precision, then
// best-effort QoS by default — trading that camera's fidelity for fleet
// stability instead of burning retransmit budget forever. Clean windows step
// back up hysteretically. The invariant the chaos suite pins: the ladder only
// ever touches the afflicted camera's knobs, so every frame served at full
// fidelity (the camera's base codec depth + precision) remains bit-identical
// to a fault-free run. Quarantine pauses capture entirely (drops are counted)
// so a dead link stops paying transfer + retry cost per frame.
//
// Threading: attach() happens before the scheduler starts (single-threaded
// setup). admit_capture()/on_frame() for one camera run on that camera's
// producer thread only; the window tallies are plain fields. state() is an
// atomic read and the snapshot tallies are the camera's RuntimeStats
// registry counters, so the watchdog, benches, and tests may poll mid-run.
// See docs/resilience.md.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "runtime/camera.h"
#include "runtime/stats.h"

namespace snappix::runtime {

// One rung of the degradation ladder. Rungs are applied cumulatively in
// order: at ladder step K, rungs [0, K) are engaged and the rest restored to
// the camera's base (attach-time) values.
struct LadderStep {
  enum class Kind : std::uint8_t {
    kCodecPlanes,     // cap classify decode depth at `codec_planes`
    kInt8Precision,   // serve through the calibrated int8 tier
    kBestEffortQos,   // stop exerting backpressure; shed under overload
  };
  Kind kind = Kind::kCodecPlanes;
  int codec_planes = 0;  // kCodecPlanes only: depth while this rung is engaged
};

const char* to_string(LadderStep::Kind kind);

// The default ladder: codec depth 4 -> int8 -> best-effort.
std::vector<LadderStep> default_ladder();

// Shard-stall supervision (runs inside InferenceServer::run; needs >= 2
// shards to have anywhere to re-route). See docs/resilience.md.
struct WatchdogConfig {
  bool enabled = false;
  // Supervisor poll period. A shard is declared stalled after `stall_polls`
  // consecutive polls with no heartbeat progress while its queue holds
  // frames — size poll * stall_polls well above the batcher's max_delay or
  // a latency flush will be misread as a hang.
  std::chrono::microseconds poll{1000};
  int stall_polls = 8;
};

struct HealthConfig {
  bool enabled = false;
  // Observation window, in framed frames per camera.
  int window = 16;
  // A window is BAD when its final-corrupt rate reaches degrade_error_rate
  // or its retransmits-per-frame reach degrade_retransmit_rate.
  double degrade_error_rate = 0.25;
  double degrade_retransmit_rate = 1.5;
  // A bad window at or above this corrupt rate skips the ladder and
  // quarantines outright (the link is effectively down).
  double quarantine_error_rate = 0.75;
  // Mid-window tripwire: this many consecutive final losses quarantines
  // immediately, without waiting for the window to close.
  int quarantine_consecutive_losses = 8;
  // Captures to skip (and count) while quarantined before probing again.
  int quarantine_hold = 16;
  // Consecutive clean windows required per upward ladder step.
  int recover_clean_windows = 2;
  std::vector<LadderStep> ladder = default_ladder();
  WatchdogConfig watchdog;
};

// Throws std::invalid_argument when the config is unusable (non-positive
// window/hold/thresholds, non-finite rates, a codec rung outside
// [1, codec::kMaxBitplanes], non-positive watchdog poll/stall count).
void validate(const HealthConfig& config);

// Cross-thread view of one camera's supervision state, for benches/tests.
struct CameraHealthSnapshot {
  HealthState state = HealthState::kHealthy;
  int ladder_step = 0;  // rungs currently engaged
  std::uint64_t transitions = 0;
  std::uint64_t steps_down = 0;
  std::uint64_t steps_up = 0;
  std::uint64_t quarantine_drops = 0;  // captures skipped while quarantined
};

class HealthController {
 public:
  // (camera_id, from, to, ladder step after the transition)
  using TransitionHook = std::function<void(int, HealthState, HealthState, int)>;

  HealthController(const HealthConfig& config, RuntimeStats& stats);

  // Registers a camera and snapshots its BASE knobs (codec depth, precision,
  // QoS) — the values the ladder restores on recovery. Call after the
  // camera's knobs are set and before the scheduler starts.
  void attach(CameraSource& camera);
  bool attached(int camera_id) const;

  // Producer-thread gate, called once per capture opportunity. Returns false
  // while the camera is quarantined: the capture is skipped outright (no
  // transfer, no retries) and counted as a quarantine drop. The hold is
  // denominated in these skipped opportunities; when it elapses the camera
  // moves to kRecovering and captures resume.
  bool admit_capture(int camera_id);

  // Producer-thread report of one framed frame's FINAL transport fate
  // (after the retransmit policy ran): whether it was still corrupt, and the
  // retries spent on it. Drives the window accounting and every transition.
  void on_frame(CameraSource& camera, bool corrupt, int retransmits);

  // Cross-thread reads (safe mid-run).
  HealthState state(int camera_id) const;
  CameraHealthSnapshot snapshot(int camera_id) const;

  // Observer for state transitions (the server hangs trace emission here).
  // Install before the scheduler starts; runs on the producer thread.
  void set_transition_hook(TransitionHook hook) { hook_ = std::move(hook); }

  const HealthConfig& config() const { return config_; }

 private:
  struct Entry {
    int camera_id = -1;
    CameraSource* camera = nullptr;
    // Producer-thread-only window accounting (plain fields by design).
    int window_frames = 0;
    int window_errors = 0;
    int window_retransmits = 0;
    int consecutive_losses = 0;
    int clean_windows = 0;
    int quarantine_remaining = 0;
    // Base knobs snapshotted at attach(); what step 0 restores.
    int base_codec_planes = 0;
    Precision base_precision = Precision::kFp32;
    QosClass base_qos = QosClass::kStandard;
    // order: release store on the producer thread at each transition /
    // ladder move; acquire loads from watchdog/bench/test readers — the
    // reader needs the knob writes that preceded the transition to be
    // visible before it trusts the state it read.
    std::atomic<HealthState> state{HealthState::kHealthy};
    // order: release/acquire, same pairing as `state` above.
    std::atomic<int> ladder_step{0};
  };

  Entry* find(int camera_id);
  const Entry* find(int camera_id) const;
  void transition(Entry& entry, HealthState to);
  // Moves the camera to ladder step `step`, engaging/restoring every rung.
  void set_ladder_step(Entry& entry, int step, bool down);
  void quarantine(Entry& entry);

  HealthConfig config_;
  RuntimeStats& stats_;
  TransitionHook hook_;
  // Built by attach() before the scheduler starts; strictly read-only
  // afterwards (no mutex needed — entries are reached through const lookups,
  // their mutable state is the atomics above, and their tallies live in
  // stats_).
  std::unordered_map<int, std::unique_ptr<Entry>> cameras_;
};

}  // namespace snappix::runtime

#include "runtime/health.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "codec/bitplane.h"
#include "util/common.h"

namespace snappix::runtime {

const char* to_string(LadderStep::Kind kind) {
  switch (kind) {
    case LadderStep::Kind::kCodecPlanes:
      return "codec_planes";
    case LadderStep::Kind::kInt8Precision:
      return "int8_precision";
    default:
      return "best_effort_qos";
  }
}

std::vector<LadderStep> default_ladder() {
  return {
      {LadderStep::Kind::kCodecPlanes, 4},
      {LadderStep::Kind::kInt8Precision, 0},
      {LadderStep::Kind::kBestEffortQos, 0},
  };
}

namespace {

void check_rate(double rate, const char* name) {
  if (!std::isfinite(rate) || rate <= 0.0 || rate > 1.0) {
    std::ostringstream os;
    os << "HealthConfig." << name << " must be a finite rate in (0, 1], got " << rate;
    throw std::invalid_argument(os.str());
  }
}

}  // namespace

void validate(const HealthConfig& config) {
  if (!config.enabled) {
    return;  // disabled configs are inert; garbage in them cannot act
  }
  if (config.window <= 0) {
    throw std::invalid_argument("HealthConfig.window must be positive");
  }
  check_rate(config.degrade_error_rate, "degrade_error_rate");
  check_rate(config.quarantine_error_rate, "quarantine_error_rate");
  if (config.quarantine_error_rate < config.degrade_error_rate) {
    throw std::invalid_argument(
        "HealthConfig.quarantine_error_rate must be >= degrade_error_rate");
  }
  if (!std::isfinite(config.degrade_retransmit_rate) ||
      config.degrade_retransmit_rate <= 0.0) {
    throw std::invalid_argument(
        "HealthConfig.degrade_retransmit_rate must be finite and positive");
  }
  if (config.quarantine_consecutive_losses <= 0) {
    throw std::invalid_argument(
        "HealthConfig.quarantine_consecutive_losses must be positive");
  }
  if (config.quarantine_hold <= 0) {
    throw std::invalid_argument("HealthConfig.quarantine_hold must be positive");
  }
  if (config.recover_clean_windows <= 0) {
    throw std::invalid_argument("HealthConfig.recover_clean_windows must be positive");
  }
  for (const LadderStep& rung : config.ladder) {
    if (rung.kind == LadderStep::Kind::kCodecPlanes &&
        (rung.codec_planes < 1 || rung.codec_planes > codec::kMaxBitplanes)) {
      std::ostringstream os;
      os << "HealthConfig ladder codec rung depth must be in [1, "
         << codec::kMaxBitplanes << "], got " << rung.codec_planes;
      throw std::invalid_argument(os.str());
    }
  }
  if (config.watchdog.enabled) {
    if (config.watchdog.poll.count() <= 0) {
      throw std::invalid_argument("WatchdogConfig.poll must be positive");
    }
    if (config.watchdog.stall_polls <= 0) {
      throw std::invalid_argument("WatchdogConfig.stall_polls must be positive");
    }
  }
}

HealthController::HealthController(const HealthConfig& config, RuntimeStats& stats)
    : config_(config), stats_(stats) {
  validate(config_);
  SNAPPIX_CHECK(config_.enabled, "HealthController built from a disabled config");
}

void HealthController::attach(CameraSource& camera) {
  SNAPPIX_CHECK(cameras_.find(camera.id()) == cameras_.end(),
                "camera " << camera.id() << " attached twice");
  auto entry = std::make_unique<Entry>();
  entry->camera_id = camera.id();
  entry->camera = &camera;
  // What "full fidelity" means for THIS camera: its knobs when it joined the
  // fleet.
  entry->base_codec_planes = camera.classify_codec_planes();
  entry->base_precision = camera.precision();
  entry->base_qos = camera.qos();
  cameras_.emplace(camera.id(), std::move(entry));
  stats_.add_camera(camera.id());
}

bool HealthController::attached(int camera_id) const { return find(camera_id) != nullptr; }

HealthController::Entry* HealthController::find(int camera_id) {
  auto it = cameras_.find(camera_id);
  return it == cameras_.end() ? nullptr : it->second.get();
}

const HealthController::Entry* HealthController::find(int camera_id) const {
  auto it = cameras_.find(camera_id);
  return it == cameras_.end() ? nullptr : it->second.get();
}

void HealthController::transition(Entry& entry, HealthState to) {
  const HealthState from = entry.state.load(std::memory_order_relaxed);
  if (from == to) {
    return;
  }
  entry.state.store(to, std::memory_order_release);
  stats_.record_health_transition(entry.camera_id, to);
  if (hook_) {
    hook_(entry.camera_id, from, to, entry.ladder_step.load(std::memory_order_relaxed));
  }
}

void HealthController::set_ladder_step(Entry& entry, int step, bool down) {
  CameraSource& camera = *entry.camera;
  for (std::size_t r = 0; r < config_.ladder.size(); ++r) {
    const LadderStep& rung = config_.ladder[r];
    const bool engaged = static_cast<int>(r) < step;
    switch (rung.kind) {
      case LadderStep::Kind::kCodecPlanes:
        camera.set_codec_planes(engaged ? rung.codec_planes : entry.base_codec_planes);
        break;
      case LadderStep::Kind::kInt8Precision:
        camera.set_precision(engaged ? Precision::kInt8 : entry.base_precision);
        break;
      case LadderStep::Kind::kBestEffortQos:
        camera.set_qos(engaged ? QosClass::kBestEffort : entry.base_qos);
        break;
    }
  }
  entry.ladder_step.store(step, std::memory_order_release);
  stats_.record_ladder_step(entry.camera_id, down, step);
}

void HealthController::quarantine(Entry& entry) {
  entry.quarantine_remaining = config_.quarantine_hold;
  entry.window_frames = 0;
  entry.window_errors = 0;
  entry.window_retransmits = 0;
  entry.consecutive_losses = 0;
  entry.clean_windows = 0;
  transition(entry, HealthState::kQuarantined);
}

bool HealthController::admit_capture(int camera_id) {
  Entry* entry = find(camera_id);
  if (entry == nullptr ||
      entry->state.load(std::memory_order_relaxed) != HealthState::kQuarantined) {
    return true;
  }
  // The hold is denominated in skipped capture opportunities, so a fleet
  // budgeted at N frames per camera spends exactly N admit_capture calls
  // whether or not quarantine struck (conservation: offered == served +
  // shed + transport drops + quarantine drops).
  stats_.record_quarantine_drop(camera_id);
  if (--entry->quarantine_remaining <= 0) {
    transition(*entry, HealthState::kRecovering);
  }
  return false;
}

void HealthController::on_frame(CameraSource& camera, bool corrupt, int retransmits) {
  Entry* entry = find(camera.id());
  if (entry == nullptr) {
    return;
  }
  Entry& e = *entry;
  ++e.window_frames;
  e.window_errors += corrupt ? 1 : 0;
  e.window_retransmits += retransmits;
  e.consecutive_losses = corrupt ? e.consecutive_losses + 1 : 0;

  // Mid-window tripwire: a run of consecutive final losses means the link is
  // effectively down — waiting for the window to close just burns retries.
  if (e.consecutive_losses >= config_.quarantine_consecutive_losses) {
    quarantine(e);
    return;
  }
  if (e.window_frames < config_.window) {
    return;
  }

  const double window = static_cast<double>(config_.window);
  const double error_rate = static_cast<double>(e.window_errors) / window;
  const double retransmit_rate = static_cast<double>(e.window_retransmits) / window;
  e.window_frames = 0;
  e.window_errors = 0;
  e.window_retransmits = 0;

  const bool bad = error_rate >= config_.degrade_error_rate ||
                   retransmit_rate >= config_.degrade_retransmit_rate;
  const int step = e.ladder_step.load(std::memory_order_relaxed);
  if (bad) {
    e.clean_windows = 0;
    const bool rungs_left = step < static_cast<int>(config_.ladder.size());
    if (error_rate >= config_.quarantine_error_rate || !rungs_left) {
      // The link is mostly dead, or the ladder is exhausted and the window is
      // still bad: stop paying per-frame transfer + retry cost.
      quarantine(e);
      return;
    }
    set_ladder_step(e, step + 1, /*down=*/true);
    transition(e, HealthState::kDegraded);
    return;
  }

  // Clean window. Hysteresis: each upward step needs `recover_clean_windows`
  // consecutive clean windows, so a flapping link cannot oscillate the knobs
  // at window rate.
  if (step == 0) {
    transition(e, HealthState::kHealthy);  // no-op when already healthy
    return;
  }
  if (++e.clean_windows >= config_.recover_clean_windows) {
    e.clean_windows = 0;
    set_ladder_step(e, step - 1, /*down=*/false);
    transition(e, step - 1 == 0 ? HealthState::kHealthy : HealthState::kRecovering);
  }
}

HealthState HealthController::state(int camera_id) const {
  const Entry* entry = find(camera_id);
  return entry == nullptr ? HealthState::kHealthy
                          : entry->state.load(std::memory_order_acquire);
}

CameraHealthSnapshot HealthController::snapshot(int camera_id) const {
  CameraHealthSnapshot snap;
  const Entry* entry = find(camera_id);
  if (entry == nullptr) {
    return snap;
  }
  snap.state = entry->state.load(std::memory_order_acquire);
  snap.ladder_step = entry->ladder_step.load(std::memory_order_acquire);
  const HealthCounters tally = stats_.health_counters(camera_id);
  snap.transitions = tally.transitions;
  snap.steps_down = tally.steps_down;
  snap.steps_up = tally.steps_up;
  snap.quarantine_drops = tally.quarantine_drops;
  return snap;
}

}  // namespace snappix::runtime

// HealthController suite (docs/resilience.md): the per-camera link-health
// state machine, driven directly through admit_capture()/on_frame() with a
// scripted transport history — no threads, no fault Rng, so every transition
// and every knob write is pinned exactly. Groups:
//
//   1. Config validation — every rejected field throws std::invalid_argument.
//   2. Ladder mechanics — a bad window steps the camera down one rung and
//      sets exactly the configured knobs; clean windows step back up
//      hysteretically and restore the attach-time base values.
//   3. Quarantine — the outright-quarantine threshold, the consecutive-loss
//      tripwire, the capture hold, and the drop accounting.
//   4. Plumbing — transition hook arguments and RuntimeStats summary rows.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "ce/pattern.h"
#include "codec/bitplane.h"
#include "obs/metrics.h"
#include "runtime/camera.h"
#include "runtime/health.h"
#include "runtime/stats.h"

namespace snappix {
namespace {

using runtime::CameraHealthSnapshot;
using runtime::HealthConfig;
using runtime::HealthController;
using runtime::HealthState;
using runtime::LadderStep;
using runtime::Precision;
using runtime::QosClass;
using runtime::ReplayCameraSource;
using runtime::RuntimeStats;

// Small, fully-pinned supervision config: window 4, degrade at 2/4 errors,
// outright quarantine at 4/4, tripwire far away so window logic is what
// trips, one clean window per upward step.
HealthConfig small_config() {
  HealthConfig config;
  config.enabled = true;
  config.window = 4;
  config.degrade_error_rate = 0.5;
  config.degrade_retransmit_rate = 2.0;
  config.quarantine_error_rate = 1.0;
  config.quarantine_consecutive_losses = 100;
  config.quarantine_hold = 3;
  config.recover_clean_windows = 1;
  return config;
}

std::unique_ptr<ReplayCameraSource> make_camera(int id) {
  std::vector<float> data(8 * 8, 0.5F);
  std::vector<Tensor> coded;
  coded.push_back(Tensor::from_vector(std::move(data), Shape{8, 8}));
  return std::make_unique<ReplayCameraSource>(id, ce::CePattern::long_exposure(8, 8),
                                              std::move(coded),
                                              std::vector<std::int64_t>{});
}

// Reports `count` frames with the given fate to the controller.
void report(HealthController& health, runtime::CameraSource& camera, int count,
            bool corrupt, int retransmits = 0) {
  for (int i = 0; i < count; ++i) {
    health.on_frame(camera, corrupt, retransmits);
  }
}

TEST(HealthValidation, RejectsUnusableConfigs) {
  const HealthConfig good = small_config();
  EXPECT_NO_THROW(runtime::validate(good));

  HealthConfig bad = good;
  bad.window = 0;
  EXPECT_THROW(runtime::validate(bad), std::invalid_argument);

  bad = good;
  bad.degrade_error_rate = 0.0;
  EXPECT_THROW(runtime::validate(bad), std::invalid_argument);

  bad = good;
  bad.degrade_error_rate = std::nan("");
  EXPECT_THROW(runtime::validate(bad), std::invalid_argument);

  bad = good;
  bad.quarantine_error_rate = 1.5;
  EXPECT_THROW(runtime::validate(bad), std::invalid_argument);

  bad = good;
  // Quarantine below degrade would quarantine on every merely-bad window.
  bad.degrade_error_rate = 0.8;
  bad.quarantine_error_rate = 0.5;
  EXPECT_THROW(runtime::validate(bad), std::invalid_argument);

  bad = good;
  bad.degrade_retransmit_rate = -1.0;
  EXPECT_THROW(runtime::validate(bad), std::invalid_argument);

  bad = good;
  bad.quarantine_hold = 0;
  EXPECT_THROW(runtime::validate(bad), std::invalid_argument);

  bad = good;
  bad.recover_clean_windows = 0;
  EXPECT_THROW(runtime::validate(bad), std::invalid_argument);

  bad = good;
  bad.ladder = {{LadderStep::Kind::kCodecPlanes, 0}};
  EXPECT_THROW(runtime::validate(bad), std::invalid_argument);

  bad = good;
  bad.ladder = {{LadderStep::Kind::kCodecPlanes, codec::kMaxBitplanes + 1}};
  EXPECT_THROW(runtime::validate(bad), std::invalid_argument);

  bad = good;
  bad.watchdog.enabled = true;
  bad.watchdog.poll = std::chrono::microseconds{0};
  EXPECT_THROW(runtime::validate(bad), std::invalid_argument);

  bad = good;
  bad.watchdog.enabled = true;
  bad.watchdog.stall_polls = 0;
  EXPECT_THROW(runtime::validate(bad), std::invalid_argument);

  // Disabled configs are inert: garbage in them cannot act, so it passes.
  bad = good;
  bad.enabled = false;
  bad.window = -5;
  EXPECT_NO_THROW(runtime::validate(bad));
}

TEST(HealthLadder, BadWindowStepsDownAndSetsExactlyTheConfiguredKnobs) {
  RuntimeStats stats;
  HealthController health(small_config(), stats);
  auto camera = make_camera(7);
  camera->set_codec_planes(9);  // base depth the first rung caps
  health.attach(*camera);
  ASSERT_TRUE(health.attached(7));
  EXPECT_EQ(health.state(7), HealthState::kHealthy);

  // 2 corrupt + 2 clean closes the window at exactly the degrade threshold.
  report(health, *camera, 2, /*corrupt=*/true);
  EXPECT_EQ(health.state(7), HealthState::kHealthy);  // window still open
  report(health, *camera, 2, /*corrupt=*/false);

  EXPECT_EQ(health.state(7), HealthState::kDegraded);
  const CameraHealthSnapshot snap = health.snapshot(7);
  EXPECT_EQ(snap.ladder_step, 1);
  EXPECT_EQ(snap.steps_down, 1U);
  // Rung 0 (codec depth 4) engaged; rungs 1 and 2 untouched.
  EXPECT_EQ(camera->classify_codec_planes(), 4);
  EXPECT_EQ(camera->precision(), Precision::kFp32);
  EXPECT_EQ(camera->qos(), QosClass::kStandard);
}

TEST(HealthLadder, RetransmitStormDegradesWithoutAnyFinalLoss) {
  RuntimeStats stats;
  HealthController health(small_config(), stats);
  auto camera = make_camera(3);
  health.attach(*camera);

  // Every frame recovered (corrupt=false) but each burned 2 retries: the
  // window's retransmit rate hits degrade_retransmit_rate exactly.
  report(health, *camera, 4, /*corrupt=*/false, /*retransmits=*/2);
  EXPECT_EQ(health.state(3), HealthState::kDegraded);
  EXPECT_EQ(health.snapshot(3).ladder_step, 1);
}

TEST(HealthLadder, FullDescentQuarantinesThenRecoversToBaseKnobs) {
  RuntimeStats stats;
  HealthConfig config = small_config();
  HealthController health(config, stats);
  auto camera = make_camera(1);
  camera->set_codec_planes(9);
  health.attach(*camera);

  // An all-corrupt window hits the outright-quarantine threshold (1.0): the
  // ladder is skipped entirely.
  report(health, *camera, 4, /*corrupt=*/true, 1);
  EXPECT_EQ(health.state(1), HealthState::kQuarantined);

  // A second camera descends rung by rung on merely-bad (2/4) windows.
  auto camera2 = make_camera(2);
  camera2->set_codec_planes(9);
  health.attach(*camera2);
  auto bad_window2 = [&] {
    report(health, *camera2, 2, /*corrupt=*/true);
    report(health, *camera2, 2, /*corrupt=*/false);
  };
  bad_window2();
  EXPECT_EQ(camera2->classify_codec_planes(), 4);
  bad_window2();
  EXPECT_EQ(camera2->precision(), Precision::kInt8);
  bad_window2();
  EXPECT_EQ(camera2->qos(), QosClass::kBestEffort);
  EXPECT_EQ(health.snapshot(2).ladder_step, 3);
  EXPECT_EQ(health.state(2), HealthState::kDegraded);

  // A fourth bad window finds no rungs left: quarantine.
  bad_window2();
  EXPECT_EQ(health.state(2), HealthState::kQuarantined);

  // The hold is denominated in skipped captures.
  EXPECT_FALSE(health.admit_capture(2));
  EXPECT_FALSE(health.admit_capture(2));
  EXPECT_EQ(health.state(2), HealthState::kQuarantined);
  EXPECT_FALSE(health.admit_capture(2));  // hold (3) elapsed
  EXPECT_EQ(health.state(2), HealthState::kRecovering);
  EXPECT_TRUE(health.admit_capture(2));  // captures resume
  EXPECT_EQ(health.snapshot(2).quarantine_drops, 3U);

  // Clean windows step back up one rung each (recover_clean_windows = 1),
  // restoring base knobs in reverse order; the last step lands kHealthy.
  report(health, *camera2, 4, /*corrupt=*/false);
  EXPECT_EQ(camera2->qos(), QosClass::kStandard);
  EXPECT_EQ(health.state(2), HealthState::kRecovering);
  report(health, *camera2, 4, /*corrupt=*/false);
  EXPECT_EQ(camera2->precision(), Precision::kFp32);
  report(health, *camera2, 4, /*corrupt=*/false);
  EXPECT_EQ(camera2->classify_codec_planes(), 9);
  EXPECT_EQ(health.state(2), HealthState::kHealthy);
  EXPECT_EQ(health.snapshot(2).ladder_step, 0);
  EXPECT_EQ(health.snapshot(2).steps_up, 3U);
}

TEST(HealthLadder, HysteresisNeedsConsecutiveCleanWindows) {
  RuntimeStats stats;
  HealthConfig config = small_config();
  config.recover_clean_windows = 2;
  HealthController health(config, stats);
  auto camera = make_camera(5);
  health.attach(*camera);

  auto window = [&](bool bad) {
    report(health, *camera, bad ? 2 : 0, /*corrupt=*/true);
    report(health, *camera, bad ? 2 : 4, /*corrupt=*/false);
  };
  window(true);
  EXPECT_EQ(health.snapshot(5).ladder_step, 1);

  // clean, bad: the bad window resets the clean streak AND steps down again.
  window(false);
  EXPECT_EQ(health.snapshot(5).ladder_step, 1);  // 1 clean of 2 — no step up
  window(true);
  EXPECT_EQ(health.snapshot(5).ladder_step, 2);

  // Two consecutive clean windows per upward step.
  window(false);
  EXPECT_EQ(health.snapshot(5).ladder_step, 2);
  window(false);
  EXPECT_EQ(health.snapshot(5).ladder_step, 1);
  EXPECT_EQ(health.state(5), HealthState::kRecovering);
  window(false);
  window(false);
  EXPECT_EQ(health.snapshot(5).ladder_step, 0);
  EXPECT_EQ(health.state(5), HealthState::kHealthy);
}

TEST(HealthQuarantine, ConsecutiveLossTripwireFiresMidWindow) {
  RuntimeStats stats;
  HealthConfig config = small_config();
  config.window = 100;  // the window never closes; only the tripwire can act
  config.quarantine_consecutive_losses = 6;
  HealthController health(config, stats);
  auto camera = make_camera(4);
  health.attach(*camera);

  report(health, *camera, 5, /*corrupt=*/true);
  EXPECT_EQ(health.state(4), HealthState::kHealthy);
  // A recovered frame resets the streak.
  report(health, *camera, 1, /*corrupt=*/false);
  report(health, *camera, 5, /*corrupt=*/true);
  EXPECT_EQ(health.state(4), HealthState::kHealthy);
  report(health, *camera, 1, /*corrupt=*/true);  // 6th consecutive loss
  EXPECT_EQ(health.state(4), HealthState::kQuarantined);
}

TEST(HealthQuarantine, MostlyDeadWindowSkipsTheLadderEntirely) {
  RuntimeStats stats;
  HealthConfig config = small_config();
  config.quarantine_error_rate = 0.75;
  HealthController health(config, stats);
  auto camera = make_camera(9);
  health.attach(*camera);

  report(health, *camera, 3, /*corrupt=*/true);
  report(health, *camera, 1, /*corrupt=*/false);
  EXPECT_EQ(health.state(9), HealthState::kQuarantined);
  EXPECT_EQ(health.snapshot(9).ladder_step, 0);  // never touched the knobs
  EXPECT_EQ(camera->classify_codec_planes(), 0);
}

TEST(HealthPlumbing, TransitionHookSeesEveryEdgeWithItsLadderStep) {
  RuntimeStats stats;
  HealthController health(small_config(), stats);
  auto camera = make_camera(2);
  health.attach(*camera);

  std::vector<std::tuple<int, HealthState, HealthState, int>> edges;
  health.set_transition_hook(
      [&edges](int id, HealthState from, HealthState to, int step) {
        edges.emplace_back(id, from, to, step);
      });

  report(health, *camera, 2, /*corrupt=*/true);
  report(health, *camera, 2, /*corrupt=*/false);  // -> kDegraded, step 1
  report(health, *camera, 4, /*corrupt=*/false);  // -> kHealthy, step 0

  ASSERT_EQ(edges.size(), 2U);
  EXPECT_EQ(edges[0], std::make_tuple(2, HealthState::kHealthy,
                                      HealthState::kDegraded, 1));
  EXPECT_EQ(edges[1], std::make_tuple(2, HealthState::kDegraded,
                                      HealthState::kHealthy, 0));
}

TEST(HealthPlumbing, SummaryAggregatesHealthCountersPerCamera) {
  RuntimeStats stats;
  HealthController health(small_config(), stats);
  auto camera = make_camera(11);
  health.attach(*camera);

  report(health, *camera, 4, /*corrupt=*/true);  // all-corrupt -> quarantine
  EXPECT_FALSE(health.admit_capture(11));

  const runtime::RuntimeSummary summary = stats.summary(1.0);
  EXPECT_EQ(summary.health_transitions, 1U);  // kHealthy -> kQuarantined
  EXPECT_EQ(summary.quarantine_drops, 1U);
  ASSERT_EQ(summary.health_cameras.size(), 1U);
  EXPECT_EQ(summary.health_cameras[0].first, 11);
  EXPECT_EQ(summary.health_cameras[0].second.transitions, 1U);
  EXPECT_EQ(summary.health_cameras[0].second.quarantine_drops, 1U);

  // The counters render into the human report and the registry's JSON export.
  EXPECT_NE(runtime::to_string(summary).find("health"), std::string::npos);
  const std::string transitions =
      R"("snappix_health_transitions_total{camera=\"11\",to=\"quarantined\"}": 1)";
  EXPECT_NE(obs::to_json(stats.registry().snapshot()).find(transitions), std::string::npos);
}

TEST(HealthPlumbing, ControllerRejectsDisabledConfigAndDuplicateAttach) {
  RuntimeStats stats;
  EXPECT_THROW(HealthController(HealthConfig{}, stats), std::exception);

  HealthController health(small_config(), stats);
  auto camera = make_camera(1);
  health.attach(*camera);
  EXPECT_THROW(health.attach(*camera), std::exception);

  // Unknown cameras are fail-open: never supervised, never blocked.
  EXPECT_TRUE(health.admit_capture(999));
  EXPECT_EQ(health.state(999), HealthState::kHealthy);
}

}  // namespace
}  // namespace snappix

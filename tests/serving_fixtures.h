// Shared serving-test fixtures: the small system/scene geometry the runtime
// tests serve, the one bitwise comparator for served result sets, the one
// batch-1 reference oracle for random-replay fleets, and the one per-camera
// conservation ledger.
//
// Header-only; included by the runtime tests and by the serving benches
// (tests/ is on the bench include path). Nothing here depends on gtest: tests
// assert EXPECT_EQ(first_divergence(a, b), ""), benches test .empty().
#pragma once

#include <cstdint>
#include <cstring>
#include <iomanip>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "codec/bitplane.h"
#include "core/snappix.h"
#include "data/synthetic.h"
#include "runtime/camera.h"
#include "runtime/server.h"
#include "util/rng.h"

namespace snappix::fixtures {

// 16x16 frames, T = 8 slots, 4 classes: small enough that a test builds and
// serves a system in milliseconds.
inline core::SnapPixConfig small_system_config() {
  core::SnapPixConfig cfg;
  cfg.image = 16;
  cfg.frames = 8;
  cfg.num_classes = 4;
  cfg.seed = 3;
  return cfg;
}

// The scene geometry matching small_system_config().
inline data::SceneConfig small_scene() {
  data::SceneConfig scene;
  scene.frames = 8;
  scene.height = 16;
  scene.width = 16;
  scene.num_classes = 4;
  return scene;
}

// Bitwise comparison of two (camera_id, sequence)-sorted result sets.
// Returns "" when they are identical in camera_id, sequence, task,
// pattern_id, predicted, label and every reconstruction voxel's bits;
// otherwise a one-line description of the first difference.
inline std::string first_divergence(const std::vector<runtime::TaskResult>& a,
                                    const std::vector<runtime::TaskResult>& b) {
  if (a.size() != b.size()) {
    return "result count " + std::to_string(a.size()) + " vs " + std::to_string(b.size());
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const runtime::TaskResult& x = a[i];
    const runtime::TaskResult& y = b[i];
    std::ostringstream os;
    os << "result " << i << " (camera " << x.camera_id << ", sequence " << x.sequence
       << "): ";
    if (x.camera_id != y.camera_id || x.sequence != y.sequence) {
      os << "identity vs (camera " << y.camera_id << ", sequence " << y.sequence << ")";
      return os.str();
    }
    if (x.task != y.task) {
      os << "task " << runtime::to_string(x.task) << " vs " << runtime::to_string(y.task);
      return os.str();
    }
    if (x.pattern_id != y.pattern_id) {
      os << "pattern_id " << x.pattern_id << " vs " << y.pattern_id;
      return os.str();
    }
    if (x.predicted != y.predicted) {
      os << "predicted " << x.predicted << " vs " << y.predicted;
      return os.str();
    }
    if (x.label != y.label) {
      os << "label " << x.label << " vs " << y.label;
      return os.str();
    }
    if (x.task == runtime::Task::kReconstruct) {
      const std::vector<float>& vx = x.reconstruction.data();
      const std::vector<float>& vy = y.reconstruction.data();
      if (vx.size() != vy.size()) {
        os << "reconstruction size " << vx.size() << " vs " << vy.size();
        return os.str();
      }
      for (std::size_t v = 0; v < vx.size(); ++v) {
        if (std::memcmp(&vx[v], &vy[v], sizeof(float)) != 0) {
          os << "voxel " << v << " "
             << std::setprecision(std::numeric_limits<float>::max_digits10) << vx[v]
             << " vs " << vy[v];
          return os.str();
        }
      }
    }
  }
  return "";
}

// Seeded random replay buffers and the batch-1 answer every frame of them
// should get. Camera c's buffer holds `frames` (H, W) frames of uniform
// [0, 1) values drawn from Rng(seed + c), at the system's geometry, coded
// with the system pattern. With `codec_wire` the reference classifies
// dequantize(quantize(frame)): exactly what a clean full-depth entropy-coded
// link delivers. The engines are batch-invariant, so batch 1 IS the unloaded
// answer: load, sharding, shedding, degradation and rescue change WHICH
// frames are served, never the bits of a full-fidelity answer.
class ReplayOracle {
 public:
  ReplayOracle(const core::SnapPixSystem& system, int cameras, int frames, std::uint64_t seed,
               bool codec_wire = false)
      : pattern_(system.pattern_ref()) {
    const std::int64_t side = system.config().image;
    for (int cam = 0; cam < cameras; ++cam) {
      Rng rng(seed + static_cast<std::uint64_t>(cam));
      std::vector<Tensor> buffer;
      std::vector<std::int64_t> answers;
      for (int i = 0; i < frames; ++i) {
        std::vector<float> data(static_cast<std::size_t>(side * side));
        for (float& v : data) {
          v = rng.uniform(0.0F, 1.0F);
        }
        Tensor frame = Tensor::from_vector(std::move(data), Shape{side, side});
        const Tensor wire =
            codec_wire ? codec::dequantize_frame(codec::quantize_frame(frame)) : frame;
        answers.push_back(
            system.classify_coded(Tensor::from_vector(wire.data(), Shape{1, side, side}))[0]);
        buffer.push_back(std::move(frame));
      }
      buffers_.push_back(std::move(buffer));
      answers_.push_back(std::move(answers));
    }
  }

  const runtime::PatternRef& pattern() const { return pattern_; }
  const std::vector<Tensor>& buffer(int camera) const {
    return buffers_.at(static_cast<std::size_t>(camera));
  }
  // A plain unlabeled replay camera over buffer(camera).
  std::unique_ptr<runtime::ReplayCameraSource> camera(int camera) const {
    return std::make_unique<runtime::ReplayCameraSource>(camera, pattern_, buffer(camera),
                                                         std::vector<std::int64_t>{});
  }

  // first_divergence of `served` against the reference result of each of
  // its (camera, sequence) slots: an unlabeled classify answer under the
  // system pattern, predicting the batch-1 class. `served` may be any subset
  // of a run's results (the frames a loaded fleet did not shed, the answers
  // a degraded camera served at full fidelity).
  std::string divergence(const std::vector<runtime::TaskResult>& served) const {
    const std::uint64_t pattern_id = pattern_->hash();
    std::vector<runtime::TaskResult> expected(served.size());
    for (std::size_t i = 0; i < served.size(); ++i) {
      const std::vector<std::int64_t>& answers =
          answers_.at(static_cast<std::size_t>(served[i].camera_id));
      expected[i].camera_id = served[i].camera_id;
      expected[i].sequence = served[i].sequence;
      expected[i].pattern_id = pattern_id;
      expected[i].predicted =
          answers[static_cast<std::size_t>(served[i].sequence) % answers.size()];
    }
    return first_divergence(served, expected);
  }

 private:
  runtime::PatternRef pattern_;
  std::vector<std::vector<Tensor>> buffers_;
  std::vector<std::vector<std::int64_t>> answers_;
};

// Where every frame one camera offered went. Once run() returns (it drains
// every queue first) conservation is exact:
// offered == served + shed + wire_dropped + quarantined.
struct CameraLedger {
  std::uint64_t served = 0;        // results returned
  std::uint64_t shed = 0;          // queue-full and deadline sheds
  std::uint64_t wire_dropped = 0;  // still corrupt after the transport policy
  std::uint64_t quarantined = 0;   // captures skipped while quarantined
  std::uint64_t transitions = 0;   // health-state changes (not part of the sum)

  std::uint64_t accounted() const { return served + shed + wire_dropped + quarantined; }
};

// One ledger row per camera id in [0, cameras), read from a run's results
// and its summary's per-camera rows.
inline std::vector<CameraLedger> ledger_from(const std::vector<runtime::TaskResult>& results,
                                             const runtime::RuntimeSummary& summary,
                                             int cameras) {
  std::vector<CameraLedger> ledger(static_cast<std::size_t>(cameras));
  const auto row = [&ledger](int camera) -> CameraLedger& {
    return ledger.at(static_cast<std::size_t>(camera));
  };
  for (const runtime::TaskResult& r : results) {
    ++row(r.camera_id).served;
  }
  for (const auto& [camera, counters] : summary.shed_cameras) {
    row(camera).shed = counters.queue_full + counters.deadline;
  }
  for (const auto& [camera, counters] : summary.transport_cameras) {
    row(camera).wire_dropped = counters.dropped_frames;
  }
  for (const auto& [camera, counters] : summary.health_cameras) {
    row(camera).quarantined = counters.quarantine_drops;
    row(camera).transitions = counters.transitions;
  }
  return ledger;
}

// "" when every camera's ledger accounts for exactly offered[camera] frames;
// otherwise a one-line description of the first camera that does not.
inline std::string conservation_gap(const std::vector<CameraLedger>& ledger,
                                    const std::vector<std::int64_t>& offered) {
  if (ledger.size() != offered.size()) {
    return "ledger rows " + std::to_string(ledger.size()) + " vs " +
           std::to_string(offered.size()) + " offered counts";
  }
  for (std::size_t cam = 0; cam < ledger.size(); ++cam) {
    const CameraLedger& c = ledger[cam];
    if (c.accounted() != static_cast<std::uint64_t>(offered[cam])) {
      std::ostringstream os;
      os << "camera " << cam << ": " << c.served << " served + " << c.shed << " shed + "
         << c.wire_dropped << " wire-dropped + " << c.quarantined << " quarantined != "
         << offered[cam] << " offered";
      return os.str();
    }
  }
  return "";
}

}  // namespace snappix::fixtures

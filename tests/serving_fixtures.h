// Shared serving-test fixtures: the small system/scene geometry the runtime
// tests serve, and the one bitwise comparator for served result sets.
//
// Header-only; included by the runtime tests and by the benches that gate
// bit-identity between serving arms (tests/ is on the bench include path).
// Nothing here depends on gtest: tests assert
// EXPECT_EQ(first_divergence(a, b), ""), benches test .empty().
#pragma once

#include <cstring>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/snappix.h"
#include "data/synthetic.h"
#include "runtime/server.h"

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

}  // namespace snappix::fixtures

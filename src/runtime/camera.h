// CameraSource: adapters that turn the repo's scene/data/sensor components
// into per-camera coded-frame streams for the scheduler.
//
// Every camera owns a handle to its CE pattern, its Rng stream, and whatever
// generator or simulator produces its scenes, so next_frame() is deterministic
// given the camera's seed regardless of how producer threads interleave — the
// property the batching-determinism tests rely on. Patterns are held through
// `PatternRef` (shared, immutable): a fleet programmed with the system default
// shares ONE CePattern instance (take it from SnapPixSystem::pattern_ref()),
// while heterogeneous fleets give each camera its own. Each camera also
// declares the task its frames request (`set_task`): classification cameras
// and reconstruction cameras coexist on one server, and every emitted frame is
// stamped with the camera's `pattern_id` (stable CePattern::hash()) plus task
// so the server can route it. Four adapters:
//
//   SyntheticCameraSource  renders procedural clips and encodes them with the
//                          mathematical Eqn.-1 encoder (fast functional path)
//   DatasetCameraSource    replays a VideoDataset's test split round-robin
//   SensorCameraSource     drives the cycle-level StackedSensor simulator and
//                          reports its measured MIPI bytes on the wire
//   ReplayCameraSource     loops a pre-coded frame buffer; models an edge
//                          sensor whose capture happens off-host (serving
//                          benchmarks measure the server, not scene synthesis)
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "ce/encode.h"
#include "ce/pattern.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "runtime/frame.h"
#include "sensor/sensor.h"
#include "transport/link.h"
#include "util/rng.h"

namespace snappix::runtime {

// Shared immutable handle to a CE pattern. Cameras, sensors, and the server's
// pattern registry all hold PatternRefs, so "every camera uses the system
// pattern" costs one allocation for the whole fleet.
using PatternRef = std::shared_ptr<const ce::CePattern>;

// Wraps a pattern value into an owning PatternRef (copies once).
inline PatternRef make_pattern_ref(ce::CePattern pattern) {
  return std::make_shared<const ce::CePattern>(std::move(pattern));
}

class CameraSource {
 public:
  virtual ~CameraSource() = default;

  // Produces the camera's next coded frame (blocking, called from a producer
  // thread). Captures via the adapter's capture_frame(), then — in framed
  // mode — serializes the coded image into CSI-2-style packets, pushes them
  // through the camera's FramedLink (byte/lane accounting + seeded fault
  // injection), and replaces `coded` with whatever the depacketizer
  // reassembled, stamping `transport` and the framed byte accounting.
  // Without framed mode the frame hops in memory unchanged.
  Frame next_frame();

  // Switches this camera onto a framed MIPI link. Call before scheduling;
  // the link (and its fault Rng) lives as long as the camera. With all fault
  // rates zero the framed path is bit-identical to the in-memory one.
  void set_framed(const transport::LinkConfig& link);
  bool framed() const { return link_ != nullptr; }
  // The camera's link, for reading its byte and injected-fault counters;
  // null when not framed. The non-const overload exists for capture-side
  // schedule hooks (tests/chaos.h flips fault rates between captures) — it is
  // only safe from the camera's own producer thread.
  const transport::FramedLink* framed_link() const { return link_.get(); }
  transport::FramedLink* framed_link() { return link_.get(); }

  // Re-runs the framed transfer of the most recently captured frame (same
  // payload, fresh fault draws), restamping the transport fields and bumping
  // frame.retransmits — the mechanism behind TransportPolicy::kRetransmit.
  // Only the frame returned by the last next_frame() call may be retried.
  void retransmit(Frame& frame);

  int id() const { return id_; }
  const ce::CePattern& pattern() const { return *pattern_; }
  const PatternRef& pattern_ref() const { return pattern_; }
  // Stable hash of this camera's pattern; stamped on every emitted frame.
  std::uint64_t pattern_id() const { return pattern_id_; }

  // Which task head this camera's frames request (default kClassify).
  Task task() const { return task_; }
  void set_task(Task task) { task_ = task; }

  // The four serving knobs below exist only per camera: set them before
  // add_camera (the health ladder then moves them from the camera's own
  // producer thread). A setter throws std::invalid_argument on an
  // out-of-range value, so a bad knob fails at setup, not on a live frame.

  // Which precision tier serves this camera's frames (default kFp32); a
  // fleet can mix tiers camera by camera. See docs/serving.md.
  Precision precision() const { return precision_; }
  void set_precision(Precision precision) { precision_ = precision; }

  // QoS class stamped on every emitted frame (default kStandard): a fleet
  // can run best-effort cameras beside realtime alarm cameras. See
  // docs/serving.md for the overload semantics.
  QosClass qos() const { return qos_; }
  void set_qos(QosClass qos) { qos_ = qos; }

  // Per-frame deadline budget: every emitted frame carries
  // deadline = capture time + budget, and the runtime sheds it (drop-late)
  // rather than serve it stale once that passes. Zero (default) means no
  // deadline; negative budgets are rejected.
  std::chrono::microseconds deadline_budget() const { return deadline_budget_; }
  void set_deadline_budget(std::chrono::microseconds budget);

  // Progressive-decode depth for kClassify frames on an entropy-coded framed
  // link (transport::LinkConfig::codec): only the top N bit-planes are
  // transmitted and decoded for classify frames (0 = full depth, the
  // default), while kReconstruct frames always ride at full depth. Must lie
  // in [0, codec::kMaxBitplanes]. Ignored on raw (non-codec) links.
  int classify_codec_planes() const { return codec_planes_; }
  void set_codec_planes(int planes);

 protected:
  CameraSource(int id, PatternRef pattern);

  // Adapter hook: produce the next coded frame (the pre-transport capture).
  // Implementations fill coded/label/byte counters; next_frame() layers the
  // framed transport on top and the scheduler stamps the timing fields.
  virtual Frame capture_frame() = 0;

  // Starts a Frame with identity, sequence number, routing metadata
  // (pattern_id + task), and the conventional (raw_bytes) vs coded
  // (wire_bytes) readout volumes for `height` x `width` at 8-bit depth across
  // the pattern's exposure slots.
  Frame begin_frame(std::int64_t height, std::int64_t width);

  // Encodes a (T, H, W) clip with this camera's pattern and exposure-
  // normalizes it in one pass over the camera's encode table — the
  // mathematical sensor model shared by the synthetic and dataset adapters.
  Tensor encode_normalized(const Tensor& clip) const;
  // The camera's pattern tables, built once at construction.
  const ce::EncodeTable& encode_table() const { return encode_table_; }

  int id_;
  PatternRef pattern_;
  std::uint64_t pattern_id_;
  Task task_ = Task::kClassify;
  std::int64_t next_sequence_ = 0;

 private:
  // Private, so every write goes through the validating setters.
  Precision precision_ = Precision::kFp32;
  QosClass qos_ = QosClass::kStandard;
  std::chrono::microseconds deadline_budget_{0};  // 0 = no deadline
  int codec_planes_ = 0;  // 0 = full depth on entropy-coded links

  // Runs one framed transfer of last_coded_, restamping `frame`'s transport
  // fields and coded payload with the receiver-side view.
  void transfer_framed(Frame& frame);

  ce::EncodeTable encode_table_;
  std::unique_ptr<transport::FramedLink> link_;  // null = in-memory hop
  Tensor last_coded_;        // pre-transport payload of the latest capture
  std::int64_t last_sequence_ = -1;
};

// Procedural scene generator + mathematical CE encoder.
class SyntheticCameraSource : public CameraSource {
 public:
  SyntheticCameraSource(int id, const data::SceneConfig& scene, PatternRef pattern,
                        std::uint64_t seed);
  SyntheticCameraSource(int id, const data::SceneConfig& scene, ce::CePattern pattern,
                        std::uint64_t seed)
      : SyntheticCameraSource(id, scene, make_pattern_ref(std::move(pattern)), seed) {}

 protected:
  Frame capture_frame() override;

 private:
  data::SyntheticVideoGenerator generator_;
  Rng rng_;
};

// Round-robin replay of a dataset's test split (deterministic labels).
class DatasetCameraSource : public CameraSource {
 public:
  // Starts at sample `offset` into the test split and wraps around.
  DatasetCameraSource(int id, std::shared_ptr<const data::VideoDataset> dataset,
                      PatternRef pattern, std::int64_t offset = 0);
  DatasetCameraSource(int id, std::shared_ptr<const data::VideoDataset> dataset,
                      ce::CePattern pattern, std::int64_t offset = 0)
      : DatasetCameraSource(id, std::move(dataset), make_pattern_ref(std::move(pattern)),
                            offset) {}

 protected:
  Frame capture_frame() override;

 private:
  std::shared_ptr<const data::VideoDataset> dataset_;
  std::int64_t cursor_;
};

// Cycle-level hardware simulator in the loop; wire bytes come from the
// simulated MIPI link rather than the analytic estimate. The camera and its
// StackedSensor share one pattern instance.
class SensorCameraSource : public CameraSource {
 public:
  SensorCameraSource(int id, const sensor::SensorConfig& sensor_config,
                     const data::SceneConfig& scene, PatternRef pattern, std::uint64_t seed);
  SensorCameraSource(int id, const sensor::SensorConfig& sensor_config,
                     const data::SceneConfig& scene, ce::CePattern pattern,
                     std::uint64_t seed)
      : SensorCameraSource(id, sensor_config, scene, make_pattern_ref(std::move(pattern)),
                           seed) {}

  const sensor::StackedSensor& sensor() const { return sensor_; }

 protected:
  Frame capture_frame() override;

 private:
  sensor::StackedSensor sensor_;
  data::SyntheticVideoGenerator generator_;
  Rng rng_;
};

// Loops a pre-coded frame buffer. next_frame() is O(copy), so serving
// benchmarks measure server throughput instead of scene synthesis.
class ReplayCameraSource : public CameraSource {
 public:
  // `coded` are (H, W) exposure-normalized frames; `labels` may be empty or
  // parallel to `coded`.
  ReplayCameraSource(int id, PatternRef pattern, std::vector<Tensor> coded,
                     std::vector<std::int64_t> labels);
  ReplayCameraSource(int id, ce::CePattern pattern, std::vector<Tensor> coded,
                     std::vector<std::int64_t> labels)
      : ReplayCameraSource(id, make_pattern_ref(std::move(pattern)), std::move(coded),
                           std::move(labels)) {}

  // Pre-codes `frames` clips from `source` (exercising its full capture path
  // once per clip) and wraps them in a replay camera sharing the same
  // id/pattern handle/task and serving knobs.
  static std::unique_ptr<ReplayCameraSource> record(CameraSource& source, int frames);

 protected:
  Frame capture_frame() override;

 private:
  std::vector<Tensor> coded_;
  std::vector<std::int64_t> labels_;
  std::vector<std::uint64_t> raw_bytes_;
  std::vector<std::uint64_t> wire_bytes_;
  std::size_t cursor_ = 0;
};

}  // namespace snappix::runtime

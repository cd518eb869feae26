// Frame: the unit of data flowing through the streaming runtime.
//
// A frame is one typed inference request as it leaves a camera: a coded image
// (T exposure slots folded into a single (H, W) image, exposure-normalized —
// exactly the tensor the server-side ViT consumes) plus the routing metadata
// the server needs in a heterogeneous fleet: which CE pattern produced it
// (`pattern_id`, a stable content hash) and which task head should serve it
// (`task`). The byte counters carry the sensor-side accounting (what a
// conventional T-frame readout would have shipped vs. what actually went on
// the wire) so RuntimeStats can report fleet-level compression and energy
// numbers.
#pragma once

#include <chrono>
#include <cstdint>

#include "runtime/precision.h"
#include "tensor/tensor.h"

namespace snappix::runtime {

using Clock = std::chrono::steady_clock;

// The task a frame requests from the server. kClassify runs the AR
// (action-recognition) head; kReconstruct runs the per-patch REC decoder.
enum class Task : std::uint8_t { kClassify, kReconstruct };

inline const char* to_string(Task task) {
  return task == Task::kClassify ? "classify" : "reconstruct";
}

// Per-camera quality-of-service class, governing what happens to a camera's
// frames under overload. Realtime frames are never rejected at admission
// (producers block, as before) and are never stolen into a slower shard's
// tail; standard frames block on a full queue too but may be stolen;
// best-effort frames are REJECTED (shed, counted) when their queue is full
// instead of exerting backpressure — they absorb the overload so the
// higher classes keep their latency.
enum class QosClass : std::uint8_t { kRealtime, kStandard, kBestEffort };

inline const char* to_string(QosClass qos) {
  switch (qos) {
    case QosClass::kRealtime:
      return "realtime";
    case QosClass::kStandard:
      return "standard";
    default:
      return "best_effort";
  }
}

// Why a frame was shed (dropped by the runtime, never served). kQueueFull is
// admission control: a best-effort frame met a full queue. kDeadline is
// drop-late: the frame's deadline expired while it waited, so serving it
// would hand the client a stale answer. Keyed into the per-camera,
// per-reason shed counters (snappix_shed_frames_total) and the trace's
// "shed" events.
enum class ShedReason : std::uint8_t { kQueueFull, kDeadline };

inline const char* to_string(ShedReason reason) {
  return reason == ShedReason::kQueueFull ? "queue_full" : "deadline";
}

// How the frame's coded image reached the server. kInMemory is the direct
// tensor hop (no transport modeled); the framed states mirror
// transport::RxOutcome for frames that crossed a framed MIPI link
// (src/transport/): kFramedOk round-tripped bit-exactly, the rest name the
// fault class that corrupted the frame.
enum class TransportStatus : std::uint8_t {
  kInMemory,
  kFramedOk,
  kCrcError,
  kTruncated,
  kMissingLines,
};

inline const char* to_string(TransportStatus status) {
  switch (status) {
    case TransportStatus::kInMemory:
      return "in_memory";
    case TransportStatus::kFramedOk:
      return "framed_ok";
    case TransportStatus::kCrcError:
      return "crc_error";
    case TransportStatus::kTruncated:
      return "truncated";
    default:
      return "missing_lines";
  }
}

// True when the framed transfer failed to deliver the frame intact — the
// states the server's TransportPolicy (drop or retransmit) acts on.
inline bool is_corrupt(TransportStatus status) {
  return status == TransportStatus::kCrcError || status == TransportStatus::kTruncated ||
         status == TransportStatus::kMissingLines;
}

// Link-health state of a camera, as tracked by the fleet HealthController
// (runtime/health.h) from windowed transport counters. kHealthy serves at
// the camera's configured fidelity; kDegraded has the degradation ladder
// engaged (lower codec depth / int8 / best-effort); kQuarantined pauses
// capture entirely for a hold period; kRecovering is stepping back up the
// ladder on sustained clean windows. See docs/resilience.md.
enum class HealthState : std::uint8_t {
  kHealthy,
  kDegraded,
  kQuarantined,
  kRecovering,
};

inline const char* to_string(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kQuarantined:
      return "quarantined";
    default:
      return "recovering";
  }
}

// Why a BatchAggregator closed a batch. Recorded per batch for the per-reason
// counters in ShardStatsView / the metrics registry and stamped on the trace
// span, so a latency regression can be attributed to policy (deadline
// flushes) vs load (full batches) vs drain/steal behavior.
enum class FlushReason : std::uint8_t {
  kMaxBatch,    // batch reached BatchPolicy::max_batch
  kMaxLatency,  // max_delay elapsed before the batch filled
  kExhausted,   // the queue closed and drained mid-batch
  kHoldback,    // a frame with a different serving key closed the batch
  kSteal,       // the batch was stolen from a sibling's queue tail
};

inline const char* to_string(FlushReason reason) {
  switch (reason) {
    case FlushReason::kMaxBatch:
      return "max_batch";
    case FlushReason::kMaxLatency:
      return "max_latency";
    case FlushReason::kExhausted:
      return "exhausted";
    case FlushReason::kHoldback:
      return "holdback";
    default:
      return "steal";
  }
}

struct Frame {
  int camera_id = -1;
  std::int64_t sequence = -1;  // per-camera frame index, starts at 0
  Tensor coded;                // (H, W) exposure-normalized coded image
  std::int64_t label = -1;     // ground-truth motion class, -1 when unknown

  // Stable hash of the CE pattern that coded this frame (CePattern::hash()).
  // The server resolves it to per-pattern serving state through the
  // EngineCache; batches never mix pattern ids.
  std::uint64_t pattern_id = 0;
  Task task = Task::kClassify;
  // Which engine tier serves this frame (see precision.h). Part of the
  // serving key: batches never mix precisions, and the EngineCache keeps one
  // entry per (pattern_id, precision).
  Precision precision = Precision::kFp32;

  // QoS class inherited from the camera (see QosClass above). Stamped at
  // capture; read by FrameQueue admission, the EDF dequeue policy, and the
  // steal path (realtime frames are never stolen).
  QosClass qos = QosClass::kStandard;
  // Absolute serving deadline, stamped at capture as capture_start +
  // the camera's deadline budget. time_point{} (the epoch) means "no
  // deadline" — the frame is served whenever its turn comes. A frame whose
  // deadline has passed is shed at dequeue (drop-late), never served stale.
  Clock::time_point deadline{};

  bool has_deadline() const { return deadline != Clock::time_point{}; }
  bool expired(Clock::time_point now) const { return has_deadline() && deadline < now; }

  std::uint64_t raw_bytes = 0;   // conventional T-frame readout volume
  std::uint64_t wire_bytes = 0;  // coded-image volume actually transmitted
                                 // (framed mode: total framed bytes, overhead included)

  // Transport outcome of the LAST framed transfer attempt (kInMemory when the
  // camera is not framed), plus the retry accounting. Finer receiver-side
  // detail (per-row CRC failures, lost packets) stays in the attempt's
  // transport::TransferResult and is not kept on the frame.
  TransportStatus transport = TransportStatus::kInMemory;
  std::uint16_t retransmits = 0;  // framed re-transfers spent on this frame

  // Progressive-decode depth (entropy-coded links only, all zero otherwise).
  // `decode_depth` is the CONFIGURED plane cap the camera applied to this
  // frame (0 = full depth) — part of the serving key, so frames decoded at
  // different fidelity never share a batch. `decoded_planes`/`total_planes`
  // report what the link actually achieved, for stats and tracing; they vary
  // per frame (the bit depth depends on the frame's max magnitude) and are
  // deliberately NOT part of the key.
  std::uint8_t decode_depth = 0;
  std::uint8_t decoded_planes = 0;
  std::uint8_t total_planes = 0;

  // Lifecycle timestamps. The serving shard synthesizes a sampled frame's
  // spans from them (TraceRecorder::should_sample picks it by sequence).
  Clock::time_point capture_start{};    // camera began producing this frame
  Clock::time_point capture_end{};      // capture + transport retries finished
  Clock::time_point transport_start{};  // first framed transfer began (framed only)
  Clock::time_point transport_end{};    // last framed transfer ended (framed only)
  Clock::time_point enqueue_time{};     // frame entered the FrameQueue
  Clock::time_point dequeue_time{};     // aggregator popped it (even if held back)
};

}  // namespace snappix::runtime

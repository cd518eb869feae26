// BatchAggregator: coalesces frames from many cameras into server batches
// under a max-batch-size / max-latency policy, never mixing serving keys.
//
// The aggregator pops one frame (blocking), then keeps popping until either
// the batch is full or `max_delay` has elapsed since the batch opened — the
// standard serving trade-off: larger batches amortize per-dispatch cost,
// the deadline bounds how long an early frame can sit waiting for company.
//
// Heterogeneous fleets add a constraint: a batch runs through ONE engine with
// ONE task head at ONE precision, so coalescing must never cross a
// (pattern_id, task, precision) boundary. When a frame with a different key
// arrives mid-batch it is held back (one-frame holdback, preserving global
// FIFO order) and opens the next batch instead.
#pragma once

#include <chrono>
#include <optional>
#include <vector>

#include "runtime/frame.h"
#include "runtime/frame_queue.h"

namespace snappix::runtime {

struct BatchPolicy {
  int max_batch = 8;
  // How long an open batch may wait for more frames. Zero means "greedy":
  // take whatever is already queued, never wait.
  std::chrono::microseconds max_delay{2000};
};

// Throws std::invalid_argument with a descriptive message when the policy is
// unusable (max_batch < 1 or negative max_delay).
void validate(const BatchPolicy& policy);

// The serving key: batches are homogeneous in pattern, task, precision, AND
// progressive-decode depth — a batch runs through ONE engine, fp32/int8
// engines are distinct residents of the cache, and frames decoded at
// different plane depths are different-fidelity inputs that must not mix.
// (Depth does NOT extend the EngineCache key: the engine itself is
// depth-agnostic, the same weights serve every depth.)
struct BatchKey {
  std::uint64_t pattern_id = 0;
  Task task = Task::kClassify;
  Precision precision = Precision::kFp32;
  std::uint8_t decode_depth = 0;  // configured plane cap, 0 = full depth

  bool matches(const Frame& frame) const {
    return frame.pattern_id == pattern_id && frame.task == task &&
           frame.precision == precision && frame.decode_depth == decode_depth;
  }
};

class BatchAggregator {
 public:
  // Outcome of a poll_batch() call. A bounded wait suits consumers that have
  // other work to do when their own queue runs dry (e.g. a shard worker that
  // steals from siblings while idle).
  enum class Poll {
    kBatch,      // `out` holds a batch; key via last_key()
    kIdle,       // no frame arrived by the deadline, but more may still come
    kExhausted,  // queue closed + drained and no held-back frame: terminal
  };

  BatchAggregator(FrameQueue& queue, const BatchPolicy& policy);

  // poll_batch() with no deadline: false once the queue is closed and fully
  // drained and no held-back frame remains.
  bool next_batch(std::vector<Frame>& out) {
    return poll_batch(out, Clock::time_point::max()) == Poll::kBatch;
  }

  // Fills `out` with the next batch (clearing it first), waiting for its
  // FIRST frame only until `idle_deadline` (Clock::time_point::max() waits
  // with no deadline); once a first frame is in hand the usual
  // max_batch/max_delay policy applies. Batches preserve queue FIFO order and
  // are homogeneous in their BatchKey, available via last_key(). kIdle means
  // the caller should come back (or go steal); kExhausted is terminal.
  Poll poll_batch(std::vector<Frame>& out, Clock::time_point idle_deadline);

  // Key of the batch most recently returned by next_batch()/poll_batch().
  const BatchKey& last_key() const { return last_key_; }

  // Why the batch most recently returned by next_batch()/poll_batch() was
  // closed (kMaxBatch / kMaxLatency / kExhausted / kHoldback — kSteal is
  // stamped by the server for batches that bypass the aggregator).
  FlushReason last_flush_reason() const { return last_flush_reason_; }

  // Stacks the batch's coded images into one (B, H, W) tensor.
  static Tensor stack_coded(const std::vector<Frame>& frames);

  const BatchPolicy& policy() const { return policy_; }

 private:
  // Moves the held-back frame into `first` if one exists and its deadline
  // has not passed. An expired holdback is shed (drop-late, accounted
  // through the queue) and false is returned, as if no holdback existed.
  bool take_holdback(Frame& first);

  FrameQueue& queue_;
  BatchPolicy policy_;
  BatchKey last_key_;
  FlushReason last_flush_reason_ = FlushReason::kMaxBatch;
  // A frame popped mid-batch whose key differed: it opens the next batch.
  std::optional<Frame> holdback_;
};

}  // namespace snappix::runtime

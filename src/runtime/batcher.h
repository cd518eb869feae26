// BatchAggregator: coalesces frames from many cameras into server batches
// under a max-batch-size / max-latency policy, never mixing serving keys.
//
// Batching is work-conserving: the aggregator pops one frame (blocking),
// then takes every frame of that key already queued, up to `max_batch`, in
// one FrameQueue::pop_run call and hands the batch out at once. A shard
// never idles while frames it could serve are queued, and under load batches
// fill from the backlog. A positive `max_delay` opts into waiting for
// company: the open batch keeps taking frames until it is full or
// `max_delay` has elapsed since it opened, trading latency for fuller
// batches.
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
  // How long an open batch may wait for more frames. Zero (the default)
  // never waits: the batch is whatever of its key is already queued.
  std::chrono::microseconds max_delay{0};
};

// Throws std::invalid_argument with a descriptive message when the policy is
// unusable (max_batch < 1 or negative max_delay).
void validate(const BatchPolicy& policy);

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
  // with no deadline); once a first frame is in hand, the frames of its key
  // already queued join it, and a positive max_delay waits for more.
  // Batches preserve queue FIFO order and are homogeneous in their BatchKey,
  // available via last_key(). kIdle means the caller should come back (or go
  // steal); kExhausted is terminal.
  Poll poll_batch(std::vector<Frame>& out, Clock::time_point idle_deadline);

  // Key of the batch most recently returned by next_batch()/poll_batch().
  const BatchKey& last_key() const { return last_key_; }

  // Why the batch most recently returned by next_batch()/poll_batch() was
  // closed (kMaxBatch / kMaxLatency / kDrained / kExhausted / kHoldback —
  // kSteal is stamped by the server for batches that bypass the aggregator).
  FlushReason last_flush_reason() const { return last_flush_reason_; }

  // Stacks the batch's coded images into one (B, H, W) tensor.
  static Tensor stack_coded(const std::vector<Frame>& frames);

  const BatchPolicy& policy() const { return policy_; }

 private:
  // Moves the held-back frame into `first` if one exists and its deadline
  // has not passed. An expired holdback is shed (drop-late, accounted
  // through the queue) and false is returned, as if no holdback existed.
  bool take_holdback(Frame& first);
  // Appends the queued frames of last_key_ to `out`, up to max_batch, in one
  // FrameQueue::pop_run call (a mismatched frame lands in holdback_), stamps
  // their dequeue time, and returns why the run ended.
  FlushReason take_queued(std::vector<Frame>& out);

  FrameQueue& queue_;
  BatchPolicy policy_;
  BatchKey last_key_;
  FlushReason last_flush_reason_ = FlushReason::kMaxBatch;
  // A frame popped mid-batch whose key differed: it opens the next batch.
  std::optional<Frame> holdback_;
};

}  // namespace snappix::runtime

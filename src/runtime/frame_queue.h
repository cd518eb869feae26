// FrameQueue: bounded MPMC queue connecting camera producers to shard
// consumers, with QoS admission control, deadline-aware dequeue, blocking
// backpressure, and tail-batch work stealing.
//
// Multiple camera threads push concurrently; the owning shard's batch
// aggregator pops, and idle sibling shards may steal a key-pure batch from
// the tail. Overload behavior is governed by each frame's QosClass:
//
//   kRealtime / kStandard  a full queue BLOCKS the producer — the
//                          backpressure that keeps a slow server from being
//                          buried by fast sensors (frames queue up at the
//                          edge, exactly as a real sensor's MIPI link would
//                          stall).
//   kBestEffort            a full queue REJECTS the frame instead
//                          (PushResult::kShed): best-effort traffic absorbs
//                          the overload so the higher classes keep their
//                          latency. Sheds are counted exactly and reported
//                          through the shed observer.
//
// Dequeue is earliest-deadline-first (EDF): pop()/pop_until() serve the
// frame with the soonest deadline; frames without deadlines rank behind all
// deadlined frames and among themselves keep strict FIFO order (so queues
// with no deadlines behave exactly as the original FIFO — the
// batching-determinism tests rely on that). Frames whose deadline has
// already passed are shed at dequeue (drop-late) rather than served stale;
// shedding frees capacity, so ALL blocked producers are woken.
//
// close() wakes everyone: pending pops drain the remaining frames
// (drop-late still applies), then return false.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "runtime/frame.h"

namespace snappix::runtime {

// Outcome of an admit() call. kAccepted: the frame is queued. kShed: the
// frame was rejected by admission control (best-effort on a full queue) —
// the producer should keep producing; the frame is counted and reported,
// not served. kClosed: the queue closed — the runtime is shutting down and
// the producer should stop. The kShed/kClosed split is load-bearing: a
// producer blocked on a full queue that observes close() is NOT a shed (see
// the counter-taxonomy regression tests).
enum class PushResult : std::uint8_t { kAccepted, kShed, kClosed };

inline const char* to_string(PushResult result) {
  switch (result) {
    case PushResult::kAccepted:
      return "accepted";
    case PushResult::kShed:
      return "shed";
    default:
      return "closed";
  }
}

class FrameQueue {
 public:
  // Called once per shed frame (admission rejects and drop-late expiries),
  // OUTSIDE the queue lock, on whichever thread performed the shed. The
  // frame is dead — the observer may read it (ids, qos, timestamps) but the
  // runtime will never serve it.
  using ShedObserver = std::function<void(const Frame&, ShedReason)>;

  explicit FrameQueue(std::size_t capacity);

  FrameQueue(const FrameQueue&) = delete;
  FrameQueue& operator=(const FrameQueue&) = delete;

  // QoS-aware admission. Realtime/standard frames block while the queue is
  // full (kClosed if it closes first); best-effort frames are shed
  // immediately on a full queue (kShed) instead of blocking. kAccepted
  // frames will be served or counted as drop-late sheds — never lost
  // silently.
  PushResult admit(Frame frame);

  // Blocks while the queue is empty. Serves the earliest-deadline frame
  // (ties and no-deadline frames in FIFO order); sheds expired frames
  // instead of serving them. Returns false once closed AND drained.
  bool pop(Frame& out) { return pop_until(out, Clock::time_point::max()); }

  // Like pop(), but gives up at `deadline` (Clock::time_point::max() never
  // gives up); false on timeout or closed+drained.
  bool pop_until(Frame& out, Clock::time_point deadline);

  // Work stealing: removes the maximal (pattern_id, task, precision)-pure run of frames
  // from the TAIL of the queue — at most `max_frames` of them — and appends
  // them to `out` in FIFO order (out is cleared first). The stolen run is a
  // contiguous queue suffix, so a camera's frames inside it keep their
  // sequence order, and it never mixes serving keys — the thief can serve it
  // as one batch through one engine. Realtime frames are NEVER stolen: the
  // run stops where a kRealtime frame starts, so a thief (by construction a
  // slower/idler shard) cannot move latency-critical work behind its own
  // tail. Already-expired frames inside the run are shed, not exported.
  // Non-blocking: returns false when the queue is empty or the tail is
  // realtime. Frees up to max_frames capacity slots, waking ALL producers
  // blocked in admit() (a single wake here would strand producers behind
  // capacity that a steal already freed — see the shutdown-while-stealing
  // regression tests).
  bool steal_tail(std::vector<Frame>& out, int max_frames);

  // Watchdog rescue, step 1: removes EVERY queued frame into `out` (appended
  // in FIFO order) without serving or shedding them, and returns the count.
  // The caller owns the frames and must re-admit them elsewhere (or shed
  // them through a queue's shed() so the ledger stays exact). Frees the full
  // capacity, waking all blocked producers. Drained frames leave this
  // queue's conservation ledger through `drained()`.
  std::size_t drain(std::vector<Frame>& out);

  // Watchdog rescue, step 2: enqueues `frame` BYPASSING the capacity bound —
  // the supervisor must never block behind a sibling's backpressure while it
  // holds rescued frames. On success the frame is consumed (moved) and
  // counted in total_pushed; returns false — leaving `frame` intact for the
  // caller to shed — when the queue is closed. Not for producers: capacity
  // is the backpressure contract; only rescue paths may overshoot it.
  bool force_admit(Frame& frame);

  // Counts `frame` as shed for `reason` through this queue's counters and
  // observer, WITHOUT it being queued. For external owners of dequeued
  // frames that decide to drop them under this queue's accounting — e.g. the
  // BatchAggregator shedding an expired holdback.
  void shed(const Frame& frame, ShedReason reason);

  // Installs the shed callback (replacing any previous one). Call before
  // concurrent use: installation is unsynchronized against running
  // producers/consumers.
  void set_shed_observer(ShedObserver observer) { shed_observer_ = std::move(observer); }

  // Idempotent. After close(), pushes fail and pops drain whatever is left.
  void close();

  bool closed() const;
  std::size_t depth() const;
  std::size_t capacity() const { return capacity_; }

  // True once the queue can never yield another frame: closed and drained.
  // Sticky — no push can succeed after close() — so a true result is final.
  bool exhausted() const;

  // Lifetime counters for RuntimeStats. Conservation: total_pushed ==
  // frames served downstream + shed_expired + drained + depth() at any
  // quiescent point (admission sheds never enter the queue, so
  // shed_admission is NOT part of that ledger; drained frames moved to a
  // sibling queue and re-entered the ledger THERE via force_admit).
  std::uint64_t total_pushed() const;
  std::size_t high_water_mark() const;
  // Frames rejected at admission (best-effort on a full queue).
  std::uint64_t shed_admission() const;
  // Accepted frames later shed for missing their deadline (drop-late at
  // pop/steal, plus external shed(..., kDeadline) calls).
  std::uint64_t shed_expired() const;
  // Frames removed by drain() (watchdog rescue).
  std::uint64_t drained() const;

 private:
  // Index of the frame pop should serve: earliest deadline, FIFO among
  // no-deadline frames and ties. Call with mutex_ held and frames_ non-empty.
  std::size_t edf_index() const;
  // Removes already-expired frames from the queue into `shed`, bumping
  // shed_expired_. Call with mutex_ held; report_sheds() must run on the
  // collected frames after the lock is released.
  void collect_expired(Clock::time_point now, std::vector<Frame>& shed);
  // Invokes the observer for every collected frame. Call WITHOUT the lock.
  void report_sheds(const std::vector<Frame>& shed, ShedReason reason) const;

  const std::size_t capacity_;
  ShedObserver shed_observer_;  // set before concurrent use, then read-only
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<Frame> frames_;
  bool closed_ = false;
  std::uint64_t total_pushed_ = 0;
  std::uint64_t shed_admission_ = 0;
  std::uint64_t shed_expired_ = 0;
  std::uint64_t drained_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace snappix::runtime

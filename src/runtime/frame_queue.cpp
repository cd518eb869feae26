#include "runtime/frame_queue.h"

#include <algorithm>

#include "util/common.h"

namespace snappix::runtime {

FrameQueue::FrameQueue(std::size_t capacity) : capacity_(capacity) {
  SNAPPIX_CHECK(capacity > 0, "FrameQueue capacity must be positive");
}

PushResult FrameQueue::admit(Frame frame) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (frame.qos == QosClass::kBestEffort) {
      // Admission control: best-effort never exerts backpressure. A full
      // queue sheds the frame right here — exactly once, exactly counted —
      // instead of stalling the producer.
      if (closed_) {
        return PushResult::kClosed;
      }
      if (frames_.size() >= capacity_) {
        ++shed_admission_;
        lock.unlock();
        if (shed_observer_) {
          shed_observer_(frame, ShedReason::kQueueFull);
        }
        return PushResult::kShed;
      }
    } else {
      // Realtime/standard: block under backpressure. A producer parked here
      // that observes close() is NOT shed — its frame simply never entered
      // the runtime (the kShed/kClosed taxonomy the regression tests pin).
      not_full_.wait(lock, [this] { return closed_ || frames_.size() < capacity_; });
      if (closed_) {
        return PushResult::kClosed;
      }
    }
    frames_.push_back(std::move(frame));
    ++total_pushed_;
    high_water_ = std::max(high_water_, frames_.size());
  }
  not_empty_.notify_one();
  return PushResult::kAccepted;
}

std::size_t FrameQueue::edf_index() const {
  // Earliest deadline first; frames without deadlines rank behind every
  // deadlined frame. Strict less on both comparisons keeps ties (and the
  // no-deadline bulk) in FIFO order, so a queue with no deadlines degrades
  // to exactly the original FIFO behavior.
  std::size_t best = 0;
  for (std::size_t i = 1; i < frames_.size(); ++i) {
    const Frame& cand = frames_[i];
    const Frame& cur = frames_[best];
    if (!cand.has_deadline()) {
      continue;
    }
    if (!cur.has_deadline() || cand.deadline < cur.deadline) {
      best = i;
    }
  }
  return best;
}

void FrameQueue::collect_expired(Clock::time_point now, std::vector<Frame>& shed) {
  for (auto it = frames_.begin(); it != frames_.end();) {
    if (it->expired(now)) {
      shed.push_back(std::move(*it));
      it = frames_.erase(it);
      ++shed_expired_;
    } else {
      ++it;
    }
  }
}

void FrameQueue::report_sheds(const std::vector<Frame>& shed, ShedReason reason) const {
  if (!shed_observer_) {
    return;
  }
  for (const Frame& frame : shed) {
    shed_observer_(frame, reason);
  }
}

bool FrameQueue::pop_until(Frame& out, Clock::time_point deadline) {
  std::vector<Frame> shed;
  bool got = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto ready = [this] { return closed_ || !frames_.empty(); };
    for (;;) {
      if (deadline == Clock::time_point::max()) {
        not_empty_.wait(lock, ready);
      } else if (!not_empty_.wait_until(lock, deadline, ready)) {
        break;  // timed out
      }
      // Drop-late: frames past their deadline are shed, never served stale.
      collect_expired(Clock::now(), shed);
      if (!frames_.empty()) {
        const std::size_t idx = edf_index();
        out = std::move(frames_[idx]);
        frames_.erase(frames_.begin() + static_cast<std::ptrdiff_t>(idx));
        got = true;
        break;
      }
      if (closed_) {
        break;  // closed and drained
      }
      // Everything present had expired; wait for fresh frames.
    }
  }
  // Sheds can free several slots at once; a single wake would strand
  // producers behind capacity the sheds already freed.
  if (!shed.empty()) {
    not_full_.notify_all();
  } else if (got) {
    not_full_.notify_one();
  }
  report_sheds(shed, ShedReason::kDeadline);
  return got;
}

bool FrameQueue::steal_tail(std::vector<Frame>& out, int max_frames) {
  SNAPPIX_CHECK(max_frames > 0, "steal_tail needs max_frames >= 1, got " << max_frames);
  out.clear();
  std::vector<Frame> shed;
  std::size_t taken = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Never export stale work: expired frames are shed here exactly as a pop
    // would shed them, before the key run is measured.
    collect_expired(Clock::now(), shed);
    if (frames_.empty() || frames_.back().qos == QosClass::kRealtime) {
      // Empty, or the tail is realtime — realtime frames stay on the shard
      // their camera was routed to (a thief is by construction the idler,
      // often colder shard; moving latency-critical work there inverts the
      // priority the QoS class promises).
      lock.unlock();
      if (!shed.empty()) {
        not_full_.notify_all();
      }
      report_sheds(shed, ShedReason::kDeadline);
      return false;
    }
    // Walk backwards over the maximal run sharing the tail frame's serving
    // key, capped at max_frames and stopping at any realtime frame — the run
    // is a contiguous suffix, so per-camera sequence order inside it is
    // preserved.
    const std::uint64_t pattern_id = frames_.back().pattern_id;
    const Task task = frames_.back().task;
    const Precision precision = frames_.back().precision;
    const std::uint8_t decode_depth = frames_.back().decode_depth;
    auto first = frames_.end();
    while (first != frames_.begin() && taken < static_cast<std::size_t>(max_frames)) {
      auto prev = std::prev(first);
      if (prev->pattern_id != pattern_id || prev->task != task ||
          prev->precision != precision || prev->decode_depth != decode_depth ||
          prev->qos == QosClass::kRealtime) {
        break;
      }
      first = prev;
      ++taken;
    }
    out.reserve(taken);
    for (auto it = first; it != frames_.end(); ++it) {
      out.push_back(std::move(*it));
    }
    frames_.erase(first, frames_.end());
  }
  // A steal (and any sheds above) frees up to max_frames slots at once.
  // notify_one would wake a single blocked producer and strand the rest
  // until the next pop — with thieves as the only remaining consumers during
  // shutdown, that is a deadlock. Wake everyone; each re-checks capacity
  // under the lock.
  not_full_.notify_all();
  report_sheds(shed, ShedReason::kDeadline);
  return !out.empty();
}

std::size_t FrameQueue::drain(std::vector<Frame>& out) {
  std::size_t taken = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    taken = frames_.size();
    out.reserve(out.size() + taken);
    for (Frame& frame : frames_) {
      out.push_back(std::move(frame));
    }
    frames_.clear();
    drained_ += taken;
  }
  if (taken > 0) {
    // A drain frees the whole queue at once; wake every blocked producer.
    not_full_.notify_all();
  }
  return taken;
}

bool FrameQueue::force_admit(Frame& frame) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) {
      return false;  // frame left intact: the caller sheds it honestly
    }
    frames_.push_back(std::move(frame));
    ++total_pushed_;
    high_water_ = std::max(high_water_, frames_.size());
  }
  not_empty_.notify_one();
  return true;
}

void FrameQueue::shed(const Frame& frame, ShedReason reason) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (reason == ShedReason::kQueueFull) {
      ++shed_admission_;
    } else {
      ++shed_expired_;
    }
  }
  if (shed_observer_) {
    shed_observer_(frame, reason);
  }
}

void FrameQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

bool FrameQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

std::size_t FrameQueue::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return frames_.size();
}

bool FrameQueue::exhausted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_ && frames_.empty();
}

std::uint64_t FrameQueue::total_pushed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_pushed_;
}

std::size_t FrameQueue::high_water_mark() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return high_water_;
}

std::uint64_t FrameQueue::shed_admission() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shed_admission_;
}

std::uint64_t FrameQueue::shed_expired() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shed_expired_;
}

std::uint64_t FrameQueue::drained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return drained_;
}

}  // namespace snappix::runtime

#include "runtime/batcher.h"

#include <cstring>
#include <sstream>
#include <stdexcept>

#include "util/common.h"

namespace snappix::runtime {

void validate(const BatchPolicy& policy) {
  if (policy.max_batch < 1) {
    std::ostringstream os;
    os << "BatchPolicy.max_batch must be >= 1 (a batch needs at least one frame), got "
       << policy.max_batch;
    throw std::invalid_argument(os.str());
  }
  if (policy.max_delay.count() < 0) {
    std::ostringstream os;
    os << "BatchPolicy.max_delay must be non-negative (0 = greedy, never wait), got "
       << policy.max_delay.count() << " us";
    throw std::invalid_argument(os.str());
  }
}

BatchAggregator::BatchAggregator(FrameQueue& queue, const BatchPolicy& policy)
    : queue_(queue), policy_(policy) {
  validate(policy);
}

bool BatchAggregator::take_holdback(Frame& first) {
  if (!holdback_.has_value()) {
    return false;
  }
  if (holdback_->expired(Clock::now())) {
    // The previous batch's inference outlived the held-back frame's
    // deadline: drop-late applies to the holdback exactly as it would have
    // inside the queue. Accounted through the queue the frame came from.
    queue_.shed(*holdback_, ShedReason::kDeadline);
    holdback_.reset();
    return false;
  }
  first = std::move(*holdback_);
  holdback_.reset();
  return true;
}

BatchAggregator::Poll BatchAggregator::poll_batch(std::vector<Frame>& out,
                                                  Clock::time_point idle_deadline) {
  out.clear();
  Frame first;
  // dequeue_time was stamped when a held-back frame actually left the queue —
  // the held-back wait must not absorb the previous batch's inference time.
  if (!take_holdback(first)) {
    if (!queue_.pop_until(first, idle_deadline)) {
      // pop_until conflates "timed out" with "closed and drained";
      // exhausted() is sticky (no push can succeed after close), so checking
      // it after the fact cannot mislabel a queue that still holds frames.
      return queue_.exhausted() ? Poll::kExhausted : Poll::kIdle;
    }
    first.dequeue_time = Clock::now();
  }
  last_key_ = BatchKey::of(first);
  const Clock::time_point deadline = Clock::now() + policy_.max_delay;
  out.push_back(std::move(first));
  last_flush_reason_ = take_queued(out);
  // Opt-in wait: only a positive max_delay holds a drained batch open, and
  // each arrival takes the queue again. A closed queue ends the wait at once
  // (the next take reports kExhausted).
  while (last_flush_reason_ == FlushReason::kDrained && policy_.max_delay.count() > 0) {
    if (!queue_.wait_until(deadline)) {
      last_flush_reason_ = FlushReason::kMaxLatency;
      break;
    }
    last_flush_reason_ = take_queued(out);
  }
  return Poll::kBatch;
}

FlushReason BatchAggregator::take_queued(std::vector<Frame>& out) {
  const std::size_t max_batch = static_cast<std::size_t>(policy_.max_batch);
  if (out.size() >= max_batch) {
    return FlushReason::kMaxBatch;
  }
  const std::size_t taken_from = out.size();
  const FlushReason reason = queue_.pop_run(last_key_, max_batch - taken_from, out, holdback_);
  const Clock::time_point now = Clock::now();
  for (std::size_t i = taken_from; i < out.size(); ++i) {
    out[i].dequeue_time = now;
  }
  if (reason == FlushReason::kHoldback) {
    holdback_->dequeue_time = now;
  }
  return reason;
}

Tensor BatchAggregator::stack_coded(const std::vector<Frame>& frames) {
  SNAPPIX_CHECK(!frames.empty(), "cannot stack an empty batch");
  const Shape& fs = frames.front().coded.shape();
  SNAPPIX_CHECK(fs.ndim() == 2, "frames must carry (H, W) coded images");
  const std::int64_t h = fs[0];
  const std::int64_t w = fs[1];
  std::vector<float> data(frames.size() * static_cast<std::size_t>(h * w));
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const Tensor& coded = frames[i].coded;
    SNAPPIX_CHECK(coded.shape() == fs, "batch mixes frame geometries: "
                                           << coded.shape().to_string() << " vs "
                                           << fs.to_string());
    std::memcpy(data.data() + i * static_cast<std::size_t>(h * w), coded.data().data(),
                static_cast<std::size_t>(h * w) * sizeof(float));
  }
  return Tensor::from_vector(std::move(data),
                             Shape{static_cast<std::int64_t>(frames.size()), h, w});
}

}  // namespace snappix::runtime

#include "runtime/scheduler.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "runtime/health.h"
#include "util/common.h"

namespace snappix::runtime {

void validate(const TransportPolicy& policy) {
  // The upper bound matches Frame::retransmits (uint16): a larger budget
  // would wrap the counter and the retry loop's guard would never trip.
  if (policy.max_retransmits < 0 || policy.max_retransmits > 0xFFFF) {
    std::ostringstream os;
    os << "TransportPolicy.max_retransmits must be in [0, 65535], got "
       << policy.max_retransmits;
    throw std::invalid_argument(os.str());
  }
  if (policy.backoff_initial.count() < 0 || policy.backoff_max.count() < 0) {
    throw std::invalid_argument("TransportPolicy backoff durations must be non-negative");
  }
  if (policy.backoff_initial.count() > 0 &&
      policy.backoff_max < policy.backoff_initial) {
    throw std::invalid_argument(
        "TransportPolicy.backoff_max must be >= backoff_initial");
  }
}

StreamScheduler::StreamScheduler(RuntimeStats& stats, TransportPolicy transport)
    : stats_(stats), transport_(transport) {
  validate(transport);
}

StreamScheduler::~StreamScheduler() {
  stop();
  for (std::thread& producer : producers_) {
    producer.join();
  }
}

void StreamScheduler::stop() {
  // Order matters: first wake producers sleeping in retransmit backoff (they
  // re-check stopping_ and bail), THEN close the queues to unblock producers
  // stuck in admit(). Either step alone leaves one class of producer blocked
  // while the join waits for it.
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  close_all_queues();
}

void StreamScheduler::fail(const std::string& what) {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    if (error_.empty()) {
      error_ = what;
    }
  }
  stop();
}

void StreamScheduler::close_all_queues() {
  for (FrameQueue* queue : unique_queues_) {
    queue->close();
  }
}

bool StreamScheduler::backoff_wait(std::chrono::microseconds delay) {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  return !stop_cv_.wait_for(lock, delay, [this] { return stopping_; });
}

void StreamScheduler::register_queue(FrameQueue& queue) {
  SNAPPIX_CHECK(!started_, "cannot register queues after start()");
  if (std::find(unique_queues_.begin(), unique_queues_.end(), &queue) ==
      unique_queues_.end()) {
    unique_queues_.push_back(&queue);
  }
}

void StreamScheduler::add_camera(std::unique_ptr<CameraSource> camera, FrameQueue& queue) {
  SNAPPIX_CHECK(!started_, "cannot add cameras after start()");
  SNAPPIX_CHECK(camera != nullptr, "null camera");
  stats_.add_camera(camera->id());
  cameras_.push_back(std::move(camera));
  auto route = std::make_unique<Route>();
  route->home = &queue;
  route->current.store(&queue, std::memory_order_relaxed);
  routes_.push_back(std::move(route));
  register_queue(queue);
}

void StreamScheduler::set_health(HealthController* health) {
  SNAPPIX_CHECK(!started_, "cannot install a health controller after start()");
  health_ = health;
}

std::size_t StreamScheduler::reroute(FrameQueue& from, FrameQueue& to) {
  std::size_t moved = 0;
  for (const std::unique_ptr<Route>& route : routes_) {
    if (route->current.load(std::memory_order_acquire) == &from) {
      route->current.store(&to, std::memory_order_release);
      ++moved;
    }
  }
  return moved;
}

std::size_t StreamScheduler::restore_routes(FrameQueue& home) {
  std::size_t moved = 0;
  for (const std::unique_ptr<Route>& route : routes_) {
    if (route->home == &home &&
        route->current.load(std::memory_order_acquire) != &home) {
      route->current.store(&home, std::memory_order_release);
      ++moved;
    }
  }
  return moved;
}

void StreamScheduler::start(std::int64_t frames_per_camera) {
  start(std::vector<std::int64_t>(cameras_.size(), frames_per_camera));
}

void StreamScheduler::start(const std::vector<std::int64_t>& frames_per_camera) {
  SNAPPIX_CHECK(!started_, "scheduler already started");
  SNAPPIX_CHECK(!cameras_.empty(), "no cameras to schedule");
  SNAPPIX_CHECK(frames_per_camera.size() == cameras_.size(),
                "frames_per_camera has " << frames_per_camera.size() << " entries for "
                                         << cameras_.size() << " cameras");
  for (const std::int64_t frames : frames_per_camera) {
    SNAPPIX_CHECK(frames > 0, "frames_per_camera entries must be positive, got " << frames);
  }
  started_ = true;
  // One producer thread per camera: producers spend most of their time
  // blocked in admit() under backpressure, so oversubscribing cores is the
  // right model (and preemption provides the multiplexing on small hosts).
  active_producers_.store(static_cast<int>(cameras_.size()));
  producers_.reserve(cameras_.size());
  for (std::size_t i = 0; i < cameras_.size(); ++i) {
    producers_.emplace_back([this, i, frames = frames_per_camera[i]] {
      produce(*cameras_[i], *routes_[i], frames);
    });
  }
}

void StreamScheduler::retransmit_with_backoff(CameraSource& camera, Frame& frame) {
  // Edge-side integrity gate: a corrupt framed frame is retried (fresh fault
  // draws over the same payload) until it recovers or the retry count runs
  // out.
  std::chrono::microseconds backoff = transport_.backoff_initial;
  while (is_corrupt(frame.transport) &&
         frame.retransmits < transport_.max_retransmits) {
    if (backoff.count() > 0) {
      if (!backoff_wait(backoff)) {
        break;  // scheduler is shutting down; abandon the frame
      }
      backoff = std::min(transport_.backoff_max, 2 * backoff);
    }
    camera.retransmit(frame);
  }
}

void StreamScheduler::produce(CameraSource& camera, Route& route, std::int64_t frames) {
  // Link faults never throw (the transport policy and the health controller
  // handle them), so an exception here is a defect, and it fails the run.
  try {
    for (std::int64_t i = 0; i < frames; ++i) {
      // Quarantine gate: a camera the health controller has quarantined
      // skips the capture entirely (no transfer, no retries, counted as a
      // quarantine drop) — the whole point is to stop paying wire cost for
      // a dead link. The iteration still consumes one frame of the camera's
      // budget, keeping per-camera conservation exact.
      if (health_ != nullptr && !health_->admit_capture(camera.id())) {
        continue;
      }
      const Clock::time_point t0 = Clock::now();
      Frame frame = camera.next_frame();
      frame.capture_start = t0;
      if (camera.framed()) {
        if (is_corrupt(frame.transport) &&
            transport_.corrupt == TransportPolicy::Corrupt::kRetransmit) {
          retransmit_with_backoff(camera, frame);
        }
        const bool codec_link = camera.framed_link()->config().codec;
        stats_.record_transport(camera.id(), frame.transport, frame.retransmits, codec_link,
                                frame.decoded_planes, frame.total_planes);
        if (health_ != nullptr) {
          health_->on_frame(camera, is_corrupt(frame.transport), frame.retransmits);
        }
      }
      // The capture stage owns everything edge-side: scene synthesis, CE
      // encoding, and — in framed mode — every transport attempt including
      // retries and backoff sleeps, so retry storms are visible in the
      // capture percentiles rather than silently widening the capture->e2e
      // gap.
      frame.capture_end = Clock::now();
      stats_.record_capture(std::chrono::duration<double>(frame.capture_end - t0).count());
      if (is_corrupt(frame.transport)) {
        continue;  // counted, never enqueued: the fleet serves one fewer frame
      }
      frame.enqueue_time = Clock::now();
      // The route is re-read per frame: the watchdog may have re-pointed
      // this camera at a sibling shard mid-run (see reroute()).
      FrameQueue& queue = *route.current.load(std::memory_order_acquire);
      // QoS admission: kShed means a best-effort frame met a full queue —
      // it was counted through the shed observer and the camera keeps
      // streaming (overload is THIS frame's problem, not the stream's).
      // kClosed means the runtime is shutting down; the loop ends without
      // counting anything (a blocked producer observing close() is not a
      // shed — the taxonomy the regression tests pin).
      if (queue.admit(std::move(frame)) == PushResult::kClosed) {
        break;
      }
    }
  } catch (const std::exception& e) {
    std::ostringstream os;
    os << "camera " << camera.id() << " failed: " << e.what();
    fail(os.str());
  }
  if (active_producers_.fetch_sub(1) == 1) {
    close_all_queues();  // last producer out turns off the lights, fleet-wide
  }
}

void StreamScheduler::join() {
  for (std::thread& producer : producers_) {
    producer.join();
  }
  producers_.clear();
  std::lock_guard<std::mutex> lock(stop_mutex_);
  if (!error_.empty()) {
    throw std::runtime_error(error_);
  }
}

}  // namespace snappix::runtime

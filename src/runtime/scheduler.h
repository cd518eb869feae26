// StreamScheduler: drives N camera producers onto the server's shard queues.
//
// Each camera gets one producer thread (a std::thread the scheduler owns):
// loop { capture -> stamp -> blocking push } onto the FrameQueue it was
// routed to at add_camera() time (the server routes by pattern_id so a
// shard's queue only ever carries patterns it owns). Producers mostly block
// on backpressure, so oversubscribing cores is the right model.
// The last producer to finish closes EVERY routed queue, so shard consumers
// drain and exit cleanly — closing queues one by one as their own producers
// finish would strand work-stealing siblings that still expect to poll them.
// A serving thread that throws (a producer here, or a shard worker through
// fail()) stops the whole run the same way, and join() rethrows the first
// failure once every producer has joined.
// All cameras own their Rng streams, so a camera's frame sequence is
// reproducible no matter how the producers interleave.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/camera.h"
#include "runtime/frame_queue.h"
#include "runtime/stats.h"

namespace snappix::runtime {

class HealthController;

// What the producer loop does with a framed frame that arrives corrupt
// (CRC error, truncated, or missing lines). Applied per frame, edge-side,
// before the frame can enter a FrameQueue — the server only ever serves
// intact payloads.
struct TransportPolicy {
  enum class Corrupt : std::uint8_t {
    kDrop,        // count it and move on (the fleet serves one fewer frame)
    kRetransmit,  // re-run the framed transfer (fresh fault draws), up to
                  // max_retransmits times; still corrupt after that => drop
  };
  Corrupt corrupt = Corrupt::kDrop;
  int max_retransmits = 3;  // per-frame retry budget under kRetransmit

  // Exponential retransmit backoff: the producer sleeps `backoff_initial`
  // before the first retry, doubling it (capped at `backoff_max`) between
  // attempts — a degrading link gets breathing room instead of a tight retry
  // storm. Zero initial backoff (the default) keeps the immediate-retry
  // loop. Retries stay bounded by max_retransmits, so the retry count (and
  // each link's fault-Rng stream) never depends on timing. The wait is
  // interruptible: a scheduler shutting down wakes mid-backoff producers
  // immediately.
  std::chrono::microseconds backoff_initial{0};
  std::chrono::microseconds backoff_max{5000};
};

// Throws std::invalid_argument when the policy is unusable (max_retransmits
// outside [0, 65535], negative backoff durations, backoff_max below a nonzero
// backoff_initial). The single validation site for both the scheduler and
// ServerConfig.
void validate(const TransportPolicy& policy);

class StreamScheduler {
 public:
  // start() spawns one producer thread per camera. `transport` governs
  // corrupt framed frames; it is inert for cameras without framed mode.
  explicit StreamScheduler(RuntimeStats& stats, TransportPolicy transport = {});
  ~StreamScheduler();

  StreamScheduler(const StreamScheduler&) = delete;
  StreamScheduler& operator=(const StreamScheduler&) = delete;

  // Registers a queue for end-of-stream close WITHOUT routing a camera to
  // it. The server registers every shard queue up front: a shard that ends up
  // with no cameras must still see its queue close when the fleet drains, or
  // its worker (and every sibling waiting on fleet exhaustion) polls forever.
  void register_queue(FrameQueue& queue);

  // Routes the camera's frames to `queue` (registering it as with
  // register_queue) and adds the camera's series to the RuntimeStats. The
  // queue must outlive the scheduler; several cameras may share one queue.
  void add_camera(std::unique_ptr<CameraSource> camera, FrameQueue& queue);
  std::size_t camera_count() const { return cameras_.size(); }

  // Installs the fleet health controller (may be null = unsupervised). Call
  // before start(); the controller must outlive the scheduler. Producers
  // consult it per capture (quarantine gate) and report every framed
  // frame's transport fate to it.
  void set_health(HealthController* health);

  // Watchdog re-routing: atomically points every camera currently routed to
  // `from` at `to` instead (both must be registered queues), returning how
  // many cameras moved. Safe to call mid-run from the supervisor thread;
  // producers pick up the new route on their next frame. Frames already
  // queued in `from` are NOT moved — drain() them separately.
  std::size_t reroute(FrameQueue& from, FrameQueue& to);
  // Points every camera whose HOME queue is `home` back at it (the stalled
  // shard recovered). Returns how many cameras moved back.
  std::size_t restore_routes(FrameQueue& home);

  // Launches one producer thread per camera, each emitting
  // `frames_per_camera` frames. Returns immediately; every routed queue is
  // closed when the last producer finishes (or the queues were closed
  // externally).
  void start(std::int64_t frames_per_camera);
  // Skewed-fleet variant: camera i emits frames_per_camera[i] frames. The
  // vector must be parallel to the add_camera() order.
  void start(const std::vector<std::int64_t>& frames_per_camera);

  // Fails the run: records `what` (the first message wins), then stops the
  // producers in the destructor's order — wake those sleeping in retransmit
  // backoff, then close every registered queue. Producers see kClosed and
  // end; shard workers drain their queues and exit. Any thread may call it.
  void fail(const std::string& what);

  // Blocks until every producer has joined, then throws std::runtime_error
  // with the first fail() message, if any.
  void join();

 private:
  // One camera's routing slot. `home` is the add_camera() assignment;
  // `current` is where frames actually go and is the only part the watchdog
  // retargets mid-run.
  struct Route {
    FrameQueue* home = nullptr;
    // order: producers load `current` acquire before every admit; the
    // watchdog swaps it with release stores on reroute/restore. The
    // pointed-to queue synchronizes its own state through its mutex — the
    // acquire/release here only orders the route swap itself, so a producer
    // that sees the new pointer sees a fully re-routed fleet.
    std::atomic<FrameQueue*> current{nullptr};
  };

  void produce(CameraSource& camera, Route& route, std::int64_t frames);
  // Runs the kRetransmit policy on a corrupt framed frame: exponential
  // interruptible backoff between attempts, bounded by max_retransmits.
  void retransmit_with_backoff(CameraSource& camera, Frame& frame);
  // Interruptible sleep for retransmit backoff; false when the scheduler is
  // stopping (the producer must abandon the frame and exit).
  bool backoff_wait(std::chrono::microseconds delay);
  // Wakes producers sleeping in retransmit backoff, then closes every queue.
  void stop();
  void close_all_queues();

  RuntimeStats& stats_;
  TransportPolicy transport_;
  HealthController* health_ = nullptr;  // optional; set before start()
  std::vector<std::unique_ptr<CameraSource>> cameras_;
  std::vector<std::unique_ptr<Route>> routes_;  // parallel to cameras_
  std::vector<FrameQueue*> unique_queues_;      // each routed queue once
  // Shutdown handshake for producers sleeping in retransmit backoff: stop()
  // sets stopping_ (under stop_mutex_) and notifies BEFORE closing the
  // queues, so a producer mid-backoff wakes immediately instead of serving
  // out its sleep against a failed or dying scheduler.
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;  // guarded by stop_mutex_
  std::string error_;      // first fail() message; guarded by stop_mutex_
  // order: seq_cst (default) on the fetch_sub in produce() — the "last
  // producer out" edge (fetch_sub returning 1) must be a total-order event so
  // exactly one producer closes the queues; the queue state those closes
  // touch synchronizes separately through FrameQueue's mutex.
  std::atomic<int> active_producers_{0};
  bool started_ = false;
  // One per camera; join() or the destructor joins them before any member
  // above is destroyed.
  std::vector<std::thread> producers_;
};

}  // namespace snappix::runtime

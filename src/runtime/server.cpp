#include "runtime/server.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/common.h"

namespace snappix::runtime {

void validate(const ServerConfig& config) {
  validate(config.batch);
  if (config.queue_capacity == 0) {
    throw std::invalid_argument(
        "ServerConfig.queue_capacity must be >= 1 (a zero-capacity queue can never "
        "accept a frame)");
  }
  if (config.cache.capacity == 0) {
    throw std::invalid_argument(
        "ServerConfig.cache.capacity must be >= 1 (a zero-capacity cache would evict every "
        "entry it admits)");
  }
  if (config.shards == 0) {
    throw std::invalid_argument(
        "ServerConfig.shards must be >= 1 (someone has to serve the batches)");
  }
  validate(config.transport);
  validate(config.health);
  obs::validate(config.trace);
}

namespace {

// How long an idle stealing shard waits on its own empty queue before
// probing victims, and between fruitless probe rounds.
constexpr std::chrono::microseconds kStealPoll{200};

const ServerConfig& validated(const ServerConfig& config) {
  validate(config);
  return config;
}

}  // namespace

InferenceServer::InferenceServer(const core::SnapPixSystem& system,
                                 const ServerConfig& config)
    : system_(system), config_(validated(config)),
      scheduler_(stats_, config_.transport) {
  // The factory snapshots the system's model into a fresh fused engine for
  // each newly-resident (pattern, precision) pair. The fp32 snapshot is
  // pattern-independent (one shared model today; a deployment with
  // per-pattern fine-tuned heads swaps this lambda for a weight-store
  // lookup). An int8 miss first CALIBRATES against the missing pattern:
  // synthetic clips are CE-encoded with it and pushed through the fp32
  // engine to collect activation ranges — coded-image statistics depend on
  // the pattern's exposure counts, so the scales are per-pattern. The
  // calibration recipe is fixed (QuantCalibration{}: 32 frames, seed 9001),
  // so rebuilds are bit-identical.
  const int max_batch = std::max(config_.batch.max_batch, 1);
  const std::int64_t image = system.config().image;
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>(i, config_.queue_capacity);
    shard->cache = std::make_unique<EngineCache>(
        config_.cache,
        [&system, max_batch, image](
            const ce::CePattern& pattern, Precision precision) -> std::shared_ptr<VitEngine> {
          if (precision == Precision::kFp32) {
            return std::make_shared<BatchedVitEngine>(*system.classifier(),
                                                      *system.reconstructor(), max_batch);
          }
          const Tensor frames =
              make_calibration_frames(pattern, image, image, QuantCalibration{});
          const QuantSpec spec =
              calibrate(*system.classifier(), *system.reconstructor(), frames);
          return std::make_shared<QuantizedVitEngine>(
              *system.classifier(), *system.reconstructor(), spec, max_batch);
        });
    shards_.push_back(std::move(shard));
    stats_.add_shard(i);
  }
  if (config_.trace.enabled) {
    trace_recorder_ = std::make_unique<obs::TraceRecorder>(config_.trace);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      std::ostringstream name;
      name << "shard " << i;
      shards_[i]->lane = trace_recorder_->create_lane(name.str());
    }
    shed_lane_ = trace_recorder_->create_lane("shed");
    if (config_.health.enabled) {
      health_lane_ = trace_recorder_->create_lane("health");
    }
  }
  if (config_.health.enabled) {
    health_ = std::make_unique<HealthController>(config_.health, stats_);
    health_->set_transition_hook(
        [this](int camera_id, HealthState from, HealthState to, int ladder_step) {
          trace_health_transition(camera_id, from, to, ladder_step);
        });
    scheduler_.set_health(health_.get());
  }
  // Every shard queue closes when the fleet drains — including queues of
  // shards no camera happens to hash to, whose workers would otherwise poll
  // an open-and-forever-empty queue while siblings wait on fleet exhaustion.
  for (const auto& shard : shards_) {
    scheduler_.register_queue(shard->queue);
  }
  // Replace the scheduler's default shed observer with one that also emits
  // a trace event per shed — every shed, not just sampled frames: sheds are
  // rare by design and each one is an operational signal worth keeping.
  for (const auto& shard : shards_) {
    shard->queue.set_shed_observer([this](const Frame& frame, ShedReason reason) {
      stats_.record_shed(frame.camera_id, frame.qos, reason);
      if (shed_lane_ != nullptr) {
        std::ostringstream args;
        args << "\"camera\": " << frame.camera_id << ", \"sequence\": " << frame.sequence
             << ", \"qos\": \"" << to_string(frame.qos) << "\", \"reason\": \""
             << to_string(reason) << "\"";
        // Sheds come from producer threads and shard workers alike; the
        // mutex provides the exclusive-writer guarantee the lane's publish
        // protocol requires.
        std::lock_guard<std::mutex> lock(shed_lane_mutex_);
        shed_lane_->add_complete("shed", trace_recorder_->now_ns(), 0, args.str());
      }
    });
  }
  pixels_per_frame_ = system.config().image * system.config().image;
}

void InferenceServer::add_camera(std::unique_ptr<CameraSource> camera) {
  SNAPPIX_CHECK(camera != nullptr, "null camera");
  const auto [it, inserted] = patterns_.emplace(camera->pattern_id(), camera->pattern_ref());
  // Same 64-bit id must mean same pattern bits: a silent hash collision would
  // merge two patterns' batches and serve both through one cache entry.
  SNAPPIX_CHECK(inserted || *it->second == camera->pattern(),
                "camera " << camera->id() << ": pattern hash collision on id "
                          << camera->pattern_id()
                          << " — two distinct CE patterns share a pattern_id");
  FrameQueue& queue = shards_[shard_for(camera->pattern_id())]->queue;
  // The controller snapshots the camera's knobs (codec planes, precision,
  // qos) as the full-fidelity baseline the degradation ladder steps down
  // from and the recovery path restores.
  if (health_ != nullptr) {
    health_->attach(*camera);
  }
  scheduler_.add_camera(std::move(camera), queue);
}

void InferenceServer::trace_health_transition(int camera_id, HealthState from,
                                              HealthState to, int ladder_step) {
  if (health_lane_ == nullptr) {
    return;
  }
  std::ostringstream args;
  args << "\"camera\": " << camera_id << ", \"from\": \"" << to_string(from)
       << "\", \"to\": \"" << to_string(to) << "\", \"ladder_step\": " << ladder_step;
  // Transitions fire on producer threads; the mutex provides the lane's
  // exclusive-writer guarantee (same pattern as the shed lane).
  std::lock_guard<std::mutex> lock(health_lane_mutex_);
  health_lane_->add_complete("health_transition", trace_recorder_->now_ns(), 0, args.str());
}

const EngineCache& InferenceServer::engine_cache(std::size_t shard) const {
  SNAPPIX_CHECK(shard < shards_.size(),
                "engine_cache(" << shard << ") out of range for " << shards_.size()
                                << " shards");
  return *shards_[shard]->cache;
}

bool InferenceServer::fleet_exhausted(std::size_t index) const {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (i != index && !shards_[i]->queue.exhausted()) {
      return false;
    }
  }
  return true;
}

void InferenceServer::serve_batch(Shard& self, const BatchKey& key,
                                  std::vector<Frame>& batch, FlushReason reason) {
  // Chaos hook first: an injected stall here models a shard hung BEFORE
  // serving, which is exactly the window the watchdog must cover.
  if (config_.before_batch) {
    config_.before_batch(self.index, key, batch.size());
  }
  for (const Frame& frame : batch) {
    stats_.record_queue_wait(
        std::chrono::duration<double>(frame.dequeue_time - frame.enqueue_time).count());
  }

  // Tracing: only batches carrying at least one sampled frame pay for span
  // emission. Installing the shard's lane in TLS lets the EngineCache and the
  // engines emit their stage spans with no API changes; everything lands in
  // this worker's single-writer lane.
  const bool traced =
      trace_recorder_ != nullptr && self.lane != nullptr &&
      std::any_of(batch.begin(), batch.end(), [this](const Frame& frame) {
        return trace_recorder_->should_sample(frame.sequence);
      });
  std::optional<obs::ScopedTraceLane> lane_scope;
  std::int64_t serve_start_ns = 0;
  if (traced) {
    lane_scope.emplace(trace_recorder_.get(), self.lane);
    serve_start_ns = trace_recorder_->now_ns();
  }

  const Tensor coded = BatchAggregator::stack_coded(batch);

  // Resolve the batch's pattern to resident serving state in THIS shard's
  // cache view. The registry holds every pattern an added camera carries, so
  // a thief can build its own entry for a stolen pattern without the frame
  // shipping its pattern bits — engines are deterministic snapshots, so the
  // duplicate serves bit-identical results.
  const auto it = patterns_.find(key.pattern_id);
  SNAPPIX_CHECK(it != patterns_.end(),
                "frame carries unregistered pattern_id " << key.pattern_id
                    << " — was its camera added through add_camera()?");
  const std::shared_ptr<const ServingEntry> entry =
      self.cache->resolve(key.pattern_id, it->second, key.precision);

  const Clock::time_point infer_start = Clock::now();
  if (key.task == Task::kClassify) {
    const std::vector<std::int64_t> predicted = entry->engine->classify(coded);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      TaskResult result;
      result.camera_id = batch[i].camera_id;
      result.sequence = batch[i].sequence;
      result.task = Task::kClassify;
      result.pattern_id = key.pattern_id;
      result.precision = key.precision;
      result.decode_depth = key.decode_depth;
      result.predicted = predicted[i];
      result.label = batch[i].label;
      self.results.push_back(std::move(result));
    }
  } else {
    const Tensor video = entry->engine->reconstruct(coded);
    const std::int64_t frame_elems = video.shape()[1] * video.shape()[2] * video.shape()[3];
    for (std::size_t i = 0; i < batch.size(); ++i) {
      TaskResult result;
      result.camera_id = batch[i].camera_id;
      result.sequence = batch[i].sequence;
      result.task = Task::kReconstruct;
      result.pattern_id = key.pattern_id;
      result.precision = key.precision;
      result.decode_depth = key.decode_depth;
      result.label = batch[i].label;
      const auto begin = video.data().begin() + static_cast<std::int64_t>(i) * frame_elems;
      result.reconstruction = Tensor::from_vector(
          std::vector<float>(begin, begin + frame_elems),
          Shape{video.shape()[1], video.shape()[2], video.shape()[3]});
      self.results.push_back(std::move(result));
    }
  }
  const Clock::time_point infer_end = Clock::now();

  if (traced) {
    std::ostringstream args;
    args << "\"frames\": " << batch.size() << ", \"reason\": \"" << to_string(reason)
         << "\", \"task\": \"" << to_string(key.task) << "\", \"precision\": \""
         << to_string(key.precision) << "\", \"depth\": "
         << static_cast<int>(key.decode_depth);
    self.lane->add_complete("serve_batch", serve_start_ns,
                            trace_recorder_->now_ns() - serve_start_ns, args.str());
    emit_frame_lifecycles(*self.lane, batch, infer_start, infer_end);
  }

  stats_.record_batch(self.index, key.task, key.precision, batch.size(),
                      std::chrono::duration<double>(infer_end - infer_start).count(),
                      reason);
  for (const Frame& frame : batch) {
    stats_.record_frame_done(
        frame.raw_bytes, frame.wire_bytes,
        std::chrono::duration<double>(infer_end - frame.capture_start).count(), frame.qos);
    // A served frame that finished past its deadline is a deadline MISS —
    // the answer was delivered, just late (distinct from a drop-late shed,
    // where nothing was served). Drop-late catches frames that expire while
    // queued; a frame can still expire during batch assembly or inference.
    if (frame.has_deadline() && infer_end > frame.deadline) {
      stats_.record_deadline_miss(frame.camera_id);
    }
  }
  // A completed batch is the strongest liveness signal there is.
  self.heartbeat.fetch_add(1, std::memory_order_relaxed);
}

void InferenceServer::emit_frame_lifecycles(obs::TraceLane& lane,
                                            const std::vector<Frame>& batch,
                                            Clock::time_point infer_start,
                                            Clock::time_point infer_end) const {
  const obs::TraceRecorder& rec = *trace_recorder_;
  const std::int64_t infer_b = rec.to_ns(infer_start);
  const std::int64_t infer_e = rec.to_ns(infer_end);
  for (const Frame& f : batch) {
    if (!rec.should_sample(f.sequence)) {
      continue;
    }
    // One async track per frame: camera_id in the high half, sequence in the
    // low half. Chrome/Perfetto nest same-(cat, id) b/e events by timestamp,
    // so the stage spans render as children of the enclosing "frame" span.
    const std::uint64_t id =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(f.camera_id)) << 32) |
        static_cast<std::uint64_t>(f.sequence & 0xFFFFFFFF);
    std::ostringstream args;
    args << "\"camera\": " << f.camera_id << ", \"sequence\": " << f.sequence;
    const std::int64_t capture_b = rec.to_ns(f.capture_start);
    lane.add_async_begin("frame", "frame", id, capture_b, args.str());
    lane.add_async_begin("capture", "frame", id, capture_b);
    if (f.transport_start != Clock::time_point{}) {
      lane.add_async_begin("transport", "frame", id, rec.to_ns(f.transport_start));
      lane.add_async_end("transport", "frame", id, rec.to_ns(f.transport_end));
    }
    lane.add_async_end("capture", "frame", id, rec.to_ns(f.capture_end));
    lane.add_async_begin("queue_wait", "frame", id, rec.to_ns(f.enqueue_time));
    lane.add_async_end("queue_wait", "frame", id, rec.to_ns(f.dequeue_time));
    lane.add_async_begin("batch_assembly", "frame", id, rec.to_ns(f.dequeue_time));
    lane.add_async_end("batch_assembly", "frame", id, infer_b);
    lane.add_async_begin("infer", "frame", id, infer_b);
    lane.add_async_end("infer", "frame", id, infer_e);
    lane.add_async_end("frame", "frame", id, infer_e);
  }
}

std::string InferenceServer::trace_json() const {
  SNAPPIX_CHECK(trace_recorder_ != nullptr,
                "trace_json() requires ServerConfig::trace.enabled = true");
  return trace_recorder_->chrome_json();
}

void InferenceServer::write_trace(const std::string& path) const {
  SNAPPIX_CHECK(trace_recorder_ != nullptr,
                "write_trace() requires ServerConfig::trace.enabled = true");
  trace_recorder_->write(path);
}

void InferenceServer::shard_loop(std::size_t index) {
  // Grad mode is thread-local, so every worker needs its own guard — the
  // guard installed on the caller's thread does not reach us.
  NoGradGuard guard;
  Shard& self = *shards_[index];
  BatchAggregator aggregator(self.queue, config_.batch);
  std::vector<Frame> batch;
  std::vector<std::pair<std::size_t, std::size_t>> victim_order;  // (depth, shard)
  // With no sibling to steal from (one shard, or stealing off) the worker
  // waits on its own queue with no deadline: a bounded wait would only add
  // idle wakeups every kStealPoll.
  const bool stealing = config_.work_stealing && shards_.size() > 1;
  try {
    for (;;) {
      // Own queue first: a shard prefers the patterns routed to it, keeping
      // its cache view hot.
      const BatchAggregator::Poll poll = aggregator.poll_batch(
          batch, stealing ? Clock::now() + kStealPoll : Clock::time_point::max());
      // Every return from the poll is a beat: the watchdog distinguishes a
      // worker that is polling (alive, queue just slow to fill) from one
      // wedged inside a serve (no beats while its queue backs up).
      self.heartbeat.fetch_add(1, std::memory_order_relaxed);
      if (poll == BatchAggregator::Poll::kBatch) {
        serve_batch(self, aggregator.last_key(), batch, aggregator.last_flush_reason());
        continue;
      }
      if (!stealing) {
        if (poll == BatchAggregator::Poll::kExhausted) {
          break;
        }
        continue;
      }
      // Idle (or drained for good): probe the siblings for a tail batch so a
      // hot camera or pattern cannot starve the fleet while we sit here.
      // Deepest queue first — relief goes where the backlog (and therefore
      // the latency debt and the shed risk) is largest. Depths are a racy
      // snapshot, which is fine: any victim with frames is a valid steal,
      // the ordering is only a preference.
      victim_order.clear();
      for (std::size_t offset = 1; offset < shards_.size(); ++offset) {
        const std::size_t v = (index + offset) % shards_.size();
        victim_order.emplace_back(shards_[v]->queue.depth(), v);
      }
      std::sort(victim_order.begin(), victim_order.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      bool stole = false;
      for (std::size_t i = 0; i < victim_order.size() && !stole; ++i) {
        Shard& victim = *shards_[victim_order[i].second];
        stats_.record_steal_attempt(index);
        if (victim.queue.steal_tail(batch, config_.batch.max_batch)) {
          const Clock::time_point now = Clock::now();
          for (Frame& frame : batch) {
            frame.dequeue_time = now;
          }
          serve_batch(self,
                      BatchKey{batch.front().pattern_id, batch.front().task,
                               batch.front().precision, batch.front().decode_depth},
                      batch, FlushReason::kSteal);
          stole = true;
        }
      }
      if (stole) {
        continue;
      }
      if (poll == BatchAggregator::Poll::kExhausted) {
        if (fleet_exhausted(index)) {
          break;  // nothing left anywhere
        }
        // Our queue is done but siblings may still be filling; poll_batch on
        // an exhausted queue returns immediately, so pace the probe loop.
        std::this_thread::sleep_for(kStealPoll);
      }
    }
  } catch (const std::exception& e) {
    // Fails the whole run: every queue closes, so producers stop and sibling
    // workers drain and exit; run() rethrows after the joins.
    std::ostringstream os;
    os << "shard " << index << " worker failed: " << e.what();
    scheduler_.fail(os.str());
  }
}

void InferenceServer::watchdog_loop() {
  const WatchdogConfig& wd = config_.health.watchdog;
  std::vector<std::uint64_t> last(shards_.size(), 0);
  std::vector<int> stale(shards_.size(), 0);
  while (!watchdog_stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(wd.poll);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard& shard = *shards_[i];
      const std::uint64_t beat = shard.heartbeat.load(std::memory_order_relaxed);
      if (beat != last[i]) {
        last[i] = beat;
        stale[i] = 0;
        if (shard.stalled.load(std::memory_order_relaxed)) {
          // The worker came back (the stall was a long batch, not a death):
          // route its cameras home so its cache view warms back up. Frames
          // already rescued stay with the sibling — moving them again would
          // only add latency.
          shard.stalled.store(false, std::memory_order_relaxed);
          scheduler_.restore_routes(shard.queue);
        }
        continue;
      }
      // A silent worker is only a stall if it is sitting on work it could
      // serve: an empty or closed queue gives an idle worker nothing to beat
      // about (without stealing it waits on its queue with no deadline).
      if (shard.queue.exhausted() || shard.queue.depth() == 0) {
        stale[i] = 0;
        continue;
      }
      if (shard.stalled.load(std::memory_order_relaxed)) {
        // Still hung: re-drain. A producer that was blocked in admit() when
        // the first rescue swept the queue may have landed one more frame
        // before it observed the new route.
        rescue_shard(i);
      } else if (++stale[i] >= wd.stall_polls) {
        shard.stalled.store(true, std::memory_order_relaxed);
        stats_.record_watchdog_stall(i);
        rescue_shard(i);
      }
    }
  }
}

void InferenceServer::rescue_shard(std::size_t index) {
  Shard& stalled = *shards_[index];
  // Healthiest sibling = live, open, shallowest queue: relief must not land
  // on another shard that is itself drowning or already declared dead.
  std::size_t target = index;
  std::size_t best_depth = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (i == index || shards_[i]->stalled.load(std::memory_order_relaxed) ||
        shards_[i]->queue.closed()) {
      continue;
    }
    const std::size_t depth = shards_[i]->queue.depth();
    if (target == index || depth < best_depth) {
      target = i;
      best_depth = depth;
    }
  }
  if (target == index) {
    return;  // no live sibling; nothing to rescue toward
  }
  Shard& sibling = *shards_[target];
  // Route FIRST, then drain: the other order lets producers refill the
  // stalled queue between the sweep and the swap, stranding frames behind a
  // dead worker.
  scheduler_.reroute(stalled.queue, sibling.queue);
  std::vector<Frame> rescued;
  stalled.queue.drain(rescued);
  if (rescued.empty()) {
    return;
  }
  // force_admit bypasses the sibling's capacity bound — the supervisor must
  // never block in admit() while it holds every rescued frame. A closed
  // sibling (shutdown race) sheds the frame through the sibling's ledger so
  // conservation stays exact: drained == force-admitted + shed.
  for (Frame& frame : rescued) {
    if (!sibling.queue.force_admit(frame)) {
      sibling.queue.shed(frame, ShedReason::kDeadline);
    }
  }
  stats_.record_rerouted_frames(index, rescued.size());
}

std::vector<TaskResult> InferenceServer::run(std::int64_t frames_per_camera) {
  return run(std::vector<std::int64_t>(camera_count(), frames_per_camera));
}

std::vector<TaskResult> InferenceServer::run(
    const std::vector<std::int64_t>& frames_per_camera) {
  SNAPPIX_CHECK(!ran_, "InferenceServer::run() is one-shot");
  // Validate the request BEFORE committing the one-shot flag: a rejected
  // call must not poison the server for the corrected retry.
  SNAPPIX_CHECK(frames_per_camera.size() == camera_count(),
                "frames_per_camera has " << frames_per_camera.size() << " entries for "
                                         << camera_count() << " cameras");
  for (const std::int64_t frames : frames_per_camera) {
    SNAPPIX_CHECK(frames > 0, "frames_per_camera entries must be positive, got " << frames);
  }
  SNAPPIX_CHECK(camera_count() > 0, "no cameras to serve");
  ran_ = true;
  const Clock::time_point run_start = Clock::now();
  scheduler_.start(frames_per_camera);

  // The watchdog needs siblings to re-route to, so it only runs with > 1
  // shard. It starts before the workers and stops after they join: the whole
  // worker lifetime is supervised.
  std::thread watchdog;
  if (config_.health.enabled && config_.health.watchdog.enabled && shards_.size() > 1) {
    watchdog = std::thread([this] { watchdog_loop(); });
  }
  std::vector<std::thread> workers;
  workers.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    workers.emplace_back([this, i] { shard_loop(i); });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  if (watchdog.joinable()) {
    watchdog_stop_.store(true, std::memory_order_release);
    watchdog.join();
  }
  scheduler_.join();  // rethrows the first producer or shard worker failure
  wall_seconds_ = std::chrono::duration<double>(Clock::now() - run_start).count();

  std::size_t total_results = 0;
  for (const auto& shard : shards_) {
    total_results += shard->results.size();
  }
  std::vector<TaskResult> results;
  results.reserve(total_results);
  for (const auto& shard : shards_) {
    for (TaskResult& result : shard->results) {
      results.push_back(std::move(result));
    }
    shard->results.clear();
  }
  std::sort(results.begin(), results.end(), [](const TaskResult& a, const TaskResult& b) {
    return a.camera_id != b.camera_id ? a.camera_id < b.camera_id : a.sequence < b.sequence;
  });
  return results;
}

obs::MetricsSnapshot InferenceServer::metrics_snapshot() const {
  obs::MetricsSnapshot snap = stats_.registry().snapshot();
  // The queues and engine caches keep their own ledgers; export them live,
  // beside the series RuntimeStats records.
  for (const auto& shard : shards_) {
    const std::string id = "{shard=\"" + std::to_string(shard->index) + "\"";
    snap.gauges.emplace_back("snappix_queue_high_water" + id + "}",
                             static_cast<double>(shard->queue.high_water_mark()));
    for (const Precision precision : {Precision::kFp32, Precision::kInt8}) {
      const EngineCacheCounters c = shard->cache->counters(precision);
      const std::string labels = id + ",precision=\"" + to_string(precision) + "\"}";
      snap.counters.emplace_back("snappix_cache_hits_total" + labels, c.hits);
      snap.counters.emplace_back("snappix_cache_misses_total" + labels, c.misses);
      snap.counters.emplace_back("snappix_cache_evictions_total" + labels, c.evictions);
    }
  }
  std::sort(snap.counters.begin(), snap.counters.end());
  std::sort(snap.gauges.begin(), snap.gauges.end());
  return snap;
}

RuntimeSummary InferenceServer::summary() const {
  SNAPPIX_CHECK(ran_, "summary() requires a completed run()");
  return summarize(metrics_snapshot(), wall_seconds_);
}

FleetEnergyReport InferenceServer::fleet_energy(const energy::EnergyModel& model,
                                                energy::WirelessTech tech) const {
  SNAPPIX_CHECK(ran_, "fleet_energy() requires a completed run()");
  return stats_.fleet_energy(model, pixels_per_frame_, system_.config().frames, tech);
}

}  // namespace snappix::runtime

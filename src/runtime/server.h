/// \file server.h
/// \brief InferenceServer: the sharded, task-typed serving surface for
/// heterogeneous CE fleets.
///
/// The InferenceServer serves a fleet in which every camera owns its CE
/// pattern and declares its task (AR classification or REC reconstruction),
/// across N consumer shards. Cameras are routed to shards by
/// pattern_id, so a shard's run queue only ever carries patterns it owns and
/// batches stay pattern-pure; each shard worker batches its own queue through
/// a BatchAggregator and resolves per-pattern serving state through its
/// private EngineCache view. An idle shard steals a (pattern_id, task)-pure
/// batch from the TAIL of a loaded sibling's queue, so one hot camera or
/// pattern cannot starve the fleet:
///
///   camera threads (std::thread each)       shard workers (std::thread x N)
///   ┌─────────────────────┐ push            ┌──────────────────────────────┐
///   │ capture + CE encode ├──► shard queue ─►│ batch by (pattern_id, task), │
///   │ stamp pattern_id/   │    [pattern_id  │ resolve in own EngineCache,  │──► TaskResults
///   │ task                │     % shards]   │ classify / reconstruct,      │   (merged +
///   └─────────────────────┘                 │ idle? steal sibling's tail   │    sorted)
///                                           └──────────────────────────────┘
///
/// Bit-exactness: the fused engines are deterministic, batch-invariant
/// snapshots of the model and batches never mix serving keys, so results are
/// bit-identical to the sequential SnapPixSystem paths for EVERY shard count
/// and steal interleaving. Within one batch a camera's frames keep FIFO
/// order (batches — stolen ones included — are contiguous queue runs).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/snappix.h"
#include "obs/trace.h"
#include "runtime/batcher.h"
#include "runtime/camera.h"
#include "runtime/engine_cache.h"
#include "runtime/frame_queue.h"
#include "runtime/health.h"
#include "runtime/scheduler.h"
#include "runtime/stats.h"

namespace snappix::runtime {

/// \brief Server topology and policy knobs. See docs/serving.md for sizing
/// guidance.
struct ServerConfig {
  BatchPolicy batch;
  /// Per-shard run-queue capacity (backpressure bound). A full queue blocks
  /// its producers, exactly as a saturated MIPI link stalls a sensor.
  std::size_t queue_capacity = 64;
  /// Residency bound of EACH shard's private EngineCache view.
  EngineCacheConfig cache;
  /// Consumer shards: worker threads, each owning a run queue + cache view.
  /// Cameras are routed by pattern_id % shards.
  std::size_t shards = 1;
  /// When true (default) an idle shard steals key-pure tail batches from
  /// loaded siblings. No effect with one shard.
  bool work_stealing = true;
  /// What to do with framed frames that arrive corrupt (CRC error,
  /// truncated, missing lines): drop them, or retransmit up to
  /// `transport.max_retransmits` times before dropping. Inert for cameras
  /// without framed mode. See docs/serving.md.
  TransportPolicy transport;
  /// Frame-lifecycle tracing (see docs/observability.md). When enabled, each
  /// shard worker owns a lock-free span lane and traces every camera's
  /// frames with `sequence % trace.sample_every == 0`
  /// (TraceRecorder::should_sample); served outputs stay bit-identical.
  /// Export via trace_json()/write_trace().
  obs::TraceConfig trace;
  /// Fleet health supervision (off by default — see docs/resilience.md):
  /// per-camera link-health state machine + degradation ladder driven by
  /// windowed transport counters, and (when health.watchdog.enabled and
  /// shards > 1) a supervisor thread that detects hung shard workers and
  /// re-routes their cameras to siblings. Healthy cameras' served bits stay
  /// bit-identical whether supervision is on or off.
  HealthConfig health;
  /// Test/chaos hook: invoked on the shard worker at the top of every
  /// serve_batch call, BEFORE inference, with (shard index, batch key, batch
  /// size). Injected sleeps here simulate a slow or hung shard for the
  /// watchdog to catch. Null (default) = no-op; must be thread-safe (all
  /// shard workers call it concurrently). Never affects served bits.
  std::function<void(std::size_t, const BatchKey&, std::size_t)> before_batch;
};

/// \brief Throws std::invalid_argument with a descriptive message when the
/// configuration is unusable (zero queue capacity, bad batch policy, zero
/// cache capacity, zero consumer shards, or a bad transport, health or trace
/// config).
void validate(const ServerConfig& config);

/// \brief One served frame's outcome, typed by the task that produced it.
struct TaskResult {
  int camera_id = -1;
  std::int64_t sequence = -1;
  Task task = Task::kClassify;
  std::uint64_t pattern_id = 0;
  Precision precision = Precision::kFp32;  ///< tier that served the frame
  /// Progressive-decode depth the frame was served at (0 = full depth).
  /// Lets resilience harnesses tell full-fidelity results (base depth +
  /// precision) from ladder-degraded ones.
  std::uint8_t decode_depth = 0;

  /// kClassify: predicted class (argmax of the AR head's logits).
  std::int64_t predicted = -1;
  std::int64_t label = -1;  ///< ground truth when the camera knows it

  /// kReconstruct: the decoded (T, H, W) video.
  Tensor reconstruction;
};

class InferenceServer {
 public:
  /// \brief The system provides the served model weights. The server keeps a
  /// reference — the system must outlive it.
  explicit InferenceServer(const core::SnapPixSystem& system,
                           const ServerConfig& config = {});

  /// \brief Registers the camera's pattern in the server's pattern registry
  /// (shard caches rebuild evicted entries from it), routes the camera to the
  /// shard owning its pattern_id, and hands it to the scheduler.
  void add_camera(std::unique_ptr<CameraSource> camera);
  std::size_t camera_count() const { return scheduler_.camera_count(); }

  /// \brief Runs every camera for `frames_per_camera` frames, serving batches
  /// on the shard workers until every stream drains. One-shot. Results are
  /// returned sorted by (camera_id, sequence) so runs are comparable across
  /// shard counts and steal interleavings.
  std::vector<TaskResult> run(std::int64_t frames_per_camera);
  /// \brief Skewed-fleet variant: camera i (in add_camera order) emits
  /// frames_per_camera[i] frames.
  std::vector<TaskResult> run(const std::vector<std::int64_t>& frames_per_camera);

  /// \brief Valid after run(): summarize(metrics_snapshot()), per-shard
  /// views (RuntimeSummary::shards) included.
  RuntimeSummary summary() const;
  FleetEnergyReport fleet_energy(const energy::EnergyModel& model,
                                 energy::WirelessTech tech) const;

  /// \brief Point-in-time copy of the live metrics registry plus each
  /// shard's queue high water and engine-cache traffic, read from their own
  /// ledgers. Safe to call MID-RUN from any thread (lock-free registry value
  /// reads — see obs/metrics.h — and one short lock per queue and cache
  /// shard); render with obs::to_json or obs::to_prometheus.
  obs::MetricsSnapshot metrics_snapshot() const;

  /// \brief The trace recorder, or null when ServerConfig::trace.enabled is
  /// false. Spans may be read mid-run (lanes publish with release/acquire;
  /// a reader sees a consistent prefix); the full trace exists after run().
  const obs::TraceRecorder* trace_recorder() const { return trace_recorder_.get(); }
  /// \brief Chrome trace-event JSON of the recorded spans (requires tracing
  /// enabled; call after run()). Loadable in Perfetto / chrome://tracing.
  std::string trace_json() const;
  /// \brief Writes trace_json() to `path`.
  void write_trace(const std::string& path) const;

  const ServerConfig& config() const { return config_; }
  /// \brief The fleet health controller, or null when ServerConfig::health is
  /// disabled. Snapshots (state, ladder step, counters) are safe mid-run.
  const HealthController* health() const { return health_.get(); }
  /// \brief Shard `shard`'s private cache view.
  const EngineCache& engine_cache(std::size_t shard = 0) const;

 private:
  /// One consumer shard: run queue + private cache view + worker-owned
  /// result rows (touched lock-free by exactly one worker during a run,
  /// merged after the join). Its counters are {shard="N"} series in stats_.
  struct Shard {
    explicit Shard(std::size_t shard_index, std::size_t queue_capacity)
        : index(shard_index), queue(queue_capacity) {}
    std::size_t index;
    FrameQueue queue;
    std::unique_ptr<EngineCache> cache;
    obs::TraceLane* lane = nullptr;  // null when tracing is off
    std::vector<TaskResult> results;
    // order: relaxed — a pure liveness counter. The worker bumps it every
    // loop iteration; the watchdog only compares successive reads for
    // INEQUALITY (progress vs. stall), so no ordering with the work itself
    // is needed.
    std::atomic<std::uint64_t> heartbeat{0};
    // order: relaxed — only the watchdog thread reads AND writes it (the
    // single-supervisor protocol); it exists so a recovered shard is routed
    // home exactly once.
    std::atomic<bool> stalled{false};
  };

  std::size_t shard_for(std::uint64_t pattern_id) const {
    return pattern_id % shards_.size();
  }
  void shard_loop(std::size_t index);
  /// Serves one key-pure batch on shard `self`, appending its TaskResults.
  /// `reason` is why the batch closed (kSteal for stolen batches).
  void serve_batch(Shard& self, const BatchKey& key, std::vector<Frame>& batch,
                   FlushReason reason);
  /// Emits the synthesized per-frame lifecycle spans (async b/e events, cat
  /// "frame") for every trace-sampled frame of a served batch onto `lane`.
  void emit_frame_lifecycles(obs::TraceLane& lane, const std::vector<Frame>& batch,
                             Clock::time_point infer_start,
                             Clock::time_point infer_end) const;
  /// True when no shard queue can ever yield another frame to `index`'s
  /// worker: its own queue is exhausted and every sibling queue is too.
  bool fleet_exhausted(std::size_t index) const;
  /// Supervisor loop (own thread, only when health.watchdog.enabled and
  /// shards > 1): polls each shard's heartbeat; a worker that holds a
  /// non-empty open queue without beating for `stall_polls` polls is declared
  /// stalled — its cameras are re-routed to the least-loaded live sibling and
  /// its queued frames drained over with exact conservation. A stalled shard
  /// that beats again is routed home. See docs/resilience.md.
  void watchdog_loop();
  /// Re-routes shard `index`'s cameras and drains its queued frames to the
  /// healthiest sibling. Idempotent per stall (re-drains catch frames a
  /// blocked producer landed after the first sweep).
  void rescue_shard(std::size_t index);

  /// Emits a "health_transition" instant onto health_lane_ (no-op when
  /// tracing is off). Runs on producer threads via the controller's
  /// transition hook, hence the serializing mutex.
  void trace_health_transition(int camera_id, HealthState from, HealthState to,
                               int ladder_step);

  const core::SnapPixSystem& system_;
  ServerConfig config_;
  // pattern_id -> the pattern itself, fed to shard caches on (re)build.
  // Shared handles: a fleet on the system pattern contributes one entry, zero
  // copies. Mutated only by add_camera (before run); workers read it freely.
  std::unordered_map<std::uint64_t, PatternRef> patterns_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<obs::TraceRecorder> trace_recorder_;  // null when tracing off
  /// Dedicated lane for "shed" events (null when tracing is off). Sheds
  /// happen on producer threads AND shard workers, so the single-writer
  /// lane protocol needs an external writer lock — shed_lane_mutex_
  /// serializes the writes (sheds are the rare, cold path; a contended
  /// mutex here costs nothing on the serve path).
  obs::TraceLane* shed_lane_ = nullptr;
  std::mutex shed_lane_mutex_;
  /// Lane for health state transitions (null when tracing is off). Written
  /// by producer threads through the transition hook; the mutex serializes
  /// them (transitions are rare by construction — hysteresis bounds their
  /// rate to once per window).
  obs::TraceLane* health_lane_ = nullptr;
  std::mutex health_lane_mutex_;
  RuntimeStats stats_;
  /// Built before scheduler_ (producers consult it) and destroyed after the
  /// scheduler joins its producers; null when config_.health.enabled is off.
  std::unique_ptr<HealthController> health_;
  StreamScheduler scheduler_;
  // order: release by run() after the shard workers join (everything the
  // watchdog must not outlive is quiescent), acquire in the watchdog poll
  // loop — the one cross-thread handshake that stops the supervisor.
  std::atomic<bool> watchdog_stop_{false};
  double wall_seconds_ = 0.0;
  std::int64_t pixels_per_frame_ = 0;
  bool ran_ = false;
};

}  // namespace snappix::runtime

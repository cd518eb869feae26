/// \file stats.h
/// \brief RuntimeStats: thread-safe per-stage instrumentation for the
/// streaming runtime, plus the bridge into the Sec. VI-D energy model.
///
/// RuntimeStats is a VIEW over an obs::MetricsRegistry it owns: every frame/
/// batch/byte counter is a registry Counter and every latency series a
/// registry Histogram, so the hot-path record_* methods are lock-free
/// (relaxed atomics) and the registry can be snapshotted MID-RUN — that is
/// what InferenceServer::metrics_snapshot() hands out, in JSON or Prometheus
/// form via obs::to_json / obs::to_prometheus. The only mutex left guards
/// the cold structures: the per-camera transport map and the post-run
/// installs (shard views, per-tier cache counters).
///
/// summary() condenses the registry into percentiles/throughput — including
/// per-shard views (queue depth, batches served, steal traffic, per-reason
/// batch flush counts, cache hit/miss) installed by the sharded
/// InferenceServer — and fleet_energy() prices the recorded traffic with
/// energy::EnergyModel so a streaming run reports the same
/// baseline-vs-SNAPPIX numbers as the static scenario calculators.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "energy/model.h"
#include "obs/metrics.h"
#include "runtime/frame.h"

namespace snappix::runtime {

/// \brief Latency series with percentile queries (seconds), backed by a
/// fixed-bucket obs::Histogram (the same representation the metrics registry
/// serves), so record() is lock-free and count-independent in memory.
///
/// Empty-series contract (pinned by tests/test_obs.cpp): count 0 reports 0
/// for mean and every percentile — never NaN or infinity — so zero-frame
/// runs render valid JSON. Percentiles interpolate linearly inside the
/// bucket holding the rank and clamp into [min, max] observed; p50 <= p95 <=
/// p99 always.
class LatencySeries {
 public:
  void record(double seconds) { histogram_.observe(seconds); }
  std::size_t count() const { return static_cast<std::size_t>(histogram_.count()); }
  double mean() const { return histogram_.mean(); }
  /// \brief Interpolated percentile, `p` in [0, 100]; 0 when empty.
  double percentile(double p) const { return histogram_.percentile(p); }

  const obs::Histogram& histogram() const { return histogram_; }

 private:
  obs::Histogram histogram_;
};

/// \brief Condensed view of one pipeline stage's latency series.
struct StageSummary {
  std::size_t count = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

/// \brief One consumer shard's share of a run, as installed by the sharded
/// InferenceServer after the workers join.
///
/// `frames`/`batches` count everything THIS shard's worker served, including
/// batches it stole; `steal_*` describe its thieving (attempts = victim
/// queues probed while idle, successes = non-empty tail batches taken,
/// stolen_frames = frames inside them). The cache counters are the shard's
/// private EngineCache view. Summing shard frames/batches/cache counters
/// over all shards reproduces the run totals.
struct ShardStatsView {
  std::size_t shard = 0;                ///< shard index in [0, ServerConfig::shards)
  std::uint64_t frames = 0;             ///< frames served by this shard's worker
  std::uint64_t batches = 0;            ///< batches dispatched (own + stolen)
  std::uint64_t steal_attempts = 0;     ///< victim-queue probes while idle
  std::uint64_t steal_successes = 0;    ///< probes that came back with a batch
  std::uint64_t stolen_frames = 0;      ///< frames served out of stolen batches
  std::uint64_t cache_hits = 0;         ///< this shard's EngineCache hits
  std::uint64_t cache_misses = 0;       ///< misses (entry rebuilds)
  std::uint64_t cache_evictions = 0;    ///< LRU evictions under capacity pressure
  std::size_t queue_high_water = 0;     ///< deepest this shard's run queue got

  /// Why this shard's batches closed, by FlushReason. The sum over reasons
  /// equals `batches`; `flush_steal` equals `steal_successes`.
  std::uint64_t flush_max_batch = 0;
  std::uint64_t flush_max_latency = 0;
  std::uint64_t flush_exhausted = 0;
  std::uint64_t flush_holdback = 0;
  std::uint64_t flush_steal = 0;
};

/// \brief One precision tier's EngineCache traffic (hits/misses/evictions
/// summed over every shard's cache view for that tier). The serving tier
/// keeps fp32 and int8 engines as distinct cache residents, so the split
/// shows which tier's working set is thrashing.
struct CacheTierCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

/// \brief One camera's overload tally: frames the runtime shed instead of
/// serving, by reason, plus deadline misses (frames that WERE served but
/// finished after their deadline — late answers delivered, distinct from
/// drop-late sheds). All zero for cameras that never hit overload. Summing
/// over cameras gives the fleet totals in RuntimeSummary.
struct ShedCounters {
  std::uint64_t queue_full = 0;       ///< admission rejects (best-effort, full queue)
  std::uint64_t deadline = 0;         ///< drop-late: expired before serving began
  std::uint64_t deadline_misses = 0;  ///< served, but past the deadline
};

/// \brief One camera's health-supervision tally (runtime/health.h): state
/// transitions, degradation-ladder traffic, and captures skipped while
/// quarantined. All zero for cameras never supervised or never degraded.
struct HealthCounters {
  std::uint64_t transitions = 0;       ///< health state changes
  std::uint64_t steps_down = 0;        ///< ladder rungs engaged (degradations)
  std::uint64_t steps_up = 0;          ///< ladder rungs released (recoveries)
  std::uint64_t quarantine_drops = 0;  ///< captures skipped while quarantined
};

/// \brief One camera's framed-transport tally: how its frames fared on the
/// wire, by FINAL outcome (a frame that recovers via retransmit counts as ok;
/// the retries it burned show up in `retransmits`). All zero for cameras that
/// hop in memory. Summing over cameras gives the fleet totals in
/// RuntimeSummary::transport.
struct TransportCounters {
  std::uint64_t framed_frames = 0;   ///< frames that crossed a framed link
  std::uint64_t ok_frames = 0;       ///< delivered intact (possibly after retries)
  std::uint64_t crc_errors = 0;      ///< final outcome: payload CRC failure
  std::uint64_t truncated = 0;       ///< final outcome: stream cut mid-frame
  std::uint64_t missing_lines = 0;   ///< final outcome: row packets lost
  std::uint64_t retransmits = 0;     ///< framed re-transfers spent by the policy
  std::uint64_t dropped_frames = 0;  ///< corrupt after the policy: never served

  /// Progressive-decode tally for frames that crossed an entropy-coded link
  /// (all zero on raw links). `codec_planes_decoded <= codec_planes_total`;
  /// the gap is depth deliberately left on the wire (truncated classify
  /// frames) plus planes lost to faults.
  std::uint64_t codec_frames = 0;         ///< frames that crossed a codec link
  std::uint64_t codec_planes_decoded = 0; ///< bit-planes actually decoded
  std::uint64_t codec_planes_total = 0;   ///< bit-planes the full streams held
};

/// \brief Everything a completed run reports: throughput, per-stage latency
/// percentiles, task/cache/steal counters, per-shard views, byte volumes.
struct RuntimeSummary {
  std::uint64_t frames = 0;
  std::uint64_t batches = 0;
  double wall_seconds = 0.0;
  double aggregate_fps = 0.0;     ///< frames / wall_seconds
  double mean_batch_size = 0.0;
  std::size_t queue_high_water = 0;  ///< max over all shard queues

  /// Per-task frame counts (classify + reconstruct == frames when the server
  /// records tasks; both zero under direct RuntimeStats use).
  std::uint64_t classify_frames = 0;
  std::uint64_t reconstruct_frames = 0;

  /// Per-precision frame counts (fp32 + int8 == frames when the server
  /// records precisions; both zero under direct RuntimeStats use).
  std::uint64_t fp32_frames = 0;
  std::uint64_t int8_frames = 0;

  /// EngineCache traffic summed over every shard's cache: the per-tier
  /// split below, added up (fp32 + int8 == totals by construction).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  double cache_hit_rate = 0.0;  ///< hits / (hits + misses)

  /// The same cache traffic split by precision tier.
  CacheTierCounters cache_fp32;
  CacheTierCounters cache_int8;

  /// Work-stealing totals summed over shards (all zero with one shard).
  std::uint64_t steal_attempts = 0;
  std::uint64_t steal_successes = 0;
  std::uint64_t stolen_frames = 0;

  /// Batch flush reasons, run-wide (sum over reasons == batches).
  std::uint64_t flush_max_batch = 0;
  std::uint64_t flush_max_latency = 0;
  std::uint64_t flush_exhausted = 0;
  std::uint64_t flush_holdback = 0;
  std::uint64_t flush_steal = 0;

  /// Per-shard breakdown; empty unless a sharded server installed views.
  std::vector<ShardStatsView> shards;

  /// Framed-transport totals summed over cameras (all zero when every frame
  /// hops in memory), plus the per-camera breakdown sorted by camera id.
  TransportCounters transport;
  std::vector<std::pair<int, TransportCounters>> transport_cameras;

  /// Overload totals: frames shed (never served) by reason and by QoS
  /// class, late-served deadline misses, and the per-camera breakdown
  /// sorted by camera id. Conservation per queue: admitted frames ==
  /// served + shed_deadline + still queued at shutdown; queue_full sheds
  /// never entered a queue at all.
  std::uint64_t shed_frames = 0;      ///< total sheds (queue_full + deadline)
  std::uint64_t shed_queue_full = 0;  ///< admission rejects
  std::uint64_t shed_deadline = 0;    ///< drop-late expiries
  std::uint64_t shed_realtime = 0;    ///< sheds of realtime frames (gated zero)
  std::uint64_t shed_standard = 0;
  std::uint64_t shed_best_effort = 0;
  std::uint64_t deadline_misses = 0;  ///< served but late
  std::vector<std::pair<int, ShedCounters>> shed_cameras;

  /// Fleet-health supervision totals (runtime/health.h; all zero when the
  /// controller is disabled), plus the per-camera breakdown sorted by id.
  /// Conservation with supervision on: offered == served + shed +
  /// transport dropped_frames + quarantine_drops (+ frames still queued at
  /// shutdown).
  std::uint64_t health_transitions = 0;
  std::uint64_t ladder_steps_down = 0;
  std::uint64_t ladder_steps_up = 0;
  std::uint64_t quarantine_drops = 0;
  std::uint64_t watchdog_stalls = 0;   ///< shard-stall detections
  std::uint64_t rerouted_frames = 0;   ///< frames drained + re-admitted by the watchdog
  std::vector<std::pair<int, HealthCounters>> health_cameras;

  StageSummary capture;      ///< camera next_frame() + framed transport retries
  StageSummary queue_wait;   ///< enqueue -> pop (or steal)
  StageSummary inference;    ///< model forward per batch
  StageSummary end_to_end;   ///< capture start -> result recorded

  /// end_to_end split by QoS class (counts sum to end_to_end.count). The
  /// saturation bench gates realtime p99 from e2e_realtime.
  StageSummary e2e_realtime;
  StageSummary e2e_standard;
  StageSummary e2e_best_effort;

  std::uint64_t raw_bytes = 0;     ///< conventional readout volume
  std::uint64_t wire_bytes = 0;    ///< coded volume actually shipped
  double compression_ratio = 0.0;  ///< raw / wire
};

/// \brief Whole-run energy bill priced through energy::EnergyModel.
struct FleetEnergyReport {
  double conventional_j = 0.0;  ///< T-frame readout + transmit, whole run
  double snappix_j = 0.0;       ///< CE capture + coded transmit, whole run
  double saving_factor = 0.0;
};

/// \brief Thread-safe run-wide counters. Producers, shard workers, and the
/// server all record into one instance. The record_* hot paths write
/// registry counters/histograms lock-free; the cold installs and the
/// transport map lock internally.
class RuntimeStats {
 public:
  RuntimeStats();

  // --- producer side ---------------------------------------------------------
  void record_capture(double seconds);

  // --- consumer side (any shard worker) --------------------------------------
  void record_queue_wait(double seconds);
  /// \brief `reason` feeds the per-reason flush counters
  /// (snappix_batch_flush_total{reason=...}).
  void record_batch(std::size_t batch_size, double inference_seconds, FlushReason reason);
  /// \brief Attributes a served batch's frames to its task head.
  void record_task_frames(Task task, std::size_t count);
  /// \brief Attributes a served batch's frames to its precision tier.
  void record_precision_frames(Precision precision, std::size_t count);
  /// \brief Records one framed frame's FINAL transport fate: its last
  /// outcome (`status`), the retries the policy spent on it, and whether it
  /// was dropped instead of enqueued. Called once per framed frame by the
  /// producer loop; never for in-memory cameras. `codec` says whether the
  /// frame crossed an entropy-coded link; when it did, the frame's
  /// decoded/total bit-plane counts feed the progressive-decode tally.
  void record_transport(int camera_id, TransportStatus status, int retransmits,
                        bool dropped, bool codec, int decoded_planes, int total_planes);
  /// \brief Records one shed frame: bumps the per-(qos, reason) registry
  /// counter (snappix_shed_frames_total{qos=...,reason=...}) and the
  /// camera's ShedCounters row. Called by the queue shed observers the
  /// scheduler/server install — once per shed, on whichever thread shed it.
  void record_shed(int camera_id, QosClass qos, ShedReason reason);
  /// \brief Records a frame that was SERVED but finished after its deadline
  /// — a late answer delivered, distinct from a drop-late shed.
  void record_deadline_miss(int camera_id);
  /// \brief Records a camera health-state transition (runtime/health.h):
  /// bumps snappix_health_transitions_total{from=...,to=...}, sets the
  /// camera's snappix_camera_health gauge, and the per-camera tally. Called
  /// by the HealthController on the camera's producer thread.
  void record_health_transition(int camera_id, HealthState from, HealthState to);
  /// \brief Records a degradation-ladder move to `step` rungs engaged
  /// (`down` = a degradation, else a recovery step): bumps
  /// snappix_ladder_steps_total{direction=...} and sets the camera's
  /// snappix_camera_ladder_step gauge.
  void record_ladder_step(int camera_id, bool down, int step);
  /// \brief Records one capture skipped because its camera is quarantined.
  void record_quarantine_drop(int camera_id);
  /// \brief Records the watchdog declaring shard `shard` stalled.
  void record_watchdog_stall(std::size_t shard);
  /// \brief Records `count` frames the watchdog drained from a stalled shard
  /// and re-admitted into a sibling's queue.
  void record_rerouted_frames(std::size_t count);
  /// \brief `qos` additionally feeds the per-class e2e histogram
  /// (snappix_e2e_seconds{qos=...}).
  void record_frame_done(std::uint64_t raw_bytes, std::uint64_t wire_bytes,
                         double end_to_end_seconds, QosClass qos);
  /// \brief Raises the recorded high water to `depth` (max over calls, so the
  /// server feeds it each shard queue's own mark).
  void set_queue_high_water(std::size_t depth);
  /// \brief Installs the final per-precision cache snapshot (summed over
  /// shard caches by the server; the EngineCache itself keeps the live
  /// counters). summary() reports the totals as fp32 + int8.
  void set_cache_tier_counters(const CacheTierCounters& fp32, const CacheTierCounters& int8);
  /// \brief Installs the per-shard views once after a run; also derives the
  /// steal totals reported in RuntimeSummary.
  void set_shard_views(std::vector<ShardStatsView> shards);

  // --- reporting -------------------------------------------------------------
  RuntimeSummary summary(double wall_seconds) const;

  /// \brief The live metrics registry backing every record_* path. Safe to
  /// snapshot mid-run (obs::MetricsRegistry::snapshot is lock-free on the
  /// value reads); InferenceServer::metrics_snapshot() is a thin wrapper.
  const obs::MetricsRegistry& registry() const { return registry_; }
  obs::MetricsRegistry& registry() { return registry_; }

  /// \brief Prices the recorded frame traffic: every served frame represents
  /// one T-slot capture that a conventional pipeline would read out and
  /// transmit T times. `pixels_per_frame`/`slots` describe the camera
  /// geometry.
  FleetEnergyReport fleet_energy(const energy::EnergyModel& model,
                                 std::int64_t pixels_per_frame, int slots,
                                 energy::WirelessTech tech) const;

 private:
  obs::MetricsRegistry registry_;
  // References resolved once at construction; recording through them is
  // lock-free (see obs/metrics.h).
  obs::Histogram& capture_;
  obs::Histogram& queue_wait_;
  obs::Histogram& inference_;
  obs::Histogram& end_to_end_;
  obs::Counter& frames_;
  obs::Counter& batches_;
  obs::Counter& batched_frames_;
  obs::Counter& classify_frames_;
  obs::Counter& reconstruct_frames_;
  obs::Counter& fp32_frames_;
  obs::Counter& int8_frames_;
  obs::Counter& raw_bytes_;
  obs::Counter& wire_bytes_;
  obs::Counter* flush_[5];      // indexed by FlushReason
  obs::Counter* shed_[3][2];    // indexed by [QosClass][ShedReason]
  obs::Counter& deadline_miss_;
  obs::Histogram* e2e_qos_[3];  // indexed by QosClass
  obs::Gauge& queue_high_water_;

  // Cold structures: per-camera transport/shed tallies and post-run installs.
  mutable std::mutex mutex_;
  CacheTierCounters cache_fp32_;
  CacheTierCounters cache_int8_;
  std::vector<ShardStatsView> shards_;
  std::map<int, TransportCounters> transport_;  // camera_id -> tally (sorted)
  std::map<int, ShedCounters> shed_cameras_;    // camera_id -> tally (sorted)
  std::map<int, HealthCounters> health_cameras_;  // camera_id -> tally (sorted)
  std::uint64_t watchdog_stalls_ = 0;
  std::uint64_t rerouted_frames_ = 0;
};

/// \brief Renders a summary as an aligned human-readable block / flat JSON
/// object (used by bench/streaming_throughput.cpp to emit the BENCH_*.json
/// artifacts). The JSON carries the per-shard views as a "shards" array.
std::string to_string(const RuntimeSummary& summary);
std::string to_json(const CacheTierCounters& counters);
std::string to_json(const HealthCounters& counters);
std::string to_json(const TransportCounters& counters);
std::string to_json(const ShedCounters& counters);
std::string to_json(const ShardStatsView& shard);
std::string to_json(const RuntimeSummary& summary, const FleetEnergyReport& energy,
                    const std::string& label);

}  // namespace snappix::runtime

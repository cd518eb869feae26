/// \file stats.h
/// \brief RuntimeStats: per-stage instrumentation for the serving tier, as a
/// pure view over the obs::MetricsRegistry it owns, plus the bridge into the
/// Sec. VI-D energy model.
///
/// Every event is counted once, where it happens, in one registry series:
/// fleet-wide counters and latency histograms, and per-camera / per-shard
/// counters labelled {camera="N"} / {shard="N"} (docs/observability.md lists
/// every name). A camera's or shard's series are resolved once, when it is
/// added, so the record_* hot paths are relaxed atomic adds: no lock, no
/// by-name lookup. RuntimeStats stores nothing else, so the registry can be
/// snapshotted MID-RUN and summarize() derives the whole RuntimeSummary from
/// one snapshot. InferenceServer::metrics_snapshot() adds the live ledgers
/// of its queues and engine caches (queue high water, cache traffic) to that
/// snapshot; fleet_energy() prices the recorded traffic with
/// energy::EnergyModel so a streaming run reports the same
/// baseline-vs-SNAPPIX numbers as the static scenario calculators.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "energy/model.h"
#include "obs/metrics.h"
#include "runtime/frame.h"

namespace snappix::runtime {

/// \brief Condensed view of one pipeline stage's latency series.
struct StageSummary {
  std::size_t count = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

/// \brief One consumer shard's share of a run, read from its live
/// {shard="N"} series (and, through InferenceServer, its queue and cache
/// ledgers).
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
  std::uint64_t flush_drained = 0;
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

  /// Per-task frame counts (classify + reconstruct == frames).
  std::uint64_t classify_frames = 0;
  std::uint64_t reconstruct_frames = 0;

  /// Per-precision frame counts (fp32 + int8 == frames).
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
  std::uint64_t flush_drained = 0;
  std::uint64_t flush_exhausted = 0;
  std::uint64_t flush_holdback = 0;
  std::uint64_t flush_steal = 0;

  /// Per-shard breakdown, one row per shard with {shard="N"} series (every
  /// InferenceServer shard), sorted by shard index.
  std::vector<ShardStatsView> shards;

  /// Framed-transport totals summed over cameras (all zero when every frame
  /// hops in memory), plus the per-camera breakdown. In every per-camera
  /// breakdown a camera appears only if it recorded such an event, sorted
  /// by numeric camera id.
  TransportCounters transport;
  std::vector<std::pair<int, TransportCounters>> transport_cameras;

  /// Overload totals: frames shed (never served) by reason and by QoS
  /// class, late-served deadline misses, and the per-camera breakdown.
  /// Conservation per queue: admitted frames == served + shed_deadline +
  /// still queued at shutdown; queue_full sheds never entered a queue.
  std::uint64_t shed_frames = 0;      ///< total sheds (queue_full + deadline)
  std::uint64_t shed_queue_full = 0;  ///< admission rejects
  std::uint64_t shed_deadline = 0;    ///< drop-late expiries
  std::uint64_t shed_realtime = 0;    ///< sheds of realtime frames (gated zero)
  std::uint64_t shed_standard = 0;
  std::uint64_t shed_best_effort = 0;
  std::uint64_t deadline_misses = 0;  ///< served but late
  std::vector<std::pair<int, ShedCounters>> shed_cameras;

  /// Fleet-health supervision totals (runtime/health.h; all zero when the
  /// controller is disabled), plus the per-camera breakdown.
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

/// \brief Thread-safe run-wide counters. Producers, shard workers, the
/// health controller and the server all record into one instance; every
/// record_* call is one or a few relaxed atomic adds on registry series.
class RuntimeStats {
 public:
  RuntimeStats();
  ~RuntimeStats();

  // --- setup (before any thread records) -------------------------------------
  /// \brief Resolves camera `camera_id`'s {camera="N"} series once
  /// (idempotent). Recording for a camera never added throws.
  void add_camera(int camera_id);
  /// \brief Resolves consumer shard `shard`'s {shard="N"} series once
  /// (idempotent). Recording for a shard never added throws.
  void add_shard(std::size_t shard);

  // --- producer side ---------------------------------------------------------
  void record_capture(double seconds);
  /// \brief Records one framed frame's FINAL transport fate: its last
  /// outcome (`status`, never kInMemory; a corrupt one means the frame was
  /// dropped) and the retries the policy spent on it. Called once per framed
  /// frame by the producer loop. `codec` says whether the frame crossed an
  /// entropy-coded link; when it did, the frame's decoded/total bit-plane
  /// counts feed the progressive-decode tally.
  void record_transport(int camera_id, TransportStatus status, int retransmits, bool codec,
                        int decoded_planes, int total_planes);

  // --- consumer side (any shard worker) --------------------------------------
  void record_queue_wait(double seconds);
  /// \brief One batch of `batch_size` frames served by `shard`'s worker
  /// through the `task` head at `precision`; `reason` is why it closed
  /// (kSteal = a batch stolen from a sibling's tail).
  void record_batch(std::size_t shard, Task task, Precision precision, std::size_t batch_size,
                    double inference_seconds, FlushReason reason);
  /// \brief One victim queue `shard`'s idle worker probed for a tail batch.
  void record_steal_attempt(std::size_t shard);
  /// \brief `qos` additionally feeds the per-class e2e histogram
  /// (snappix_e2e_seconds{qos=...}).
  void record_frame_done(std::uint64_t raw_bytes, std::uint64_t wire_bytes,
                         double end_to_end_seconds, QosClass qos);
  /// \brief One shed frame, recorded by the queue shed observers on
  /// whichever thread shed it.
  void record_shed(int camera_id, QosClass qos, ShedReason reason);
  /// \brief A frame SERVED after its deadline (a late answer, not a shed).
  void record_deadline_miss(int camera_id);

  // --- health supervision (runtime/health.h) ---------------------------------
  /// \brief A health-state transition into `to`; also sets the camera's
  /// snappix_camera_health gauge.
  void record_health_transition(int camera_id, HealthState to);
  /// \brief A degradation-ladder move to `step` rungs engaged (`down` = a
  /// degradation); also sets the camera's snappix_camera_ladder_step gauge.
  void record_ladder_step(int camera_id, bool down, int step);
  /// \brief One capture skipped because its camera is quarantined.
  void record_quarantine_drop(int camera_id);
  /// \brief The watchdog declared shard `shard` stalled.
  void record_watchdog_stall(std::size_t shard);
  /// \brief `count` frames the watchdog drained from stalled shard `shard`
  /// into a sibling's queue.
  void record_rerouted_frames(std::size_t shard, std::size_t count);
  /// \brief Live read of an added camera's health tallies.
  HealthCounters health_counters(int camera_id) const;

  // --- reporting -------------------------------------------------------------
  /// \brief summarize(registry().snapshot(), wall_seconds).
  RuntimeSummary summary(double wall_seconds) const;

  /// \brief The live metrics registry backing every record_* path. Safe to
  /// snapshot mid-run (obs::MetricsRegistry::snapshot is lock-free on the
  /// value reads).
  const obs::MetricsRegistry& registry() const { return registry_; }

  /// \brief Prices the recorded frame traffic: every served frame represents
  /// one T-slot capture that a conventional pipeline would read out and
  /// transmit T times. `pixels_per_frame`/`slots` describe the camera
  /// geometry.
  FleetEnergyReport fleet_energy(const energy::EnergyModel& model,
                                 std::int64_t pixels_per_frame, int slots,
                                 energy::WirelessTech tech) const;

 private:
  struct CameraSeries;
  struct ShardSeries;
  const CameraSeries& camera_series(int camera_id) const;
  const ShardSeries& shard_series(std::size_t shard) const;

  obs::MetricsRegistry registry_;
  // References resolved once at construction; recording through them is
  // lock-free (see obs/metrics.h).
  obs::Histogram& capture_;
  obs::Histogram& queue_wait_;
  obs::Histogram& inference_;
  obs::Histogram& end_to_end_;
  obs::Counter& frames_;
  obs::Counter& batches_;
  obs::Counter& classify_frames_;
  obs::Counter& reconstruct_frames_;
  obs::Counter& fp32_frames_;
  obs::Counter& int8_frames_;
  obs::Counter& raw_bytes_;
  obs::Counter& wire_bytes_;
  obs::Histogram* e2e_qos_[3];  // indexed by QosClass
  // Filled by add_camera/add_shard during setup, read-only while threads
  // record.
  std::unordered_map<int, std::unique_ptr<CameraSeries>> cameras_;
  std::unordered_map<std::size_t, std::unique_ptr<ShardSeries>> shards_;
};

/// \brief Derives a RuntimeSummary from one metrics snapshot: the series
/// RuntimeStats records plus, when present, the per-shard queue and cache
/// ledger series InferenceServer::metrics_snapshot() adds.
RuntimeSummary summarize(const obs::MetricsSnapshot& snapshot, double wall_seconds);

/// \brief Renders a summary as an aligned human-readable block. The
/// machine-readable export is obs::to_json of the metrics snapshot the
/// summary derives from.
std::string to_string(const RuntimeSummary& summary);

}  // namespace snappix::runtime

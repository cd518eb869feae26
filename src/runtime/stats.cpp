#include "runtime/stats.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>

#include "util/common.h"

namespace snappix::runtime {

namespace {

constexpr QosClass kQosClasses[] = {QosClass::kRealtime, QosClass::kStandard,
                                    QosClass::kBestEffort};
constexpr ShedReason kShedReasons[] = {ShedReason::kQueueFull, ShedReason::kDeadline};
constexpr FlushReason kFlushReasons[] = {FlushReason::kMaxBatch, FlushReason::kMaxLatency,
                                         FlushReason::kDrained, FlushReason::kExhausted,
                                         FlushReason::kHoldback, FlushReason::kSteal};
constexpr TransportStatus kFramedOutcomes[] = {TransportStatus::kFramedOk,
                                               TransportStatus::kCrcError,
                                               TransportStatus::kTruncated,
                                               TransportStatus::kMissingLines};
constexpr HealthState kHealthStates[] = {HealthState::kHealthy, HealthState::kDegraded,
                                         HealthState::kQuarantined, HealthState::kRecovering};

template <typename Enum>
std::size_t idx(Enum value) {
  return static_cast<std::size_t>(value);
}

// `,key="value"`: one more label for a series name.
std::string label(const char* key, const std::string& value) {
  return std::string(",") + key + "=\"" + value + "\"";
}

// Resolves counters `base{<id><more labels>}` for one camera or shard.
struct SeriesResolver {
  obs::MetricsRegistry& registry;
  std::string id;  // the leading label, e.g. camera="3"
  obs::Counter* operator()(const char* base, const std::string& labels) const {
    return &registry.counter(base + ("{" + id + labels + "}"));
  }
  obs::Counter* operator()(const char* base) const { return (*this)(base, ""); }
};

}  // namespace

// One camera's series (the {camera="N"} rows of the metric table in
// docs/observability.md), resolved once.
struct RuntimeStats::CameraSeries {
  CameraSeries(obs::MetricsRegistry& registry, int camera_id) {
    const SeriesResolver counter{registry, "camera=\"" + std::to_string(camera_id) + "\""};
    for (const TransportStatus status : kFramedOutcomes) {
      outcome[idx(status)] =
          counter("snappix_transport_frames_total", label("outcome", to_string(status)));
    }
    retransmits = counter("snappix_transport_retransmits_total");
    codec_frames = counter("snappix_codec_frames_total");
    planes_decoded = counter("snappix_codec_planes_decoded_total");
    planes_total = counter("snappix_codec_planes_total");
    for (const QosClass qos : kQosClasses) {
      for (const ShedReason reason : kShedReasons) {
        shed[idx(qos)][idx(reason)] =
            counter("snappix_shed_frames_total",
                    label("qos", to_string(qos)) + label("reason", to_string(reason)));
      }
    }
    deadline_misses = counter("snappix_deadline_miss_total");
    for (const HealthState state : kHealthStates) {
      entered[idx(state)] =
          counter("snappix_health_transitions_total", label("to", to_string(state)));
    }
    ladder[0] = counter("snappix_ladder_steps_total", label("direction", "up"));
    ladder[1] = counter("snappix_ladder_steps_total", label("direction", "down"));
    quarantine_drops = counter("snappix_quarantine_drops_total");
    health = &registry.gauge("snappix_camera_health{" + counter.id + "}");
    ladder_step = &registry.gauge("snappix_camera_ladder_step{" + counter.id + "}");
  }

  obs::Counter* outcome[5] = {};  // [TransportStatus]; kInMemory stays null
  obs::Counter* retransmits;
  obs::Counter* codec_frames;
  obs::Counter* planes_decoded;
  obs::Counter* planes_total;
  obs::Counter* shed[3][2];  // [QosClass][ShedReason]
  obs::Counter* deadline_misses;
  obs::Counter* entered[4];  // [HealthState]: transitions into that state
  obs::Counter* ladder[2];   // [0] up, [1] down
  obs::Counter* quarantine_drops;
  obs::Gauge* health;
  obs::Gauge* ladder_step;
};

// One consumer shard's series (the {shard="N"} rows), resolved once.
struct RuntimeStats::ShardSeries {
  ShardSeries(obs::MetricsRegistry& registry, std::size_t shard) {
    const SeriesResolver counter{registry, "shard=\"" + std::to_string(shard) + "\""};
    frames = counter("snappix_shard_frames_total");
    for (const FlushReason reason : kFlushReasons) {
      flush[idx(reason)] =
          counter("snappix_batch_flush_total", label("reason", to_string(reason)));
    }
    steal_attempts = counter("snappix_steal_attempts_total");
    stolen_frames = counter("snappix_stolen_frames_total");
    watchdog_stalls = counter("snappix_watchdog_stalls_total");
    rerouted_frames = counter("snappix_watchdog_rerouted_frames_total");
  }

  obs::Counter* frames;
  obs::Counter* flush[6];  // [FlushReason]
  obs::Counter* steal_attempts;
  obs::Counter* stolen_frames;
  obs::Counter* watchdog_stalls;
  obs::Counter* rerouted_frames;
};

RuntimeStats::RuntimeStats()
    : capture_(registry_.histogram("snappix_capture_seconds")),
      queue_wait_(registry_.histogram("snappix_queue_wait_seconds")),
      inference_(registry_.histogram("snappix_inference_seconds")),
      end_to_end_(registry_.histogram("snappix_e2e_seconds")),
      frames_(registry_.counter("snappix_frames_total")),
      batches_(registry_.counter("snappix_batches_total")),
      classify_frames_(registry_.counter("snappix_task_frames_total{task=\"classify\"}")),
      reconstruct_frames_(
          registry_.counter("snappix_task_frames_total{task=\"reconstruct\"}")),
      fp32_frames_(registry_.counter("snappix_precision_frames_total{precision=\"fp32\"}")),
      int8_frames_(registry_.counter("snappix_precision_frames_total{precision=\"int8\"}")),
      raw_bytes_(registry_.counter("snappix_raw_bytes_total")),
      wire_bytes_(registry_.counter("snappix_wire_bytes_total")) {
  for (const QosClass qos : kQosClasses) {
    e2e_qos_[idx(qos)] = &registry_.histogram(std::string("snappix_e2e_seconds{qos=\"") +
                                              to_string(qos) + "\"}");
  }
}

RuntimeStats::~RuntimeStats() = default;

void RuntimeStats::add_camera(int camera_id) {
  if (cameras_.count(camera_id) == 0) {
    cameras_.emplace(camera_id, std::make_unique<CameraSeries>(registry_, camera_id));
  }
}

void RuntimeStats::add_shard(std::size_t shard) {
  if (shards_.count(shard) == 0) {
    shards_.emplace(shard, std::make_unique<ShardSeries>(registry_, shard));
  }
}

namespace {

template <typename Series, typename Key>
const Series& added(const std::unordered_map<Key, std::unique_ptr<Series>>& series, Key key,
                    const char* kind) {
  const auto it = series.find(key);
  SNAPPIX_CHECK(it != series.end(), kind << " " << key << " records before it was added");
  return *it->second;
}

}  // namespace

const RuntimeStats::CameraSeries& RuntimeStats::camera_series(int camera_id) const {
  return added(cameras_, camera_id, "camera");
}

const RuntimeStats::ShardSeries& RuntimeStats::shard_series(std::size_t shard) const {
  return added(shards_, shard, "shard");
}

void RuntimeStats::record_capture(double seconds) { capture_.observe(seconds); }

void RuntimeStats::record_transport(int camera_id, TransportStatus status, int retransmits,
                                    bool codec, int decoded_planes, int total_planes) {
  SNAPPIX_CHECK(status != TransportStatus::kInMemory,
                "camera " << camera_id << ": an in-memory frame crossed no link");
  const CameraSeries& c = camera_series(camera_id);
  c.outcome[idx(status)]->add();
  c.retransmits->add(static_cast<std::uint64_t>(retransmits));
  if (codec) {
    c.codec_frames->add();
    c.planes_decoded->add(static_cast<std::uint64_t>(decoded_planes));
    c.planes_total->add(static_cast<std::uint64_t>(total_planes));
  }
}

void RuntimeStats::record_queue_wait(double seconds) { queue_wait_.observe(seconds); }

void RuntimeStats::record_batch(std::size_t shard, Task task, Precision precision,
                                std::size_t batch_size, double inference_seconds,
                                FlushReason reason) {
  batches_.add();
  inference_.observe(inference_seconds);
  (task == Task::kClassify ? classify_frames_ : reconstruct_frames_).add(batch_size);
  (precision == Precision::kFp32 ? fp32_frames_ : int8_frames_).add(batch_size);
  const ShardSeries& s = shard_series(shard);
  s.frames->add(batch_size);
  s.flush[idx(reason)]->add();
  if (reason == FlushReason::kSteal) {
    s.stolen_frames->add(batch_size);
  }
}

void RuntimeStats::record_steal_attempt(std::size_t shard) {
  shard_series(shard).steal_attempts->add();
}

void RuntimeStats::record_frame_done(std::uint64_t raw_bytes, std::uint64_t wire_bytes,
                                     double end_to_end_seconds, QosClass qos) {
  frames_.add();
  raw_bytes_.add(raw_bytes);
  wire_bytes_.add(wire_bytes);
  end_to_end_.observe(end_to_end_seconds);
  e2e_qos_[idx(qos)]->observe(end_to_end_seconds);
}

void RuntimeStats::record_shed(int camera_id, QosClass qos, ShedReason reason) {
  camera_series(camera_id).shed[idx(qos)][idx(reason)]->add();
}

void RuntimeStats::record_deadline_miss(int camera_id) {
  camera_series(camera_id).deadline_misses->add();
}

void RuntimeStats::record_health_transition(int camera_id, HealthState to) {
  const CameraSeries& c = camera_series(camera_id);
  c.entered[idx(to)]->add();
  c.health->set(static_cast<double>(to));
}

void RuntimeStats::record_ladder_step(int camera_id, bool down, int step) {
  const CameraSeries& c = camera_series(camera_id);
  c.ladder[down ? 1 : 0]->add();
  c.ladder_step->set(static_cast<double>(step));
}

void RuntimeStats::record_quarantine_drop(int camera_id) {
  camera_series(camera_id).quarantine_drops->add();
}

void RuntimeStats::record_watchdog_stall(std::size_t shard) {
  shard_series(shard).watchdog_stalls->add();
}

void RuntimeStats::record_rerouted_frames(std::size_t shard, std::size_t count) {
  shard_series(shard).rerouted_frames->add(count);
}

HealthCounters RuntimeStats::health_counters(int camera_id) const {
  HealthCounters out;
  const CameraSeries& c = camera_series(camera_id);
  for (const obs::Counter* entered : c.entered) {
    out.transitions += entered->value();
  }
  out.steps_down = c.ladder[1]->value();
  out.steps_up = c.ladder[0]->value();
  out.quarantine_drops = c.quarantine_drops->value();
  return out;
}

RuntimeSummary RuntimeStats::summary(double wall_seconds) const {
  return summarize(registry_.snapshot(), wall_seconds);
}

FleetEnergyReport RuntimeStats::fleet_energy(const energy::EnergyModel& model,
                                             std::int64_t pixels_per_frame, int slots,
                                             energy::WirelessTech tech) const {
  const std::uint64_t frames = frames_.value();
  FleetEnergyReport report;
  report.conventional_j =
      static_cast<double>(frames) *
      model.conventional_edge_energy_j(pixels_per_frame, slots, tech);
  report.snappix_j = static_cast<double>(frames) *
                     model.snappix_edge_energy_j(pixels_per_frame, slots, tech);
  report.saving_factor =
      report.snappix_j > 0.0 ? report.conventional_j / report.snappix_j : 0.0;
  return report;
}

namespace {

StageSummary stage(const obs::HistogramSnapshot& h) {
  return {static_cast<std::size_t>(h.count), h.mean * 1e3, h.p50 * 1e3, h.p95 * 1e3,
          h.p99 * 1e3};
}

// The value of label `key` in series `name` (`base{k="v",...}`); "" when the
// series has no such label.
std::string label_of(const std::string& name, const std::string& key) {
  const std::string needle = key + "=\"";
  for (std::size_t at = name.find(needle); at != std::string::npos;
       at = name.find(needle, at + 1)) {
    if (name[at - 1] == '{' || name[at - 1] == ',') {
      const std::size_t begin = at + needle.size();
      return name.substr(begin, name.find('"', begin) - begin);
    }
  }
  return "";
}

// The enum index of the entry of `values` whose to_string is `text` (the last
// entry when none is).
template <typename Enum, std::size_t N>
std::size_t index_of(const Enum (&values)[N], const std::string& text) {
  std::size_t i = 0;
  while (i + 1 < N && text != to_string(values[i])) {
    ++i;
  }
  return idx(values[i]);
}

// Row fields indexed by the enum a series' label names.
constexpr std::uint64_t ShardStatsView::*kShardFlush[] = {
    &ShardStatsView::flush_max_batch, &ShardStatsView::flush_max_latency,
    &ShardStatsView::flush_drained, &ShardStatsView::flush_exhausted,
    &ShardStatsView::flush_holdback, &ShardStatsView::flush_steal};  // [FlushReason]
constexpr std::uint64_t TransportCounters::*kOutcome[] = {
    nullptr, &TransportCounters::ok_frames, &TransportCounters::crc_errors,
    &TransportCounters::truncated, &TransportCounters::missing_lines};  // [TransportStatus]
constexpr std::uint64_t RuntimeSummary::*kShedByQos[] = {
    &RuntimeSummary::shed_realtime, &RuntimeSummary::shed_standard,
    &RuntimeSummary::shed_best_effort};  // [QosClass]
constexpr StageSummary RuntimeSummary::*kE2eByQos[] = {
    &RuntimeSummary::e2e_realtime, &RuntimeSummary::e2e_standard,
    &RuntimeSummary::e2e_best_effort};  // [QosClass]

}  // namespace

RuntimeSummary summarize(const obs::MetricsSnapshot& snapshot, double wall_seconds) {
  RuntimeSummary out;
  // Rows keyed by number, so camera 10 sorts after camera 2.
  std::map<std::size_t, ShardStatsView> shards;
  std::map<int, TransportCounters> transport;
  std::map<int, ShedCounters> shed;
  std::map<int, HealthCounters> health;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string base = name.substr(0, name.find('{'));
    const std::string shard_id = label_of(name, "shard");
    const std::string camera_id = label_of(name, "camera");
    if (!shard_id.empty()) {
      ShardStatsView& s = shards[std::stoul(shard_id)];
      if (base == "snappix_batch_flush_total") {
        s.batches += value;
        s.*kShardFlush[index_of(kFlushReasons, label_of(name, "reason"))] += value;
      } else if (base == "snappix_shard_frames_total") {
        s.frames = value;
      } else if (base == "snappix_steal_attempts_total") {
        s.steal_attempts = value;
      } else if (base == "snappix_stolen_frames_total") {
        s.stolen_frames = value;
      } else if (base.rfind("snappix_cache_", 0) == 0) {
        CacheTierCounters& tier =
            label_of(name, "precision") == to_string(Precision::kInt8) ? out.cache_int8
                                                                       : out.cache_fp32;
        const bool hit = base == "snappix_cache_hits_total";
        const bool miss = base == "snappix_cache_misses_total";
        (hit ? s.cache_hits : miss ? s.cache_misses : s.cache_evictions) += value;
        (hit ? tier.hits : miss ? tier.misses : tier.evictions) += value;
      } else if (base == "snappix_watchdog_stalls_total") {
        out.watchdog_stalls += value;
      } else if (base == "snappix_watchdog_rerouted_frames_total") {
        out.rerouted_frames += value;
      }
    } else if (!camera_id.empty()) {
      // Each series feeds its camera's row and the fleet total beside it.
      const int camera = std::stoi(camera_id);
      TransportCounters& t = transport[camera];
      const auto tally = [&](std::uint64_t TransportCounters::*field) {
        t.*field += value;
        out.transport.*field += value;
      };
      ShedCounters& c = shed[camera];
      HealthCounters& h = health[camera];
      if (base == "snappix_transport_frames_total") {
        const std::size_t outcome = index_of(kFramedOutcomes, label_of(name, "outcome"));
        tally(&TransportCounters::framed_frames);
        tally(kOutcome[outcome]);
        if (outcome != idx(TransportStatus::kFramedOk)) {
          tally(&TransportCounters::dropped_frames);  // still corrupt after the policy
        }
      } else if (base == "snappix_transport_retransmits_total") {
        tally(&TransportCounters::retransmits);
      } else if (base == "snappix_codec_frames_total") {
        tally(&TransportCounters::codec_frames);
      } else if (base == "snappix_codec_planes_decoded_total") {
        tally(&TransportCounters::codec_planes_decoded);
      } else if (base == "snappix_codec_planes_total") {
        tally(&TransportCounters::codec_planes_total);
      } else if (base == "snappix_shed_frames_total") {
        const bool queue_full = label_of(name, "reason") == to_string(ShedReason::kQueueFull);
        (queue_full ? c.queue_full : c.deadline) += value;
        (queue_full ? out.shed_queue_full : out.shed_deadline) += value;
        out.*kShedByQos[index_of(kQosClasses, label_of(name, "qos"))] += value;
      } else if (base == "snappix_deadline_miss_total") {
        c.deadline_misses += value;
        out.deadline_misses += value;
      } else if (base == "snappix_health_transitions_total") {
        h.transitions += value;
        out.health_transitions += value;
      } else if (base == "snappix_ladder_steps_total") {
        const bool down = label_of(name, "direction") == "down";
        (down ? h.steps_down : h.steps_up) += value;
        (down ? out.ladder_steps_down : out.ladder_steps_up) += value;
      } else if (base == "snappix_quarantine_drops_total") {
        h.quarantine_drops += value;
        out.quarantine_drops += value;
      }
    } else if (base == "snappix_frames_total") {
      out.frames = value;
    } else if (base == "snappix_batches_total") {
      out.batches = value;
    } else if (base == "snappix_raw_bytes_total") {
      out.raw_bytes = value;
    } else if (base == "snappix_wire_bytes_total") {
      out.wire_bytes = value;
    } else if (base == "snappix_task_frames_total") {
      (label_of(name, "task") == to_string(Task::kClassify) ? out.classify_frames
                                                            : out.reconstruct_frames) = value;
    } else if (base == "snappix_precision_frames_total") {
      (label_of(name, "precision") == to_string(Precision::kFp32) ? out.fp32_frames
                                                                  : out.int8_frames) = value;
    }
  }
  for (const auto& [name, value] : snapshot.gauges) {
    if (name.rfind("snappix_queue_high_water{", 0) == 0) {
      const auto depth = static_cast<std::size_t>(value);
      shards[std::stoul(label_of(name, "shard"))].queue_high_water = depth;
      out.queue_high_water = std::max(out.queue_high_water, depth);
    }
  }
  for (const obs::HistogramSnapshot& h : snapshot.histograms) {
    if (h.name == "snappix_capture_seconds") {
      out.capture = stage(h);
    } else if (h.name == "snappix_queue_wait_seconds") {
      out.queue_wait = stage(h);
    } else if (h.name == "snappix_inference_seconds") {
      out.inference = stage(h);
    } else if (h.name == "snappix_e2e_seconds") {
      out.end_to_end = stage(h);
    } else if (h.name.rfind("snappix_e2e_seconds{", 0) == 0) {
      out.*kE2eByQos[index_of(kQosClasses, label_of(h.name, "qos"))] = stage(h);
    }
  }

  for (auto& [id, s] : shards) {
    s.shard = id;
    s.steal_successes = s.flush_steal;  // a successful steal IS a kSteal batch
    out.flush_max_batch += s.flush_max_batch;
    out.flush_max_latency += s.flush_max_latency;
    out.flush_drained += s.flush_drained;
    out.flush_exhausted += s.flush_exhausted;
    out.flush_holdback += s.flush_holdback;
    out.flush_steal += s.flush_steal;
    out.steal_attempts += s.steal_attempts;
    out.steal_successes += s.steal_successes;
    out.stolen_frames += s.stolen_frames;
    out.shards.push_back(s);
  }
  // A camera gets a row only where it recorded an event.
  for (const auto& [camera, t] : transport) {
    if (t.framed_frames > 0) {
      out.transport_cameras.emplace_back(camera, t);
    }
  }
  for (const auto& [camera, c] : shed) {
    if (c.queue_full + c.deadline + c.deadline_misses > 0) {
      out.shed_cameras.emplace_back(camera, c);
    }
  }
  for (const auto& [camera, h] : health) {
    if (h.transitions + h.steps_down + h.steps_up + h.quarantine_drops > 0) {
      out.health_cameras.emplace_back(camera, h);
    }
  }
  out.shed_frames = out.shed_queue_full + out.shed_deadline;
  out.cache_hits = out.cache_fp32.hits + out.cache_int8.hits;
  out.cache_misses = out.cache_fp32.misses + out.cache_int8.misses;
  out.cache_evictions = out.cache_fp32.evictions + out.cache_int8.evictions;
  const std::uint64_t lookups = out.cache_hits + out.cache_misses;
  out.cache_hit_rate =
      lookups > 0 ? static_cast<double>(out.cache_hits) / static_cast<double>(lookups) : 0.0;
  out.wall_seconds = wall_seconds;
  out.aggregate_fps =
      wall_seconds > 0.0 ? static_cast<double>(out.frames) / wall_seconds : 0.0;
  out.mean_batch_size = out.batches > 0 ? static_cast<double>(out.frames) /
                                              static_cast<double>(out.batches)
                                        : 0.0;
  out.compression_ratio = out.wire_bytes > 0 ? static_cast<double>(out.raw_bytes) /
                                                   static_cast<double>(out.wire_bytes)
                                             : 0.0;
  return out;
}

namespace {

// snprintf onto the end of `out`.
__attribute__((format(printf, 2, 3))) void appendf(std::string& out, const char* format, ...) {
  char line[1024];
  va_list args;
  va_start(args, format);
  std::vsnprintf(line, sizeof(line), format, args);
  va_end(args);
  out += line;
}

// The %llu argument for a counter.
unsigned long long u(std::uint64_t value) { return value; }

}  // namespace

std::string to_string(const RuntimeSummary& s) {
  std::string out;
  appendf(out, "  frames %llu in %.3f s -> %.1f fps (batches %llu, mean size %.2f)\n",
          u(s.frames), s.wall_seconds, s.aggregate_fps, u(s.batches), s.mean_batch_size);
  appendf(out,
          "  latency ms (mean/p50/p95/p99): capture %.3f/%.3f/%.3f/%.3f  queue "
          "%.3f/%.3f/%.3f/%.3f\n",
          s.capture.mean_ms, s.capture.p50_ms, s.capture.p95_ms, s.capture.p99_ms,
          s.queue_wait.mean_ms, s.queue_wait.p50_ms, s.queue_wait.p95_ms, s.queue_wait.p99_ms);
  appendf(out,
          "                                 infer %.3f/%.3f/%.3f/%.3f  e2e "
          "%.3f/%.3f/%.3f/%.3f\n",
          s.inference.mean_ms, s.inference.p50_ms, s.inference.p95_ms, s.inference.p99_ms,
          s.end_to_end.mean_ms, s.end_to_end.p50_ms, s.end_to_end.p95_ms, s.end_to_end.p99_ms);
  appendf(out,
          "  flushes: max_batch %llu max_latency %llu drained %llu exhausted %llu holdback %llu "
          "steal %llu\n",
          u(s.flush_max_batch), u(s.flush_max_latency), u(s.flush_drained),
          u(s.flush_exhausted), u(s.flush_holdback), u(s.flush_steal));
  appendf(out, "  queue high water %zu; bytes raw %llu vs wire %llu (%.1fx compression)\n",
          s.queue_high_water, u(s.raw_bytes), u(s.wire_bytes), s.compression_ratio);
  appendf(out,
          "  tasks: classify %llu / reconstruct %llu; engine cache hit %llu miss %llu evict "
          "%llu (hit rate %.2f)\n",
          u(s.classify_frames), u(s.reconstruct_frames), u(s.cache_hits), u(s.cache_misses),
          u(s.cache_evictions), s.cache_hit_rate);
  if (s.int8_frames > 0) {
    appendf(out,
            "  precision: fp32 %llu / int8 %llu frames; cache fp32 %llu/%llu/%llu int8 "
            "%llu/%llu/%llu (hit/miss/evict)\n",
            u(s.fp32_frames), u(s.int8_frames), u(s.cache_fp32.hits), u(s.cache_fp32.misses),
            u(s.cache_fp32.evictions), u(s.cache_int8.hits), u(s.cache_int8.misses),
            u(s.cache_int8.evictions));
  }
  if (!s.shards.empty()) {
    appendf(out, "  steals: %llu/%llu succeeded (%llu frames stolen)\n", u(s.steal_successes),
            u(s.steal_attempts), u(s.stolen_frames));
    for (const ShardStatsView& shard : s.shards) {
      appendf(out,
              "  shard %zu: frames %llu batches %llu stolen %llu (%llu frames) cache "
              "%llu/%llu/%llu qhw %zu\n",
              shard.shard, u(shard.frames), u(shard.batches), u(shard.steal_successes),
              u(shard.stolen_frames), u(shard.cache_hits), u(shard.cache_misses),
              u(shard.cache_evictions), shard.queue_high_water);
    }
  }
  if (s.shed_frames > 0 || s.deadline_misses > 0) {
    appendf(out,
            "  overload: shed %llu (queue_full %llu deadline %llu; rt %llu std %llu be %llu) "
            "deadline misses %llu\n",
            u(s.shed_frames), u(s.shed_queue_full), u(s.shed_deadline), u(s.shed_realtime),
            u(s.shed_standard), u(s.shed_best_effort), u(s.deadline_misses));
    for (const auto& [camera_id, c] : s.shed_cameras) {
      appendf(out, "    camera %d: queue_full %llu deadline %llu misses %llu\n", camera_id,
              u(c.queue_full), u(c.deadline), u(c.deadline_misses));
    }
  }
  if (s.health_transitions > 0 || s.watchdog_stalls > 0) {
    appendf(out,
            "  health: transitions %llu ladder down %llu up %llu quarantine drops %llu; "
            "watchdog stalls %llu rerouted %llu\n",
            u(s.health_transitions), u(s.ladder_steps_down), u(s.ladder_steps_up),
            u(s.quarantine_drops), u(s.watchdog_stalls), u(s.rerouted_frames));
    for (const auto& [camera_id, c] : s.health_cameras) {
      appendf(out, "    camera %d: transitions %llu down %llu up %llu quarantine %llu\n",
              camera_id, u(c.transitions), u(c.steps_down), u(c.steps_up),
              u(c.quarantine_drops));
    }
  }
  if (s.transport.framed_frames > 0) {
    const auto transport_line = [&out](const char* prefix, const TransportCounters& c) {
      appendf(out,
              "%s: framed %llu ok %llu crc %llu trunc %llu missing %llu retransmits %llu "
              "dropped %llu\n",
              prefix, u(c.framed_frames), u(c.ok_frames), u(c.crc_errors), u(c.truncated),
              u(c.missing_lines), u(c.retransmits), u(c.dropped_frames));
    };
    transport_line("  transport", s.transport);
    for (const auto& [camera_id, c] : s.transport_cameras) {
      transport_line(("    camera " + std::to_string(camera_id)).c_str(), c);
    }
    if (s.transport.codec_frames > 0) {
      appendf(out, "  codec: frames %llu planes decoded %llu of %llu\n",
              u(s.transport.codec_frames), u(s.transport.codec_planes_decoded),
              u(s.transport.codec_planes_total));
    }
  }
  return out;
}

}  // namespace snappix::runtime

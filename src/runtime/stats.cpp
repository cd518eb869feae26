#include "runtime/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/common.h"

namespace snappix::runtime {

namespace {

StageSummary summarize(const obs::Histogram& h) {
  StageSummary out;
  out.count = static_cast<std::size_t>(h.count());
  out.mean_ms = h.mean() * 1e3;
  out.p50_ms = h.percentile(50.0) * 1e3;
  out.p95_ms = h.percentile(95.0) * 1e3;
  out.p99_ms = h.percentile(99.0) * 1e3;
  return out;
}

}  // namespace

RuntimeStats::RuntimeStats()
    : capture_(registry_.histogram("snappix_capture_seconds")),
      queue_wait_(registry_.histogram("snappix_queue_wait_seconds")),
      inference_(registry_.histogram("snappix_inference_seconds")),
      end_to_end_(registry_.histogram("snappix_e2e_seconds")),
      frames_(registry_.counter("snappix_frames_total")),
      batches_(registry_.counter("snappix_batches_total")),
      batched_frames_(registry_.counter("snappix_batched_frames_total")),
      classify_frames_(registry_.counter("snappix_task_frames_total{task=\"classify\"}")),
      reconstruct_frames_(
          registry_.counter("snappix_task_frames_total{task=\"reconstruct\"}")),
      fp32_frames_(registry_.counter("snappix_precision_frames_total{precision=\"fp32\"}")),
      int8_frames_(registry_.counter("snappix_precision_frames_total{precision=\"int8\"}")),
      raw_bytes_(registry_.counter("snappix_raw_bytes_total")),
      wire_bytes_(registry_.counter("snappix_wire_bytes_total")),
      deadline_miss_(registry_.counter("snappix_deadline_miss_total")),
      queue_high_water_(registry_.gauge("snappix_queue_high_water")) {
  for (const FlushReason reason :
       {FlushReason::kMaxBatch, FlushReason::kMaxLatency, FlushReason::kExhausted,
        FlushReason::kHoldback, FlushReason::kSteal}) {
    flush_[static_cast<std::size_t>(reason)] = &registry_.counter(
        std::string("snappix_batch_flush_total{reason=\"") + to_string(reason) + "\"}");
  }
  for (const QosClass qos :
       {QosClass::kRealtime, QosClass::kStandard, QosClass::kBestEffort}) {
    for (const ShedReason reason : {ShedReason::kQueueFull, ShedReason::kDeadline}) {
      shed_[static_cast<std::size_t>(qos)][static_cast<std::size_t>(reason)] =
          &registry_.counter(std::string("snappix_shed_frames_total{qos=\"") +
                             to_string(qos) + "\",reason=\"" + to_string(reason) + "\"}");
    }
    e2e_qos_[static_cast<std::size_t>(qos)] = &registry_.histogram(
        std::string("snappix_e2e_seconds{qos=\"") + to_string(qos) + "\"}");
  }
}

void RuntimeStats::record_capture(double seconds) { capture_.observe(seconds); }

void RuntimeStats::record_queue_wait(double seconds) { queue_wait_.observe(seconds); }

void RuntimeStats::record_batch(std::size_t batch_size, double inference_seconds,
                                FlushReason reason) {
  batches_.add();
  batched_frames_.add(batch_size);
  flush_[static_cast<std::size_t>(reason)]->add();
  inference_.observe(inference_seconds);
}

void RuntimeStats::record_task_frames(Task task, std::size_t count) {
  (task == Task::kClassify ? classify_frames_ : reconstruct_frames_).add(count);
}

void RuntimeStats::record_precision_frames(Precision precision, std::size_t count) {
  (precision == Precision::kFp32 ? fp32_frames_ : int8_frames_).add(count);
}

void RuntimeStats::record_transport(int camera_id, TransportStatus status, int retransmits,
                                    bool dropped, bool codec, int decoded_planes,
                                    int total_planes) {
  std::lock_guard<std::mutex> lock(mutex_);
  TransportCounters& c = transport_[camera_id];
  ++c.framed_frames;
  switch (status) {
    case TransportStatus::kFramedOk:
      ++c.ok_frames;
      break;
    case TransportStatus::kCrcError:
      ++c.crc_errors;
      break;
    case TransportStatus::kTruncated:
      ++c.truncated;
      break;
    case TransportStatus::kMissingLines:
      ++c.missing_lines;
      break;
    default:
      break;  // kInMemory frames are never recorded here
  }
  c.retransmits += static_cast<std::uint64_t>(retransmits);
  if (dropped) {
    ++c.dropped_frames;
  }
  if (codec) {
    ++c.codec_frames;
    c.codec_planes_decoded += static_cast<std::uint64_t>(decoded_planes);
    c.codec_planes_total += static_cast<std::uint64_t>(total_planes);
  }
}

void RuntimeStats::record_shed(int camera_id, QosClass qos, ShedReason reason) {
  shed_[static_cast<std::size_t>(qos)][static_cast<std::size_t>(reason)]->add();
  std::lock_guard<std::mutex> lock(mutex_);
  ShedCounters& c = shed_cameras_[camera_id];
  if (reason == ShedReason::kQueueFull) {
    ++c.queue_full;
  } else {
    ++c.deadline;
  }
}

void RuntimeStats::record_deadline_miss(int camera_id) {
  deadline_miss_.add();
  std::lock_guard<std::mutex> lock(mutex_);
  ++shed_cameras_[camera_id].deadline_misses;
}

void RuntimeStats::record_health_transition(int camera_id, HealthState from,
                                            HealthState to) {
  // Cold path (a handful of events per run at most): labeled counters are
  // resolved by name on demand instead of pre-building the 4x4 matrix.
  registry_.counter(std::string("snappix_health_transitions_total{from=\"") +
                    to_string(from) + "\",to=\"" + to_string(to) + "\"}")
      .add();
  registry_.gauge(std::string("snappix_camera_health{camera=\"") +
                  std::to_string(camera_id) + "\"}")
      .set(static_cast<double>(to));
  std::lock_guard<std::mutex> lock(mutex_);
  ++health_cameras_[camera_id].transitions;
}

void RuntimeStats::record_ladder_step(int camera_id, bool down, int step) {
  registry_.counter(std::string("snappix_ladder_steps_total{direction=\"") +
                    (down ? "down" : "up") + "\"}")
      .add();
  registry_.gauge(std::string("snappix_camera_ladder_step{camera=\"") +
                  std::to_string(camera_id) + "\"}")
      .set(static_cast<double>(step));
  std::lock_guard<std::mutex> lock(mutex_);
  HealthCounters& c = health_cameras_[camera_id];
  ++(down ? c.steps_down : c.steps_up);
}

void RuntimeStats::record_quarantine_drop(int camera_id) {
  registry_.counter("snappix_quarantine_drops_total").add();
  std::lock_guard<std::mutex> lock(mutex_);
  ++health_cameras_[camera_id].quarantine_drops;
}

void RuntimeStats::record_watchdog_stall(std::size_t shard) {
  registry_.counter(std::string("snappix_watchdog_stalls_total{shard=\"") +
                    std::to_string(shard) + "\"}")
      .add();
  std::lock_guard<std::mutex> lock(mutex_);
  ++watchdog_stalls_;
}

void RuntimeStats::record_rerouted_frames(std::size_t count) {
  registry_.counter("snappix_watchdog_rerouted_frames_total").add(count);
  std::lock_guard<std::mutex> lock(mutex_);
  rerouted_frames_ += count;
}

void RuntimeStats::record_frame_done(std::uint64_t raw_bytes, std::uint64_t wire_bytes,
                                     double end_to_end_seconds, QosClass qos) {
  frames_.add();
  raw_bytes_.add(raw_bytes);
  wire_bytes_.add(wire_bytes);
  end_to_end_.observe(end_to_end_seconds);
  e2e_qos_[static_cast<std::size_t>(qos)]->observe(end_to_end_seconds);
}

void RuntimeStats::set_queue_high_water(std::size_t depth) {
  queue_high_water_.set_max(static_cast<double>(depth));
}

void RuntimeStats::set_cache_tier_counters(const CacheTierCounters& fp32,
                                           const CacheTierCounters& int8) {
  std::lock_guard<std::mutex> lock(mutex_);
  cache_fp32_ = fp32;
  cache_int8_ = int8;
}

void RuntimeStats::set_shard_views(std::vector<ShardStatsView> shards) {
  std::lock_guard<std::mutex> lock(mutex_);
  shards_ = std::move(shards);
}

RuntimeSummary RuntimeStats::summary(double wall_seconds) const {
  RuntimeSummary out;
  const std::uint64_t frames = frames_.value();
  const std::uint64_t batches = batches_.value();
  const std::uint64_t batched_frames = batched_frames_.value();
  const std::uint64_t raw_bytes = raw_bytes_.value();
  const std::uint64_t wire_bytes = wire_bytes_.value();
  out.frames = frames;
  out.batches = batches;
  out.wall_seconds = wall_seconds;
  out.aggregate_fps =
      wall_seconds > 0.0 ? static_cast<double>(frames) / wall_seconds : 0.0;
  out.mean_batch_size =
      batches > 0 ? static_cast<double>(batched_frames) / static_cast<double>(batches) : 0.0;
  out.queue_high_water = static_cast<std::size_t>(queue_high_water_.value());
  out.classify_frames = classify_frames_.value();
  out.reconstruct_frames = reconstruct_frames_.value();
  out.fp32_frames = fp32_frames_.value();
  out.int8_frames = int8_frames_.value();
  out.flush_max_batch = flush_[static_cast<std::size_t>(FlushReason::kMaxBatch)]->value();
  out.flush_max_latency =
      flush_[static_cast<std::size_t>(FlushReason::kMaxLatency)]->value();
  out.flush_exhausted = flush_[static_cast<std::size_t>(FlushReason::kExhausted)]->value();
  out.flush_holdback = flush_[static_cast<std::size_t>(FlushReason::kHoldback)]->value();
  out.flush_steal = flush_[static_cast<std::size_t>(FlushReason::kSteal)]->value();
  out.capture = summarize(capture_);
  out.queue_wait = summarize(queue_wait_);
  out.inference = summarize(inference_);
  out.end_to_end = summarize(end_to_end_);
  out.e2e_realtime = summarize(*e2e_qos_[static_cast<std::size_t>(QosClass::kRealtime)]);
  out.e2e_standard = summarize(*e2e_qos_[static_cast<std::size_t>(QosClass::kStandard)]);
  out.e2e_best_effort =
      summarize(*e2e_qos_[static_cast<std::size_t>(QosClass::kBestEffort)]);
  for (const QosClass qos :
       {QosClass::kRealtime, QosClass::kStandard, QosClass::kBestEffort}) {
    std::uint64_t by_qos = 0;
    for (const ShedReason reason : {ShedReason::kQueueFull, ShedReason::kDeadline}) {
      const std::uint64_t n =
          shed_[static_cast<std::size_t>(qos)][static_cast<std::size_t>(reason)]->value();
      by_qos += n;
      (reason == ShedReason::kQueueFull ? out.shed_queue_full : out.shed_deadline) += n;
    }
    switch (qos) {
      case QosClass::kRealtime: out.shed_realtime = by_qos; break;
      case QosClass::kStandard: out.shed_standard = by_qos; break;
      case QosClass::kBestEffort: out.shed_best_effort = by_qos; break;
    }
  }
  out.shed_frames = out.shed_queue_full + out.shed_deadline;
  out.deadline_misses = deadline_miss_.value();
  out.raw_bytes = raw_bytes;
  out.wire_bytes = wire_bytes;
  out.compression_ratio =
      wire_bytes > 0 ? static_cast<double>(raw_bytes) / static_cast<double>(wire_bytes) : 0.0;

  std::lock_guard<std::mutex> lock(mutex_);
  out.cache_fp32 = cache_fp32_;
  out.cache_int8 = cache_int8_;
  out.cache_hits = cache_fp32_.hits + cache_int8_.hits;
  out.cache_misses = cache_fp32_.misses + cache_int8_.misses;
  out.cache_evictions = cache_fp32_.evictions + cache_int8_.evictions;
  const std::uint64_t lookups = out.cache_hits + out.cache_misses;
  out.cache_hit_rate =
      lookups > 0 ? static_cast<double>(out.cache_hits) / static_cast<double>(lookups) : 0.0;
  out.shards = shards_;
  for (const ShardStatsView& shard : shards_) {
    out.steal_attempts += shard.steal_attempts;
    out.steal_successes += shard.steal_successes;
    out.stolen_frames += shard.stolen_frames;
  }
  for (const auto& [camera_id, counters] : shed_cameras_) {
    out.shed_cameras.emplace_back(camera_id, counters);
  }
  out.watchdog_stalls = watchdog_stalls_;
  out.rerouted_frames = rerouted_frames_;
  for (const auto& [camera_id, counters] : health_cameras_) {
    out.health_cameras.emplace_back(camera_id, counters);
    out.health_transitions += counters.transitions;
    out.ladder_steps_down += counters.steps_down;
    out.ladder_steps_up += counters.steps_up;
    out.quarantine_drops += counters.quarantine_drops;
  }
  for (const auto& [camera_id, counters] : transport_) {
    out.transport_cameras.emplace_back(camera_id, counters);
    out.transport.framed_frames += counters.framed_frames;
    out.transport.ok_frames += counters.ok_frames;
    out.transport.crc_errors += counters.crc_errors;
    out.transport.truncated += counters.truncated;
    out.transport.missing_lines += counters.missing_lines;
    out.transport.retransmits += counters.retransmits;
    out.transport.dropped_frames += counters.dropped_frames;
    out.transport.codec_frames += counters.codec_frames;
    out.transport.codec_planes_decoded += counters.codec_planes_decoded;
    out.transport.codec_planes_total += counters.codec_planes_total;
  }
  return out;
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

std::string to_string(const RuntimeSummary& s) {
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "  frames %llu in %.3f s -> %.1f fps (batches %llu, mean size %.2f)\n"
      "  latency ms (mean/p50/p95/p99): capture %.3f/%.3f/%.3f/%.3f  queue "
      "%.3f/%.3f/%.3f/%.3f\n"
      "                                 infer %.3f/%.3f/%.3f/%.3f  e2e "
      "%.3f/%.3f/%.3f/%.3f\n"
      "  flushes: max_batch %llu max_latency %llu exhausted %llu holdback %llu "
      "steal %llu\n"
      "  queue high water %zu; bytes raw %llu vs wire %llu (%.1fx compression)\n"
      "  tasks: classify %llu / reconstruct %llu; engine cache hit %llu miss %llu "
      "evict %llu (hit rate %.2f)\n",
      static_cast<unsigned long long>(s.frames), s.wall_seconds, s.aggregate_fps,
      static_cast<unsigned long long>(s.batches), s.mean_batch_size, s.capture.mean_ms,
      s.capture.p50_ms, s.capture.p95_ms, s.capture.p99_ms, s.queue_wait.mean_ms,
      s.queue_wait.p50_ms, s.queue_wait.p95_ms, s.queue_wait.p99_ms, s.inference.mean_ms,
      s.inference.p50_ms, s.inference.p95_ms, s.inference.p99_ms, s.end_to_end.mean_ms,
      s.end_to_end.p50_ms, s.end_to_end.p95_ms, s.end_to_end.p99_ms,
      static_cast<unsigned long long>(s.flush_max_batch),
      static_cast<unsigned long long>(s.flush_max_latency),
      static_cast<unsigned long long>(s.flush_exhausted),
      static_cast<unsigned long long>(s.flush_holdback),
      static_cast<unsigned long long>(s.flush_steal), s.queue_high_water,
      static_cast<unsigned long long>(s.raw_bytes),
      static_cast<unsigned long long>(s.wire_bytes), s.compression_ratio,
      static_cast<unsigned long long>(s.classify_frames),
      static_cast<unsigned long long>(s.reconstruct_frames),
      static_cast<unsigned long long>(s.cache_hits),
      static_cast<unsigned long long>(s.cache_misses),
      static_cast<unsigned long long>(s.cache_evictions), s.cache_hit_rate);
  std::string out(buf);
  if (s.int8_frames > 0) {
    char line[320];
    std::snprintf(line, sizeof(line),
                  "  precision: fp32 %llu / int8 %llu frames; cache fp32 %llu/%llu/%llu "
                  "int8 %llu/%llu/%llu (hit/miss/evict)\n",
                  static_cast<unsigned long long>(s.fp32_frames),
                  static_cast<unsigned long long>(s.int8_frames),
                  static_cast<unsigned long long>(s.cache_fp32.hits),
                  static_cast<unsigned long long>(s.cache_fp32.misses),
                  static_cast<unsigned long long>(s.cache_fp32.evictions),
                  static_cast<unsigned long long>(s.cache_int8.hits),
                  static_cast<unsigned long long>(s.cache_int8.misses),
                  static_cast<unsigned long long>(s.cache_int8.evictions));
    out += line;
  }
  if (!s.shards.empty()) {
    char line[256];
    std::snprintf(line, sizeof(line), "  steals: %llu/%llu succeeded (%llu frames stolen)\n",
                  static_cast<unsigned long long>(s.steal_successes),
                  static_cast<unsigned long long>(s.steal_attempts),
                  static_cast<unsigned long long>(s.stolen_frames));
    out += line;
    for (const ShardStatsView& shard : s.shards) {
      std::snprintf(line, sizeof(line),
                    "  shard %zu: frames %llu batches %llu stolen %llu (%llu frames) "
                    "cache %llu/%llu/%llu qhw %zu\n",
                    shard.shard, static_cast<unsigned long long>(shard.frames),
                    static_cast<unsigned long long>(shard.batches),
                    static_cast<unsigned long long>(shard.steal_successes),
                    static_cast<unsigned long long>(shard.stolen_frames),
                    static_cast<unsigned long long>(shard.cache_hits),
                    static_cast<unsigned long long>(shard.cache_misses),
                    static_cast<unsigned long long>(shard.cache_evictions),
                    shard.queue_high_water);
      out += line;
    }
  }
  if (s.shed_frames > 0 || s.deadline_misses > 0) {
    char line[320];
    std::snprintf(line, sizeof(line),
                  "  overload: shed %llu (queue_full %llu deadline %llu; rt %llu std %llu "
                  "be %llu) deadline misses %llu\n",
                  static_cast<unsigned long long>(s.shed_frames),
                  static_cast<unsigned long long>(s.shed_queue_full),
                  static_cast<unsigned long long>(s.shed_deadline),
                  static_cast<unsigned long long>(s.shed_realtime),
                  static_cast<unsigned long long>(s.shed_standard),
                  static_cast<unsigned long long>(s.shed_best_effort),
                  static_cast<unsigned long long>(s.deadline_misses));
    out += line;
    for (const auto& [camera_id, c] : s.shed_cameras) {
      std::snprintf(line, sizeof(line),
                    "    camera %d: queue_full %llu deadline %llu misses %llu\n", camera_id,
                    static_cast<unsigned long long>(c.queue_full),
                    static_cast<unsigned long long>(c.deadline),
                    static_cast<unsigned long long>(c.deadline_misses));
      out += line;
    }
  }
  if (s.health_transitions > 0 || s.watchdog_stalls > 0) {
    char line[320];
    std::snprintf(line, sizeof(line),
                  "  health: transitions %llu ladder down %llu up %llu quarantine drops "
                  "%llu; watchdog stalls %llu rerouted %llu\n",
                  static_cast<unsigned long long>(s.health_transitions),
                  static_cast<unsigned long long>(s.ladder_steps_down),
                  static_cast<unsigned long long>(s.ladder_steps_up),
                  static_cast<unsigned long long>(s.quarantine_drops),
                  static_cast<unsigned long long>(s.watchdog_stalls),
                  static_cast<unsigned long long>(s.rerouted_frames));
    out += line;
    for (const auto& [camera_id, c] : s.health_cameras) {
      std::snprintf(line, sizeof(line),
                    "    camera %d: transitions %llu down %llu up %llu quarantine %llu\n",
                    camera_id, static_cast<unsigned long long>(c.transitions),
                    static_cast<unsigned long long>(c.steps_down),
                    static_cast<unsigned long long>(c.steps_up),
                    static_cast<unsigned long long>(c.quarantine_drops));
      out += line;
    }
  }
  if (s.transport.framed_frames > 0) {
    char line[320];
    std::snprintf(line, sizeof(line),
                  "  transport: framed %llu ok %llu crc %llu trunc %llu missing %llu "
                  "retransmits %llu dropped %llu\n",
                  static_cast<unsigned long long>(s.transport.framed_frames),
                  static_cast<unsigned long long>(s.transport.ok_frames),
                  static_cast<unsigned long long>(s.transport.crc_errors),
                  static_cast<unsigned long long>(s.transport.truncated),
                  static_cast<unsigned long long>(s.transport.missing_lines),
                  static_cast<unsigned long long>(s.transport.retransmits),
                  static_cast<unsigned long long>(s.transport.dropped_frames));
    out += line;
    for (const auto& [camera_id, c] : s.transport_cameras) {
      std::snprintf(line, sizeof(line),
                    "    camera %d: framed %llu ok %llu crc %llu trunc %llu missing %llu "
                    "retransmits %llu dropped %llu\n",
                    camera_id, static_cast<unsigned long long>(c.framed_frames),
                    static_cast<unsigned long long>(c.ok_frames),
                    static_cast<unsigned long long>(c.crc_errors),
                    static_cast<unsigned long long>(c.truncated),
                    static_cast<unsigned long long>(c.missing_lines),
                    static_cast<unsigned long long>(c.retransmits),
                    static_cast<unsigned long long>(c.dropped_frames));
      out += line;
    }
    if (s.transport.codec_frames > 0) {
      std::snprintf(line, sizeof(line),
                    "  codec: frames %llu planes decoded %llu of %llu\n",
                    static_cast<unsigned long long>(s.transport.codec_frames),
                    static_cast<unsigned long long>(s.transport.codec_planes_decoded),
                    static_cast<unsigned long long>(s.transport.codec_planes_total));
      out += line;
    }
  }
  return out;
}

std::string to_json(const CacheTierCounters& c) {
  std::ostringstream os;
  os << "{\"hits\": " << c.hits << ", \"misses\": " << c.misses
     << ", \"evictions\": " << c.evictions << "}";
  return os.str();
}

std::string to_json(const HealthCounters& c) {
  std::ostringstream os;
  os << "{\"transitions\": " << c.transitions << ", \"steps_down\": " << c.steps_down
     << ", \"steps_up\": " << c.steps_up
     << ", \"quarantine_drops\": " << c.quarantine_drops << "}";
  return os.str();
}

std::string to_json(const TransportCounters& c) {
  std::ostringstream os;
  os << "{\"framed_frames\": " << c.framed_frames << ", \"ok_frames\": " << c.ok_frames
     << ", \"crc_errors\": " << c.crc_errors << ", \"truncated\": " << c.truncated
     << ", \"missing_lines\": " << c.missing_lines
     << ", \"retransmits\": " << c.retransmits
     << ", \"dropped_frames\": " << c.dropped_frames
     << ", \"codec_frames\": " << c.codec_frames
     << ", \"codec_planes_decoded\": " << c.codec_planes_decoded
     << ", \"codec_planes_total\": " << c.codec_planes_total << "}";
  return os.str();
}

std::string to_json(const ShedCounters& c) {
  std::ostringstream os;
  os << "{\"queue_full\": " << c.queue_full << ", \"deadline\": " << c.deadline
     << ", \"deadline_misses\": " << c.deadline_misses << "}";
  return os.str();
}

std::string to_json(const ShardStatsView& s) {
  std::ostringstream os;
  os << "{\"shard\": " << s.shard << ", \"frames\": " << s.frames
     << ", \"batches\": " << s.batches << ", \"steal_attempts\": " << s.steal_attempts
     << ", \"steal_successes\": " << s.steal_successes
     << ", \"stolen_frames\": " << s.stolen_frames << ", \"cache_hits\": " << s.cache_hits
     << ", \"cache_misses\": " << s.cache_misses
     << ", \"cache_evictions\": " << s.cache_evictions
     << ", \"queue_high_water\": " << s.queue_high_water
     << ", \"flush_max_batch\": " << s.flush_max_batch
     << ", \"flush_max_latency\": " << s.flush_max_latency
     << ", \"flush_exhausted\": " << s.flush_exhausted
     << ", \"flush_holdback\": " << s.flush_holdback
     << ", \"flush_steal\": " << s.flush_steal << "}";
  return os.str();
}

std::string to_json(const RuntimeSummary& s, const FleetEnergyReport& energy,
                    const std::string& label) {
  // Every double goes through obs::json_number: an empty run's 0s and any
  // non-finite ratio render as valid JSON, never "nan"/"inf".
  const auto num = [](double v) { return obs::json_number(v); };
  std::ostringstream os;
  os << "{\"label\": \"" << label << "\", \"frames\": " << s.frames
     << ", \"batches\": " << s.batches << ", \"wall_seconds\": " << num(s.wall_seconds)
     << ", \"aggregate_fps\": " << num(s.aggregate_fps)
     << ", \"mean_batch_size\": " << num(s.mean_batch_size)
     << ", \"queue_high_water\": " << s.queue_high_water
     << ", \"capture_p50_ms\": " << num(s.capture.p50_ms)
     << ", \"capture_p95_ms\": " << num(s.capture.p95_ms)
     << ", \"capture_p99_ms\": " << num(s.capture.p99_ms)
     << ", \"queue_wait_p50_ms\": " << num(s.queue_wait.p50_ms)
     << ", \"queue_wait_p95_ms\": " << num(s.queue_wait.p95_ms)
     << ", \"queue_wait_p99_ms\": " << num(s.queue_wait.p99_ms)
     << ", \"inference_p50_ms\": " << num(s.inference.p50_ms)
     << ", \"inference_p95_ms\": " << num(s.inference.p95_ms)
     << ", \"inference_p99_ms\": " << num(s.inference.p99_ms)
     << ", \"e2e_p50_ms\": " << num(s.end_to_end.p50_ms)
     << ", \"e2e_p95_ms\": " << num(s.end_to_end.p95_ms)
     << ", \"e2e_p99_ms\": " << num(s.end_to_end.p99_ms)
     << ", \"raw_bytes\": " << s.raw_bytes
     << ", \"wire_bytes\": " << s.wire_bytes
     << ", \"compression_ratio\": " << num(s.compression_ratio)
     << ", \"flush_max_batch\": " << s.flush_max_batch
     << ", \"flush_max_latency\": " << s.flush_max_latency
     << ", \"flush_exhausted\": " << s.flush_exhausted
     << ", \"flush_holdback\": " << s.flush_holdback
     << ", \"flush_steal\": " << s.flush_steal
     << ", \"classify_frames\": " << s.classify_frames
     << ", \"reconstruct_frames\": " << s.reconstruct_frames
     << ", \"fp32_frames\": " << s.fp32_frames << ", \"int8_frames\": " << s.int8_frames
     << ", \"cache_hits\": " << s.cache_hits << ", \"cache_misses\": " << s.cache_misses
     << ", \"cache_evictions\": " << s.cache_evictions
     << ", \"cache_hit_rate\": " << num(s.cache_hit_rate)
     << ", \"cache_fp32\": " << to_json(s.cache_fp32)
     << ", \"cache_int8\": " << to_json(s.cache_int8)
     << ", \"steal_attempts\": " << s.steal_attempts
     << ", \"steal_successes\": " << s.steal_successes
     << ", \"stolen_frames\": " << s.stolen_frames << ", \"shards\": [";
  for (std::size_t i = 0; i < s.shards.size(); ++i) {
    os << (i > 0 ? ", " : "") << to_json(s.shards[i]);
  }
  os << "]"
     << ", \"shed_frames\": " << s.shed_frames
     << ", \"shed_queue_full\": " << s.shed_queue_full
     << ", \"shed_deadline\": " << s.shed_deadline
     << ", \"shed_realtime\": " << s.shed_realtime
     << ", \"shed_standard\": " << s.shed_standard
     << ", \"shed_best_effort\": " << s.shed_best_effort
     << ", \"deadline_misses\": " << s.deadline_misses
     << ", \"e2e_realtime_p99_ms\": " << num(s.e2e_realtime.p99_ms)
     << ", \"e2e_standard_p99_ms\": " << num(s.e2e_standard.p99_ms)
     << ", \"e2e_best_effort_p99_ms\": " << num(s.e2e_best_effort.p99_ms)
     << ", \"shed_cameras\": [";
  for (std::size_t i = 0; i < s.shed_cameras.size(); ++i) {
    os << (i > 0 ? ", " : "") << "{\"camera_id\": " << s.shed_cameras[i].first
       << ", \"counters\": " << to_json(s.shed_cameras[i].second) << "}";
  }
  os << "]"
     << ", \"transport\": " << to_json(s.transport) << ", \"transport_cameras\": [";
  for (std::size_t i = 0; i < s.transport_cameras.size(); ++i) {
    os << (i > 0 ? ", " : "") << "{\"camera_id\": " << s.transport_cameras[i].first
       << ", \"counters\": " << to_json(s.transport_cameras[i].second) << "}";
  }
  os << "]"
     << ", \"health_transitions\": " << s.health_transitions
     << ", \"ladder_steps_down\": " << s.ladder_steps_down
     << ", \"ladder_steps_up\": " << s.ladder_steps_up
     << ", \"quarantine_drops\": " << s.quarantine_drops
     << ", \"watchdog_stalls\": " << s.watchdog_stalls
     << ", \"rerouted_frames\": " << s.rerouted_frames << ", \"health_cameras\": [";
  for (std::size_t i = 0; i < s.health_cameras.size(); ++i) {
    os << (i > 0 ? ", " : "") << "{\"camera_id\": " << s.health_cameras[i].first
       << ", \"counters\": " << to_json(s.health_cameras[i].second) << "}";
  }
  os << "]"
     << ", \"energy_conventional_j\": " << num(energy.conventional_j)
     << ", \"energy_snappix_j\": " << num(energy.snappix_j)
     << ", \"energy_saving_factor\": " << num(energy.saving_factor) << "}";
  return os.str();
}

}  // namespace snappix::runtime

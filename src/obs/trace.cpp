#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.h"
#include "util/common.h"

namespace snappix::obs {

void validate(const TraceConfig& config) {
  if (config.sample_every < 0) {
    std::ostringstream os;
    os << "TraceConfig.sample_every must be >= 0 (0 = sample no frames), got "
       << config.sample_every;
    throw std::invalid_argument(os.str());
  }
  if (config.max_events_per_lane == 0) {
    throw std::invalid_argument(
        "TraceConfig.max_events_per_lane must be >= 1 (a zero-capacity lane would "
        "drop every span)");
  }
}

TraceLane::TraceLane(PassKey, std::uint64_t tid, std::string thread_name,
                     std::size_t capacity)
    : tid_(tid), thread_name_(std::move(thread_name)), capacity_(capacity),
      chunks_((capacity + kChunkEvents - 1) / kChunkEvents) {}

void TraceLane::add(TraceEvent event) {
  // order: relaxed self-read — only this (owning) thread ever advances
  // size_, so it reads its own last store.
  const std::size_t n = size_.load(std::memory_order_relaxed);
  if (n >= capacity_) {
    // order: relaxed — monotonic counter, no ordering relationship needed.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::size_t chunk = n / kChunkEvents;
  if (chunks_[chunk] == nullptr) {
    chunks_[chunk] = std::make_unique<TraceEvent[]>(kChunkEvents);
  }
  event.tid = tid_;
  chunks_[chunk][n % kChunkEvents] = std::move(event);
  // order: release publishes the slot (and, on a chunk boundary, the chunk
  // pointer) to readers that acquire size_ — the single-writer protocol the
  // header documents.
  size_.store(n + 1, std::memory_order_release);
}

void TraceLane::add_complete(std::string name, std::int64_t ts_ns, std::int64_t dur_ns,
                             std::string args_json) {
  TraceEvent e;
  e.name = std::move(name);
  e.ph = 'X';
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns < 0 ? 0 : dur_ns;
  e.args_json = std::move(args_json);
  add(std::move(e));
}

void TraceLane::add_async_begin(std::string name, std::string cat, std::uint64_t id,
                                std::int64_t ts_ns, std::string args_json) {
  TraceEvent e;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.ph = 'b';
  e.id = id;
  e.ts_ns = ts_ns;
  e.args_json = std::move(args_json);
  add(std::move(e));
}

void TraceLane::add_async_end(std::string name, std::string cat, std::uint64_t id,
                              std::int64_t ts_ns) {
  TraceEvent e;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.ph = 'e';
  e.id = id;
  e.ts_ns = ts_ns;
  add(std::move(e));
}

TraceRecorder::TraceRecorder(TraceConfig config)
    : config_(config), epoch_(TraceClock::now()) {
  validate(config_);
}

TraceLane* TraceRecorder::create_lane(const std::string& thread_name) {
  std::lock_guard<std::mutex> lock(mutex_);
  lanes_.push_back(std::make_unique<TraceLane>(TraceLane::PassKey{}, lanes_.size(),
                                               thread_name, config_.max_events_per_lane));
  return lanes_.back().get();
}

std::vector<TraceEvent> TraceRecorder::all_events() const {
  std::vector<TraceEvent> out;
  {
    // The mutex guards only the lane LIST; each lane's published prefix is
    // read through its own acquire, so this races active writers safely.
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& lane : lanes_) {
      const std::size_t published = lane->size();
      for (std::size_t i = 0; i < published; ++i) {
        out.push_back(lane->event(i));
      }
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
    return a.ts_ns < b.ts_ns;
  });
  return out;
}

std::size_t TraceRecorder::dropped_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t dropped = 0;
  for (const auto& lane : lanes_) {
    dropped += lane->dropped();
  }
  return dropped;
}

namespace {

// Chrome wants microseconds; keep nanosecond precision as a fraction.
std::string us(std::int64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld", static_cast<long long>(ns / 1000),
                static_cast<long long>(ns < 0 ? 0 : ns % 1000));
  return buf;
}

}  // namespace

std::string TraceRecorder::chrome_json() const {
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& lane : lanes_) {
      os << (first ? "" : ",") << "\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
         << "\"tid\": " << lane->tid_ << ", \"args\": {\"name\": \""
         << json_escape(lane->thread_name_) << "\"}}";
      first = false;
    }
  }
  for (const TraceEvent& e : all_events()) {
    os << (first ? "" : ",") << "\n{\"name\": \"" << json_escape(e.name) << "\", ";
    if (!e.cat.empty()) {
      os << "\"cat\": \"" << json_escape(e.cat) << "\", ";
    }
    os << "\"ph\": \"" << e.ph << "\", \"pid\": 1, \"tid\": " << e.tid
       << ", \"ts\": " << us(e.ts_ns);
    if (e.ph == 'X') {
      os << ", \"dur\": " << us(e.dur_ns);
    }
    if (e.ph == 'b' || e.ph == 'e') {
      char idbuf[32];
      std::snprintf(idbuf, sizeof(idbuf), "0x%llx", static_cast<unsigned long long>(e.id));
      os << ", \"id\": \"" << idbuf << "\"";
    }
    if (!e.args_json.empty()) {
      os << ", \"args\": {" << e.args_json << "}";
    }
    os << "}";
    first = false;
  }
  os << "\n]}\n";
  return os.str();
}

void TraceRecorder::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  SNAPPIX_CHECK(out.good(), "cannot open trace file " << path);
  out << chrome_json();
  SNAPPIX_CHECK(out.good(), "failed writing trace file " << path);
}

namespace {

thread_local TraceRecorder* t_recorder = nullptr;
thread_local TraceLane* t_lane = nullptr;

}  // namespace

ScopedTraceLane::ScopedTraceLane(TraceRecorder* recorder, TraceLane* lane)
    : prev_recorder_(t_recorder), prev_lane_(t_lane) {
  t_recorder = recorder;
  t_lane = lane;
}

ScopedTraceLane::~ScopedTraceLane() {
  t_recorder = prev_recorder_;
  t_lane = prev_lane_;
}

TraceLane* current_lane() { return t_lane; }
TraceRecorder* current_recorder() { return t_recorder; }

ScopedSpan::ScopedSpan(const char* name, std::string args_json)
    : recorder_(t_recorder), lane_(t_lane), name_(name) {
  if (recorder_ != nullptr && lane_ != nullptr) {
    args_json_ = std::move(args_json);
    start_ns_ = recorder_->now_ns();
  }
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ != nullptr && lane_ != nullptr) {
    lane_->add_complete(name_, start_ns_, recorder_->now_ns() - start_ns_,
                        std::move(args_json_));
  }
}

}  // namespace snappix::obs

/// \file trace.h
/// \brief Per-frame span tracing for the streaming runtime, exported as
/// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
///
/// Recording model: a TraceRecorder owns one TraceLane per writer thread
/// (one per server shard, plus auxiliaries). A lane is a SINGLE-WRITER
/// append buffer — the owning worker pushes events with no locking into
/// chunked storage and publishes each event with one release store; the
/// recorder's mutex guards only the lane list (creation vs. enumeration).
/// Readers (chrome_json() / all_events() / dropped_events()) may therefore
/// run MID-SERVE, racing the lane writers: an export observes a consistent
/// prefix of every lane — each event either fully present or not yet
/// published, never torn (pinned by tests/test_stress.cpp TraceExportRaces*
/// under TSan). The hot path stays one slot write + one release store per
/// span, and exactly zero work when tracing is off.
///
/// Sampling: per-camera 1-in-N. A frame is sampled when
/// `sequence % sample_every == 0`; `sample_every == 0` keeps tracing
/// compiled-in and enabled but samples no frames (the overhead-measurement
/// arm of bench/obs_overhead.cpp). Only batches containing at least one
/// sampled frame pay for span emission.
///
/// Span plumbing: instrumented leaf code (engine stages, EngineCache) does
/// not take a lane parameter. Instead the shard worker installs its lane in
/// thread-local storage with ScopedTraceLane for the duration of a traced
/// batch; ScopedSpan then picks the lane up from TLS, or reduces to a
/// no-op (two null checks, no clock reads) when no lane is installed.
///
/// Event vocabulary written by the server (docs/observability.md has the
/// full map): per-frame lifecycles are Chrome ASYNC events (ph "b"/"e",
/// cat "frame", id = camera_id<<32 | sequence) nesting
/// frame ⊃ {capture ⊃ transport, queue_wait, batch_assembly, infer};
/// per-batch and per-stage work are COMPLETE events (ph "X") on the shard's
/// own track: serve_batch ⊃ {cache_resolve, encode, embed, qkv, attention,
/// proj, mlp, classify_head / rec_decode, quantize, gemm_s8, requant}.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace snappix::obs {

using TraceClock = std::chrono::steady_clock;

struct TraceConfig {
  bool enabled = false;
  /// Per-camera sampling period: frame `sequence` is sampled when
  /// `sequence % sample_every == 0`. 1 traces every frame; 0 traces none
  /// (tracing stays enabled — the overhead arm). Must be >= 0.
  int sample_every = 1;
  /// Hard cap per lane; events beyond it are counted in dropped_events()
  /// instead of growing the buffer without bound.
  std::size_t max_events_per_lane = 1u << 20;
};

void validate(const TraceConfig& config);

/// \brief One Chrome trace event. Timestamps are nanoseconds on the
/// recorder's clock epoch; the JSON writer renders them as fractional
/// microseconds (the unit chrome://tracing expects).
struct TraceEvent {
  std::string name;
  std::string cat;        ///< non-empty only for async (per-frame) events
  char ph = 'X';          ///< 'X' complete, 'b'/'e' async begin/end
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;   ///< complete events only
  std::uint64_t id = 0;      ///< async correlation id (one per frame)
  std::uint64_t tid = 0;     ///< lane index (rendered as the Chrome tid)
  std::string args_json;     ///< raw inner JSON, e.g. "\"hit\": true"
};

/// \brief Single-writer append buffer of trace events. The owning thread
/// writes without locking; any thread may read the published prefix
/// concurrently (size()/event(i) below, normally via the recorder).
///
/// Storage is chunked: a fixed, never-reallocated vector of chunk slots is
/// sized at construction, and the writer materializes chunks lazily. The
/// writer fills the event slot FIRST, then publishes it with a release
/// store of the new size; a reader that acquires the size therefore sees
/// every byte of every event below it. Published events are never mutated
/// again, so readers index them without further synchronization.
class TraceLane {
 public:
  /// Passkey: only TraceRecorder::create_lane constructs lanes, but the
  /// constructor must be public for std::make_unique (no naked `new` — see
  /// scripts/check_static.sh).
  class PassKey {
   private:
    PassKey() = default;
    friend class TraceRecorder;
  };

  TraceLane(PassKey key, std::uint64_t tid, std::string thread_name, std::size_t capacity);

  void add(TraceEvent event);
  void add_complete(std::string name, std::int64_t ts_ns, std::int64_t dur_ns,
                    std::string args_json = {});
  void add_async_begin(std::string name, std::string cat, std::uint64_t id,
                       std::int64_t ts_ns, std::string args_json = {});
  void add_async_end(std::string name, std::string cat, std::uint64_t id,
                     std::int64_t ts_ns);

  std::uint64_t tid() const { return tid_; }
  const std::string& thread_name() const { return thread_name_; }
  /// \brief Number of PUBLISHED events — safe to call while the owner writes.
  std::size_t size() const {
    // order: acquire pairs with the writer's release in add(); every event
    // below the returned count is fully written and immutable.
    return size_.load(std::memory_order_acquire);
  }
  /// \brief Event `index`, which must be < a size() read by THIS thread
  /// (that acquire is what makes the slot safe to touch).
  const TraceEvent& event(std::size_t index) const {
    return chunks_[index / kChunkEvents][index % kChunkEvents];
  }
  std::uint64_t dropped() const {
    // order: relaxed — independent monotonic counter, no cross-variable
    // invariant with size_; a snapshot may be one drop stale, never torn.
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  friend class TraceRecorder;

  static constexpr std::size_t kChunkEvents = 1024;

  std::uint64_t tid_;
  std::string thread_name_;
  std::size_t capacity_;
  // order: single-writer publish protocol. Only the owning thread stores
  // size_ (release, after filling the slot and — on a chunk boundary — the
  // chunk pointer); readers acquire it and touch only entries below it.
  std::atomic<std::size_t> size_{0};
  // order: relaxed — monotonic overflow counter, read by dropped() above.
  std::atomic<std::uint64_t> dropped_{0};
  // Chunk slots are pre-sized (never reallocated); the owning writer fills a
  // slot's unique_ptr before publishing any size that covers it, so readers
  // ordered by the size_ acquire see the pointer.
  std::vector<std::unique_ptr<TraceEvent[]>> chunks_;
};

/// \brief Owns the per-thread lanes and the export path. Lane creation is
/// mutex-guarded and returns a pointer stable for the recorder's lifetime;
/// everything per-event is lane-local.
class TraceRecorder {
 public:
  explicit TraceRecorder(TraceConfig config = {});
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  const TraceConfig& config() const { return config_; }
  bool enabled() const { return config_.enabled; }

  /// \brief True when the frame with this per-camera sequence number is
  /// traced: the one sampling rule, which the shard workers apply to the
  /// frames they serve.
  bool should_sample(std::int64_t sequence) const {
    return config_.enabled && config_.sample_every > 0 &&
           sequence % config_.sample_every == 0;
  }

  /// \brief Nanoseconds since the recorder's epoch (its construction time).
  std::int64_t to_ns(TraceClock::time_point tp) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(tp - epoch_).count();
  }
  std::int64_t now_ns() const { return to_ns(TraceClock::now()); }

  TraceLane* create_lane(const std::string& thread_name);

  /// \brief Every recorded event from every lane, sorted by timestamp. Safe
  /// to call while lane owners are still writing: each lane contributes its
  /// published prefix (single-writer release/acquire — see TraceLane).
  std::vector<TraceEvent> all_events() const;
  std::size_t dropped_events() const;

  /// \brief Chrome trace-event JSON: {"traceEvents": [...]} with a
  /// thread_name metadata record per lane. Like all_events(), safe to call
  /// mid-run; a complete trace still requires the workers to have finished.
  std::string chrome_json() const;
  void write(const std::string& path) const;

 private:
  TraceConfig config_;
  TraceClock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<TraceLane>> lanes_;
};

/// \brief Installs {recorder, lane} as the calling thread's active trace
/// destination for the current scope; restores the previous one on exit.
/// Shard workers wrap traced batches in this so leaf code (engines, the
/// EngineCache) can emit spans with no API changes.
class ScopedTraceLane {
 public:
  ScopedTraceLane(TraceRecorder* recorder, TraceLane* lane);
  ~ScopedTraceLane();
  ScopedTraceLane(const ScopedTraceLane&) = delete;
  ScopedTraceLane& operator=(const ScopedTraceLane&) = delete;

 private:
  TraceRecorder* prev_recorder_;
  TraceLane* prev_lane_;
};

/// \brief The calling thread's active lane / recorder, or nullptr when no
/// ScopedTraceLane is live (the common, untraced case).
TraceLane* current_lane();
TraceRecorder* current_recorder();

/// \brief RAII complete-event span on the thread's active lane. When no
/// lane is installed the constructor and destructor do nothing — no clock
/// reads, no allocation — so instrumentation points cost two branch
/// instructions on untraced paths.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::string args_json = {});
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceRecorder* recorder_;
  TraceLane* lane_;
  const char* name_;
  std::string args_json_;
  std::int64_t start_ns_ = 0;
};

}  // namespace snappix::obs

/// \file metrics.h
/// \brief Process-wide metrics registry: monotonic counters, gauges, and
/// fixed-bucket latency histograms with live percentile queries.
///
/// The serving tier's shards and camera producers record into these
/// concurrently on the hot path, so every write is lock-free: counters and
/// histogram buckets are relaxed atomic adds, gauges are atomic stores, and
/// the only mutex in the registry guards metric *creation* (done once at
/// setup, never per frame). A snapshot can therefore be taken mid-run —
/// InferenceServer::metrics_snapshot() — without stalling a single worker;
/// the reads are relaxed, so a snapshot racing a write may be one event
/// stale, never torn.
///
/// Percentile contract (the "empty-series contract" pinned by
/// tests/test_obs.cpp): a histogram percentile query NEVER returns NaN or
/// infinity. An empty histogram reports 0 for every percentile, mean, and
/// sum; a non-empty one interpolates linearly inside the bucket containing
/// the requested rank and clamps the result into [min observed, max
/// observed], so the open-ended overflow bucket cannot leak +inf into a JSON
/// artifact. Queries at increasing p are monotone: p50 <= p95 <= p99 always.
///
/// Exports: to_json() (flat machine-readable object, used by the BENCH_*
/// artifacts) and to_prometheus() (Prometheus text exposition format v0.0.4,
/// with cumulative `_bucket{le=...}` series per histogram) both render a
/// MetricsSnapshot. Metric names may embed Prometheus labels directly —
/// `snappix_batch_flush_total{reason="max_batch"}` — and the exporters split
/// them back out where the format requires it.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace snappix::obs {

/// \brief Monotonic counter. add() is a relaxed atomic increment.
class Counter {
 public:
  // order: relaxed — a counter carries no cross-variable invariant; each
  // increment is independent and a reader needs no ordering with any other
  // memory, only atomicity (a snapshot may be one event stale, never torn).
  void add(std::uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  // order: relaxed on every access — see add()/value() above.
  std::atomic<std::uint64_t> value_{0};
};

/// \brief Last-write-wins gauge with an atomic raise-to-max helper for
/// high-water marks.
class Gauge {
 public:
  // order: relaxed — last-write-wins semantics by design; there is no
  // happens-before a reader could rely on (which write "won" is already
  // unspecified), so stronger orderings would buy nothing.
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  /// \brief Raises the gauge to `value` if larger (CAS loop; lock-free).
  void set_max(double value);
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  // order: relaxed on every access — see set()/value() above.
  std::atomic<double> value_{0.0};
};

/// \brief The default latency bucket ladder (seconds): roughly 1-2-5 decades
/// from 1 us to 10 s. Narrow enough that interpolated percentiles track the
/// exact nearest-rank values to within a bucket width at serving latencies.
std::vector<double> default_latency_buckets_s();

/// \brief Point-in-time copy of one histogram, with derived percentiles.
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;  ///< sum / count; 0 when empty
  double min = 0.0;   ///< smallest observed value; 0 when empty
  double max = 0.0;   ///< largest observed value; 0 when empty
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::vector<double> bounds;          ///< ascending finite upper bounds
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (last = overflow)
};

/// \brief Fixed-bucket histogram. observe() is lock-free (atomic bucket add
/// plus CAS folds for sum/min/max); percentile() interpolates within the
/// bucket holding the rank and clamps to the observed range.
class Histogram {
 public:
  /// \param bounds ascending, finite, non-empty upper bucket bounds. An
  /// implicit overflow bucket catches values above the last bound.
  explicit Histogram(std::vector<double> bounds = default_latency_buckets_s());

  void observe(double value);

  // order: relaxed — each statistic is folded independently (observe() is
  // not one transaction); readers tolerate the documented one-event skew
  // between count/sum/buckets, and no reader dereferences anything through
  // these values, so no release/acquire pairing is required.
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  /// \brief Interpolated percentile, `p` in [0, 100]. Returns 0 when empty;
  /// never NaN or infinity; monotone in `p`.
  double percentile(double p) const;

  HistogramSnapshot snapshot() const;  ///< name left empty (registry fills it)

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  std::vector<double> bounds_;
  // order: relaxed adds/loads — bucket counts are independent monotonic
  // counters; percentile() reads one consistent local copy and tolerates
  // skew against count_ (it derives the total from the buckets themselves).
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  // order: relaxed — see count()/sum() above.
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // order: relaxed CAS folds. Seeded to +/-inf so racing first observers
  // both fold (a plain "first sample stores" protocol would let a later
  // store overwrite a smaller concurrent min); readers sanitize the
  // still-unset infinities to 0 / a bucket bound, never exporting them.
  std::atomic<double> min_{kUnsetMin};
  std::atomic<double> max_{kUnsetMax};

  static constexpr double kUnsetMin = std::numeric_limits<double>::infinity();
  static constexpr double kUnsetMax = -std::numeric_limits<double>::infinity();
};

/// \brief Point-in-time copy of every registered metric.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;  // sorted by name
  std::vector<std::pair<std::string, double>> gauges;           // sorted by name
  std::vector<HistogramSnapshot> histograms;                    // sorted by name
};

/// \brief Name-keyed registry. counter()/gauge()/histogram() return a STABLE
/// reference (create-on-first-use under the registry mutex); callers resolve
/// once at setup and record through the reference lock-free thereafter.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// \brief `bounds` applies only on first creation; a later lookup with
  /// different bounds returns the existing histogram unchanged.
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = default_latency_buckets_s());

  /// \brief Safe to call while writers are recording (reads are relaxed).
  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// \brief Formats `value` for JSON: non-finite values (which valid JSON
/// cannot carry) render as 0. The single choke point that keeps every
/// exporter NaN/inf-free.
std::string json_number(double value);

/// \brief Escapes `text` for use inside a JSON string literal (quotes and
/// backslashes); every exporter's string values go through it.
std::string json_escape(const std::string& text);

/// \brief Flat JSON object: {"counters": {...}, "gauges": {...},
/// "histograms": {name: {count, sum, mean, min, max, p50, p95, p99,
/// buckets: [{le, count}, ...]}}}.
std::string to_json(const MetricsSnapshot& snapshot);

/// \brief Prometheus text exposition (v0.0.4): counters and gauges as single
/// samples, histograms as cumulative `_bucket{le="..."}` series plus `_sum`
/// and `_count`. Labels embedded in metric names are merged with the `le`
/// label.
std::string to_prometheus(const MetricsSnapshot& snapshot);

}  // namespace snappix::obs

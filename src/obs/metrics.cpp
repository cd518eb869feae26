#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/common.h"

namespace snappix::obs {

namespace {

// CAS-folds `value` into `target` through `fold` (atomic<double> has no
// fetch_add/fetch_max in C++17).
// order: relaxed CAS — the fold is commutative and touches one variable;
// readers need atomicity, not ordering against other statistics (the
// documented one-event snapshot skew). The loop terminates because a failed
// CAS reloads `current` and some thread's CAS always succeeds.
template <typename Fold>
void atomic_fold(std::atomic<double>& target, double value, Fold fold) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, fold(current, value),
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

void Gauge::set_max(double value) {
  atomic_fold(value_, value, [](double a, double b) { return a > b ? a : b; });
}

std::vector<double> default_latency_buckets_s() {
  std::vector<double> bounds;
  for (double decade = 1e-6; decade < 10.0; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(2.0 * decade);
    bounds.push_back(5.0 * decade);
  }
  bounds.push_back(10.0);
  return bounds;  // 1us .. 10s, 1-2-5 ladder
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  SNAPPIX_CHECK(!bounds_.empty(), "Histogram needs at least one bucket bound");
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    SNAPPIX_CHECK(std::isfinite(bounds_[i]), "Histogram bounds must be finite");
    SNAPPIX_CHECK(i == 0 || bounds_[i] > bounds_[i - 1],
                  "Histogram bounds must be strictly ascending");
  }
}

void Histogram::observe(double value) {
  if (!std::isfinite(value)) {
    return;  // a poisoned sample must not poison the percentiles
  }
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  atomic_fold(sum_, value, [](double a, double b) { return a + b; });
  count_.fetch_add(1, std::memory_order_relaxed);
  // min_/max_ are seeded to +/-inf, so the first observation folds exactly
  // like every later one. (The previous "first sample stores" protocol had
  // a lost-update window: observer A winning the count race could STORE its
  // value over the smaller min a racing observer B had already folded.
  // Folding unconditionally is idempotent and order-free; readers sanitize
  // the unset infinities.)
  atomic_fold(min_, value, [](double a, double b) { return a < b ? a : b; });
  atomic_fold(max_, value, [](double a, double b) { return a > b ? a : b; });
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n > 0 ? sum() / static_cast<double>(n) : 0.0;
}

double Histogram::percentile(double p) const {
  SNAPPIX_CHECK(p >= 0.0 && p <= 100.0, "percentile " << p << " out of [0, 100]");
  // Work from one consistent read of the buckets (mid-run snapshots race
  // writers; summing twice could disagree).
  std::vector<std::uint64_t> counts(buckets_.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) {
    return 0.0;  // the empty-series contract: never NaN, never inf
  }
  // A mid-run reader can observe a bucket count whose min/max folds have not
  // landed yet (relaxed, independent variables) — sanitize the unset
  // infinities so they can never leak into a percentile.
  double lo = min_.load(std::memory_order_relaxed);
  double hi = max_.load(std::memory_order_relaxed);
  if (!std::isfinite(lo)) {
    lo = 0.0;
  }
  if (!std::isfinite(hi)) {
    hi = bounds_.back();
  }
  const double rank = p / 100.0 * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) {
      continue;
    }
    const double next = static_cast<double>(cumulative + counts[i]);
    if (next >= rank) {
      // Interpolate inside this bucket. The overflow bucket has no finite
      // upper bound, so the observed max stands in for it; likewise the
      // first bucket's lower edge is 0 (latencies are non-negative).
      const double lower = i == 0 ? 0.0 : bounds_[i - 1];
      const double upper = i < bounds_.size() ? bounds_[i] : hi;
      const double fraction =
          (rank - static_cast<double>(cumulative)) / static_cast<double>(counts[i]);
      const double value = lower + fraction * (upper - lower);
      return std::min(std::max(value, lo), hi);  // clamp into observed range
    }
    cumulative += counts[i];
  }
  return hi;  // rank beyond the last occupied bucket (p == 100)
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  out.count = count();
  out.sum = sum();
  out.mean = mean();
  if (out.count > 0) {
    // Same transient-unset sanitation as percentile(): a count published
    // before the first min/max fold lands must not export an infinity.
    const double lo = min_.load(std::memory_order_relaxed);
    const double hi = max_.load(std::memory_order_relaxed);
    out.min = std::isfinite(lo) ? lo : 0.0;
    out.max = std::isfinite(hi) ? hi : 0.0;
  }
  out.p50 = percentile(50.0);
  out.p95 = percentile(95.0);
  out.p99 = percentile(99.0);
  out.bounds = bounds_;
  out.buckets.resize(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name, std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(std::move(bounds));
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lock(mutex_);  // guards the maps, not the values
  for (const auto& [name, counter] : counters_) {
    out.counters.emplace_back(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    out.gauges.emplace_back(name, gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h = histogram->snapshot();
    h.name = name;
    out.histograms.push_back(std::move(h));
  }
  return out;  // std::map iteration is already name-sorted
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "0";  // valid JSON carries no NaN/inf; see the header contract
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

namespace {

// Splits `snappix_foo_total{reason="max_batch"}` into its base name and the
// inner label list (empty when unlabeled) for Prometheus rendering.
std::pair<std::string, std::string> split_labels(const std::string& name) {
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') {
    return {name, ""};
  }
  return {name.substr(0, brace), name.substr(brace + 1, name.size() - brace - 2)};
}

std::string prometheus_bound(double bound) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", bound);
  return buf;
}

}  // namespace

std::string to_json(const MetricsSnapshot& s) {
  std::ostringstream os;
  os << "{\"counters\": {";
  for (std::size_t i = 0; i < s.counters.size(); ++i) {
    os << (i > 0 ? ", " : "") << "\"" << json_escape(s.counters[i].first)
       << "\": " << s.counters[i].second;
  }
  os << "}, \"gauges\": {";
  for (std::size_t i = 0; i < s.gauges.size(); ++i) {
    os << (i > 0 ? ", " : "") << "\"" << json_escape(s.gauges[i].first)
       << "\": " << json_number(s.gauges[i].second);
  }
  os << "}, \"histograms\": {";
  for (std::size_t i = 0; i < s.histograms.size(); ++i) {
    const HistogramSnapshot& h = s.histograms[i];
    os << (i > 0 ? ", " : "") << "\"" << json_escape(h.name) << "\": {\"count\": " << h.count
       << ", \"sum\": " << json_number(h.sum) << ", \"mean\": " << json_number(h.mean)
       << ", \"min\": " << json_number(h.min) << ", \"max\": " << json_number(h.max)
       << ", \"p50\": " << json_number(h.p50) << ", \"p95\": " << json_number(h.p95)
       << ", \"p99\": " << json_number(h.p99) << ", \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      os << (b > 0 ? ", " : "") << "{\"le\": ";
      if (b < h.bounds.size()) {
        os << json_number(h.bounds[b]);
      } else {
        os << "\"+Inf\"";  // the overflow bucket's bound, as a string
      }
      os << ", \"count\": " << h.buckets[b] << "}";
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

std::string to_prometheus(const MetricsSnapshot& s) {
  std::ostringstream os;
  for (const auto& [name, value] : s.counters) {
    const auto [base, labels] = split_labels(name);
    os << "# TYPE " << base << " counter\n";
    os << base << (labels.empty() ? "" : "{" + labels + "}") << " " << value << "\n";
  }
  for (const auto& [name, value] : s.gauges) {
    const auto [base, labels] = split_labels(name);
    os << "# TYPE " << base << " gauge\n";
    os << base << (labels.empty() ? "" : "{" + labels + "}") << " " << json_number(value)
       << "\n";
  }
  for (const HistogramSnapshot& h : s.histograms) {
    const auto [base, labels] = split_labels(h.name);
    const std::string prefix = labels.empty() ? "" : labels + ",";
    os << "# TYPE " << base << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      cumulative += h.buckets[b];
      os << base << "_bucket{" << prefix << "le=\""
         << (b < h.bounds.size() ? prometheus_bound(h.bounds[b]) : "+Inf") << "\"} "
         << cumulative << "\n";
    }
    os << base << "_sum" << (labels.empty() ? "" : "{" + labels + "}") << " "
       << json_number(h.sum) << "\n";
    os << base << "_count" << (labels.empty() ? "" : "{" + labels + "}") << " " << h.count
       << "\n";
  }
  return os.str();
}

}  // namespace snappix::obs

#include "runtime/engine_cache.h"

#include <utility>

#include "obs/trace.h"
#include "util/common.h"

namespace snappix::runtime {

EngineCache::EngineCache(const EngineCacheConfig& config, EngineFactory factory)
    : config_(config), factory_(std::move(factory)) {
  SNAPPIX_CHECK(config.capacity > 0, "EngineCache capacity must be positive");
  SNAPPIX_CHECK(factory_ != nullptr, "EngineCache needs an engine factory");
}

std::shared_ptr<const ServingEntry> EngineCache::resolve(
    std::uint64_t pattern_id, const std::shared_ptr<const ce::CePattern>& pattern,
    Precision precision) {
  SNAPPIX_CHECK(pattern != nullptr, "resolve() needs the pattern to build on a miss");
  const CacheKey key{pattern_id, precision};
  EngineCacheCounters& counters = counters_[static_cast<std::size_t>(precision)];

  // A hit is a map lookup; a miss builds (and for int8, calibrates) an
  // engine. The hit/miss arg on the span makes the difference visible in the
  // trace without a separate event type.
  obs::TraceLane* lane = obs::current_lane();
  obs::TraceRecorder* recorder = obs::current_recorder();
  const std::int64_t span_start = lane != nullptr ? recorder->now_ns() : 0;

  std::lock_guard<std::mutex> lock(mutex_);

  const auto it = index_.find(key);
  if (it != index_.end()) {
    ++counters.hits;
    lru_.splice(lru_.begin(), lru_, it->second);  // touch
    if (lane != nullptr) {
      lane->add_complete("cache_resolve", span_start, recorder->now_ns() - span_start,
                         "\"hit\": true");
    }
    return it->second->second;
  }

  ++counters.misses;
  auto entry = std::make_shared<ServingEntry>();
  entry->pattern = pattern;
  entry->engine = factory_(*pattern, precision);
  entry->precision = precision;
  SNAPPIX_CHECK(entry->engine != nullptr, "engine factory returned null");
  SNAPPIX_CHECK(entry->engine->precision() == precision,
                "engine factory built a " << to_string(entry->engine->precision())
                                          << " engine for a " << to_string(precision)
                                          << " miss");

  lru_.emplace_front(key, entry);
  index_.emplace(key, lru_.begin());
  while (lru_.size() > config_.capacity) {
    const CacheKey& victim = lru_.back().first;
    ++counters_[static_cast<std::size_t>(victim.precision)].evictions;
    index_.erase(victim);
    lru_.pop_back();  // in-flight holders keep the entry alive
  }
  if (lane != nullptr) {
    lane->add_complete("cache_resolve", span_start, recorder->now_ns() - span_start,
                       "\"hit\": false");
  }
  return entry;
}

EngineCacheCounters EngineCache::counters() const {
  const EngineCacheCounters fp32 = counters(Precision::kFp32);
  const EngineCacheCounters int8 = counters(Precision::kInt8);
  return {fp32.hits + int8.hits, fp32.misses + int8.misses, fp32.evictions + int8.evictions};
}

EngineCacheCounters EngineCache::counters(Precision precision) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_[static_cast<std::size_t>(precision)];
}

std::size_t EngineCache::resident() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

}  // namespace snappix::runtime

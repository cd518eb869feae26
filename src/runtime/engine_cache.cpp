#include "runtime/engine_cache.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "util/common.h"

namespace snappix::runtime {

// --- EngineCache -------------------------------------------------------------

EngineCache::EngineCache(const EngineCacheConfig& config, EngineFactory factory)
    : config_(config), factory_(std::move(factory)) {
  SNAPPIX_CHECK(config.shards > 0, "EngineCache needs at least one shard");
  SNAPPIX_CHECK(config.capacity_per_shard > 0, "EngineCache shard capacity must be positive");
  SNAPPIX_CHECK(factory_ != nullptr, "EngineCache needs an engine factory");
  shards_.reserve(config.shards);
  for (std::size_t i = 0; i < config.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

EngineCache::Shard& EngineCache::shard_for(std::uint64_t pattern_id) {
  // pattern_id is an FNV-1a hash, already well mixed — modulo suffices.
  return *shards_[pattern_id % shards_.size()];
}

std::shared_ptr<const ServingEntry> EngineCache::resolve(
    std::uint64_t pattern_id, const std::shared_ptr<const ce::CePattern>& pattern,
    Precision precision) {
  SNAPPIX_CHECK(pattern != nullptr, "resolve() needs the pattern to build on a miss");
  Shard& shard = shard_for(pattern_id);
  const CacheKey key{pattern_id, precision};
  EngineCacheCounters& counters = shard.counters[static_cast<std::size_t>(precision)];

  // A hit is a map lookup; a miss builds (and for int8, calibrates) an
  // engine. The hit/miss arg on the span makes the difference visible in the
  // trace without a separate event type.
  obs::TraceLane* lane = obs::current_lane();
  obs::TraceRecorder* recorder = obs::current_recorder();
  const std::int64_t span_start = lane != nullptr ? recorder->now_ns() : 0;

  std::lock_guard<std::mutex> lock(shard.mutex);

  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    ++counters.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // touch
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

  shard.lru.emplace_front(key, entry);
  shard.index.emplace(key, shard.lru.begin());
  while (shard.lru.size() > config_.capacity_per_shard) {
    const CacheKey& victim = shard.lru.back().first;
    ++shard.counters[static_cast<std::size_t>(victim.precision)].evictions;
    shard.index.erase(victim);
    shard.lru.pop_back();  // in-flight holders keep the entry alive
  }
  if (lane != nullptr) {
    lane->add_complete("cache_resolve", span_start, recorder->now_ns() - span_start,
                       "\"hit\": false");
  }
  return entry;
}

EngineCacheCounters EngineCache::counters() const {
  EngineCacheCounters total;
  for (const Precision precision : {Precision::kFp32, Precision::kInt8}) {
    const EngineCacheCounters tier = counters(precision);
    total.hits += tier.hits;
    total.misses += tier.misses;
    total.evictions += tier.evictions;
  }
  return total;
}

EngineCacheCounters EngineCache::counters(Precision precision) const {
  EngineCacheCounters total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    const EngineCacheCounters& tier = shard->counters[static_cast<std::size_t>(precision)];
    total.hits += tier.hits;
    total.misses += tier.misses;
    total.evictions += tier.evictions;
  }
  return total;
}

std::size_t EngineCache::resident() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->lru.size();
  }
  return total;
}

std::size_t EngineCache::max_shard_occupancy() const {
  std::size_t max_occupancy = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    max_occupancy = std::max(max_occupancy, shard->lru.size());
  }
  return max_occupancy;
}

}  // namespace snappix::runtime

/// \file engine_cache.h
/// \brief EngineCache: an LRU-evicting map from (pattern_id, precision) to
/// resident per-pattern serving state.
///
/// A SNAPPIX deployment serves a fleet whose cameras carry *different*
/// learned CE patterns; each distinct pattern needs server-side state to
/// serve its frames — a fused engine and its workspace. Millions of cameras
/// cannot each keep an engine resident, so the cache bounds residency: it
/// holds at most `capacity` entries and evicts the least recently used
/// beyond that. A miss rebuilds the entry through the factory the server
/// installed; because engines are deterministic snapshots of the model, an
/// evicted-and-refetched pattern serves bit-identical results.
///
/// Topology note: each InferenceServer consumer shard owns a whole private
/// EngineCache (its "cache view"), and only that shard's worker resolves
/// from it, so workers never contend on one cache; a work-stealing thief
/// builds its own entry for a stolen pattern rather than reaching into the
/// victim's view.
///
/// Precision tiers: entries are keyed by (pattern_id, Precision), so one
/// pattern's fp32 (bit-exact BatchedVitEngine) and int8 (calibrated
/// QuantizedVitEngine) engines coexist independently — a fleet can serve
/// some cameras at each tier. Traffic counters are kept per tier;
/// counters() sums them, counters(Precision) reads one tier.
///
/// Thread-safety: one mutex guards the LRU and the counters, so mid-run
/// readers (metrics snapshots) see consistent values. Entries are handed
/// out as shared_ptr, so an entry evicted mid-flight stays alive until its
/// last in-flight batch completes.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "ce/pattern.h"
#include "runtime/engine.h"
#include "runtime/precision.h"
#include "tensor/tensor.h"

namespace snappix::runtime {

/// \brief Cache residency bound: at most `capacity` entries, LRU-evicted.
struct EngineCacheConfig {
  std::size_t capacity = 32;
};

/// \brief Monotonic traffic counters.
struct EngineCacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

/// \brief One resident cache entry: everything a shard worker needs to serve
/// a pattern.
///
/// Frames arrive exposure-normalized: every camera adapter normalizes at the
/// edge with its pattern's ce::EncodeTable, and the framed MIPI transport
/// carries that normalized image. The server therefore keeps no normalizer.
struct ServingEntry {
  std::shared_ptr<const ce::CePattern> pattern;
  std::shared_ptr<VitEngine> engine;
  Precision precision = Precision::kFp32;
};

class EngineCache {
 public:
  /// \brief Builds the engine for a newly-resident (pattern, precision) pair
  /// (called under the cache's lock).
  using EngineFactory =
      std::function<std::shared_ptr<VitEngine>(const ce::CePattern&, Precision)>;

  EngineCache(const EngineCacheConfig& config, EngineFactory factory);

  /// \brief Returns the resident entry for (`pattern_id`, `precision`),
  /// building it from `pattern` on a miss and evicting the LRU entry beyond
  /// capacity.
  std::shared_ptr<const ServingEntry> resolve(
      std::uint64_t pattern_id, const std::shared_ptr<const ce::CePattern>& pattern,
      Precision precision = Precision::kFp32);

  /// \brief Traffic counters summed over both precision tiers.
  EngineCacheCounters counters() const;
  /// \brief Traffic counters for one precision tier.
  EngineCacheCounters counters(Precision precision) const;
  /// \brief Entries currently resident — never more than `capacity`.
  std::size_t resident() const;

  const EngineCacheConfig& config() const { return config_; }

 private:
  /// Composite residency key: one pattern may be resident once per tier.
  struct CacheKey {
    std::uint64_t pattern_id = 0;
    Precision precision = Precision::kFp32;
    bool operator==(const CacheKey& other) const {
      return pattern_id == other.pattern_id && precision == other.precision;
    }
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& key) const {
      // pattern_id is an FNV-1a hash, already well mixed; fold the tier in.
      return static_cast<std::size_t>(key.pattern_id ^
                                      (0x9E3779B97F4A7C15ULL *
                                       (static_cast<std::uint64_t>(key.precision) + 1)));
    }
  };
  using Lru = std::list<std::pair<CacheKey, std::shared_ptr<const ServingEntry>>>;

  EngineCacheConfig config_;
  EngineFactory factory_;
  mutable std::mutex mutex_;
  // Front = most recently used. The list owns the entries; the index maps
  // (pattern_id, precision) -> list node for O(1) touch.
  Lru lru_;
  std::unordered_map<CacheKey, Lru::iterator, CacheKeyHash> index_;
  // Indexed by Precision: [0] = kFp32, [1] = kInt8.
  EngineCacheCounters counters_[2];
};

}  // namespace snappix::runtime

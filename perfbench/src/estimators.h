// The benchmark's own estimators: how raw timestamps and counters become the
// reported metrics. Each one is exercised by selfcheck() on inputs with a
// known answer before any workload runs, so a broken estimator fails the run
// instead of printing a wrong number.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ce/pattern.h"

namespace perfbench {

// Linear-interpolated quantile of `values` at `q` in [0, 1] (the rule
// Python's statistics.quantiles uses with method="inclusive"). Throws on an
// empty input.
double quantile(std::vector<double> values, double q);

// Nearest-rank order statistic: the smallest value with at least `q` of the
// sample at or below it. Used for exact latency tails from per-frame values.
double nearest_rank(std::vector<double> values, double q);

// One served batch as the ServerConfig::before_batch hook saw it: when it
// started (seconds on the bench clock) and how many frames it carried.
struct BatchMark {
  double t = 0.0;
  int frames = 0;
};

// Served-frame rate samples of one shard inside [t0, t1]; `batches` must be
// in time order. Each sample covers `span` consecutive batches that start
// inside [t0, t1] (disjoint spans): their frames over the time from the
// first one's start to the start of the batch after them. Exact for a
// steady stream.
std::vector<double> span_rates(const std::vector<BatchMark>& batches, double t0, double t1,
                               std::size_t span);

// The e2e histogram's exact sum and count, read at time `t` (seconds on the
// bench clock).
struct HistogramRead {
  double t = 0.0;
  double sum = 0.0;
  std::uint64_t count = 0;
};

// Mean latency (ms) of the frames completed between each pair of
// consecutive reads inside [t0, t1]: their exact sum over their count.
std::vector<double> window_latencies_ms(const std::vector<HistogramRead>& reads, double t0,
                                        double t1);

// One camera's frame ledger for a run. Every offered frame ends in exactly
// one bucket, so offered == served + shed + wire_dropped + quarantined.
struct Tally {
  std::int64_t offered = 0;
  std::int64_t served = 0;
  std::int64_t shed = 0;
  std::int64_t wire_dropped = 0;
  std::int64_t quarantined = 0;

  bool balanced() const { return offered == served + shed + wire_dropped + quarantined; }
};

// Seeded search for a random CE pattern whose stable hash routes it to
// `shard` of `shards` (the server routes by pattern_id % shards). The same
// arguments always return the same pattern.
snappix::ce::CePattern pattern_for_shard(std::uint64_t seed, int shard, int shards, int slots,
                                         int tile);

// Runs every estimator above on inputs with known answers. Returns one line
// per failure; empty means all passed.
std::vector<std::string> selfcheck();

}  // namespace perfbench

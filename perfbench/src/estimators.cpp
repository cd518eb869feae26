#include "estimators.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/rng.h"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    throw std::invalid_argument("quantile of an empty sample");
  }
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double nearest_rank(std::vector<double> values, double q) {
  if (values.empty()) {
    throw std::invalid_argument("nearest_rank of an empty sample");
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::vector<double> span_rates(const std::vector<BatchMark>& batches, double t0, double t1,
                               std::size_t span) {
  std::vector<double> rates;
  auto it = std::lower_bound(batches.begin(), batches.end(), t0,
                             [](const BatchMark& b, double t) { return b.t < t; });
  const auto end = batches.end();
  while (span > 0 && end - it > static_cast<std::ptrdiff_t>(span) && (it + static_cast<std::ptrdiff_t>(span))->t <= t1) {
    const auto next = it + static_cast<std::ptrdiff_t>(span);
    std::int64_t frames = 0;
    for (auto b = it; b != next; ++b) {
      frames += b->frames;
    }
    if (next->t > it->t) {
      rates.push_back(static_cast<double>(frames) / (next->t - it->t));
    }
    it = next;
  }
  return rates;
}

std::vector<double> window_latencies_ms(const std::vector<HistogramRead>& reads, double t0,
                                        double t1) {
  std::vector<double> out;
  for (std::size_t j = 0; j + 1 < reads.size(); ++j) {
    const HistogramRead& a = reads[j];
    const HistogramRead& b = reads[j + 1];
    if (a.t >= t0 && b.t <= t1 && b.count > a.count) {
      out.push_back(1e3 * (b.sum - a.sum) / static_cast<double>(b.count - a.count));
    }
  }
  return out;
}

snappix::ce::CePattern pattern_for_shard(std::uint64_t seed, int shard, int shards, int slots,
                                         int tile) {
  if (shards < 1 || shard < 0 || shard >= shards) {
    throw std::invalid_argument("pattern_for_shard: shard out of range");
  }
  snappix::Rng rng(seed * 1000003ULL + static_cast<std::uint64_t>(shard));
  for (int attempt = 0; attempt < 4096; ++attempt) {
    snappix::ce::CePattern pattern = snappix::ce::CePattern::random(slots, tile, rng);
    if (pattern.hash() % static_cast<std::uint64_t>(shards) ==
        static_cast<std::uint64_t>(shard)) {
      return pattern;
    }
  }
  throw std::runtime_error("pattern_for_shard: no pattern routes to the shard");
}

std::vector<std::string> selfcheck() {
  std::vector<std::string> failures;
  const auto expect = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
    }
  };
  const auto near = [](double a, double b) { return std::fabs(a - b) <= 1e-9 * (1 + std::fabs(b)); };

  // Quantiles: the inclusive rule on 1..5 puts the quartiles on 2 and 4, and
  // interpolates between ranks; nearest rank never interpolates.
  expect(near(quantile({5, 1, 4, 2, 3}, 0.25), 2.0), "quantile q=0.25 of 1..5 != 2");
  expect(near(quantile({5, 1, 4, 2, 3}, 0.5), 3.0), "quantile median of 1..5 != 3");
  expect(near(quantile({1, 2}, 0.5), 1.5), "quantile does not interpolate");
  expect(near(quantile({7}, 0.9), 7.0), "quantile of one value");
  expect(near(nearest_rank({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9), 9.0), "nearest rank p90");
  expect(near(nearest_rank({3, 1, 2}, 0.999), 3.0), "nearest rank p99.9 of 3 values");

  // Rate samples: batches of 8 every 2 ms are 4000 frames/s per batch and
  // per span. Gaps alternating 2 and 6 ms give per-batch samples of 4000 and
  // 1333 and span samples of exactly 2000 (an even span holds both gaps
  // equally); nothing outside [t0, t1] is sampled.
  std::vector<BatchMark> steady, uneven;
  double t = 0.0;
  for (int i = 0; i < 1000; ++i) {
    steady.push_back({0.002 * i, 8});
    uneven.push_back({t, 8});
    t += i % 2 == 0 ? 0.002 : 0.006;
  }
  const std::vector<double> per_batch = span_rates(steady, 0.1, 0.3, 1);
  const std::vector<double> per_span = span_rates(steady, 0.1, 0.3, 16);
  expect(per_batch.size() == 100 && near(quantile(per_batch, 0.1), 4000.0) &&
             near(quantile(per_batch, 0.9), 4000.0),
         "per-batch rates of a steady stream");
  expect(per_span.size() == 6 && near(quantile(per_span, 0.0), 4000.0) &&
             near(quantile(per_span, 1.0), 4000.0),
         "16-batch span rates of a steady stream");
  expect(near(quantile(span_rates(uneven, 0.0, 1.0, 1), 0.9), 4000.0) &&
             near(quantile(span_rates(uneven, 0.0, 1.0, 1), 0.1), 4000.0 / 3.0),
         "per-batch rates of a two-speed stream");
  const std::vector<double> uneven_span = span_rates(uneven, 0.0, 1.0, 16);
  expect(!uneven_span.empty() && near(quantile(uneven_span, 0.0), 2000.0) &&
             near(quantile(uneven_span, 1.0), 2000.0),
         "span rates of a two-speed stream");
  expect(span_rates(steady, 0.3, 0.1, 1).empty() && span_rates(steady, 5.0, 6.0, 16).empty(),
         "rate samples outside the stream");

  // Latency windows: each window's mean is its frames' exact sum over their
  // count, whatever the window's length; reads outside [t0, t1] and empty
  // windows give no sample.
  {
    std::vector<HistogramRead> reads;
    double sum = 0.0;
    std::uint64_t count = 0;
    for (int step = 0; step < 10; ++step) {
      reads.push_back({0.01 * step, sum, count});
      const std::uint64_t add = step == 4 ? 0 : 5 + static_cast<std::uint64_t>(step % 3);
      sum += static_cast<double>(add) * (0.001 + 0.0005 * step);
      count += add;
    }
    const std::vector<double> lat = window_latencies_ms(reads, 0.0, 1.0);
    bool exact = lat.size() == 8;
    for (std::size_t k = 0; exact && k < lat.size(); ++k) {
      const int step = static_cast<int>(k < 4 ? k : k + 1);
      exact = near(lat[k], 1.0 + 0.5 * step);
    }
    expect(exact, "window latencies are not each window's exact mean");
    expect(window_latencies_ms(reads, 0.015, 0.055).size() == 2,
           "latency windows outside [t0, t1] are sampled");
  }

  // Conservation: one frame off in any bucket breaks the balance.
  Tally tally{100, 90, 4, 3, 3};
  expect(tally.balanced(), "balanced tally reported unbalanced");
  tally.served = 89;
  expect(!tally.balanced(), "tally one frame short reported balanced");
  tally.served = 91;
  expect(!tally.balanced(), "tally one frame over reported balanced");

  // Pattern search: the camera for shard s gets a pattern that routes to s,
  // deterministically, and the two cameras' patterns differ.
  for (const std::uint64_t seed : {1ULL, 2ULL, 77ULL}) {
    const auto p0 = pattern_for_shard(seed, 0, 2, 16, 8);
    const auto p1 = pattern_for_shard(seed, 1, 2, 16, 8);
    std::ostringstream tag;
    tag << " (seed " << seed << ")";
    expect(p0.hash() % 2 == 0 && p1.hash() % 2 == 1, "pattern routes to the wrong shard" + tag.str());
    expect(!(p0 == p1), "both cameras got the same pattern" + tag.str());
    expect(pattern_for_shard(seed, 1, 2, 16, 8) == p1, "pattern search is not deterministic" + tag.str());
  }
  return failures;
}

}  // namespace perfbench

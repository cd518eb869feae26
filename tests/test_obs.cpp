// Observability tests: the histogram percentile / empty-series contract, the
// metrics registry and its JSON + Prometheus exporters, the trace recorder's
// Chrome trace-event output, and the InferenceServer integration — sampled
// frames get complete lifecycles, tracing never changes a served bit,
// zero-frame summaries render valid JSON, the per-shard and per-camera
// series are live mid-run, and every exported metric name is documented.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ce/pattern.h"
#include "core/snappix.h"
#include "json_lite.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/camera.h"
#include "runtime/server.h"
#include "runtime/stats.h"
#include "serving_fixtures.h"
#include "transport/link.h"
#include "util/rng.h"

namespace snappix {
namespace {

namespace json = testing::json;
using fixtures::first_divergence;
using fixtures::small_scene;
using fixtures::small_system_config;
using runtime::InferenceServer;
using runtime::ServerConfig;
using runtime::Task;
using runtime::TaskResult;

// --- obs::Histogram ----------------------------------------------------------

TEST(ObsHistogram, EmptySeriesContract) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0U);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  for (const double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(h.percentile(p), 0.0) << "p" << p;
    EXPECT_TRUE(std::isfinite(h.percentile(p)));
  }
  const obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 0U);
  EXPECT_EQ(snap.min, 0.0);
  EXPECT_EQ(snap.max, 0.0);
  EXPECT_EQ(snap.p50, 0.0);
}

TEST(ObsHistogram, SingleSampleReportsItselfEverywhere) {
  obs::Histogram h;
  h.observe(0.0042);
  EXPECT_EQ(h.count(), 1U);
  EXPECT_NEAR(h.mean(), 0.0042, 1e-12);
  // With one sample the clamp to [min, max] pins every percentile to it.
  for (const double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_NEAR(h.percentile(p), 0.0042, 1e-12) << "p" << p;
  }
}

TEST(ObsHistogram, PercentilesInterpolateWithinTheRightBucket) {
  obs::Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.observe(static_cast<double>(i) * 1e-3);  // 1 ms .. 100 ms
  }
  // Rank 50 lands in the (20 ms, 50 ms] bucket, rank 99 in (50 ms, 100 ms].
  EXPECT_GT(h.percentile(50.0), 0.020);
  EXPECT_LE(h.percentile(50.0), 0.050 + 1e-12);
  EXPECT_GT(h.percentile(99.0), 0.050);
  EXPECT_LE(h.percentile(99.0), 0.100 + 1e-12);
  EXPECT_NEAR(h.mean(), 0.0505, 1e-12);
}

TEST(ObsHistogram, PercentileMonotoneAndClampedToObservedRange) {
  obs::Histogram h;
  for (const double v : {0.003, 0.0031, 0.0032, 0.07, 0.072}) {
    h.observe(v);
  }
  double prev = -1.0;
  for (double p = 0.0; p <= 100.0; p += 2.5) {
    const double q = h.percentile(p);
    EXPECT_GE(q, prev) << "percentile not monotone at p=" << p;
    EXPECT_GE(q, 0.003);
    EXPECT_LE(q, 0.072);
    prev = q;
  }
}

TEST(ObsHistogram, OverflowBucketCannotLeakInfinity) {
  obs::Histogram h;
  h.observe(99.0);  // beyond the 10 s top bound -> overflow bucket
  h.observe(150.0);
  for (const double p : {50.0, 95.0, 99.0, 100.0}) {
    EXPECT_TRUE(std::isfinite(h.percentile(p)));
    EXPECT_LE(h.percentile(p), 150.0);
  }
  EXPECT_NEAR(h.percentile(100.0), 150.0, 1e-9);
}

TEST(ObsHistogram, NonFiniteObservationsAreIgnored) {
  obs::Histogram h;
  h.observe(std::numeric_limits<double>::quiet_NaN());
  h.observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 0U);
  h.observe(0.5);
  EXPECT_EQ(h.count(), 1U);
  EXPECT_NEAR(h.percentile(50.0), 0.5, 1e-12);
}

// --- registry + exporters ----------------------------------------------------

TEST(MetricsRegistry, StableReferencesAndSnapshot) {
  obs::MetricsRegistry registry;
  obs::Counter& frames = registry.counter("frames_total");
  obs::Counter& again = registry.counter("frames_total");
  EXPECT_EQ(&frames, &again);  // create-on-first-use, stable thereafter

  frames.add(3);
  registry.gauge("depth").set_max(7.0);
  registry.gauge("depth").set_max(4.0);  // lower: must not regress the mark
  registry.histogram("lat_seconds").observe(0.002);

  const obs::MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1U);
  EXPECT_EQ(snap.counters[0].first, "frames_total");
  EXPECT_EQ(snap.counters[0].second, 3U);
  ASSERT_EQ(snap.gauges.size(), 1U);
  EXPECT_EQ(snap.gauges[0].second, 7.0);
  ASSERT_EQ(snap.histograms.size(), 1U);
  EXPECT_EQ(snap.histograms[0].name, "lat_seconds");
  EXPECT_EQ(snap.histograms[0].count, 1U);
}

TEST(MetricsExport, JsonParsesAndCarriesEveryMetric) {
  obs::MetricsRegistry registry;
  registry.counter("snappix_frames_total").add(42);
  registry.counter("snappix_batch_flush_total{reason=\"max_batch\"}").add(5);
  registry.gauge("snappix_queue_high_water").set(6.0);
  registry.histogram("snappix_e2e_seconds").observe(0.012);

  const std::string text = obs::to_json(registry.snapshot());
  const json::Value root = json::parse(text);  // throws on invalid JSON
  EXPECT_EQ(root.at("counters").at("snappix_frames_total").number, 42.0);
  EXPECT_EQ(root.at("counters")
                .at("snappix_batch_flush_total{reason=\"max_batch\"}")
                .number,
            5.0);
  EXPECT_EQ(root.at("gauges").at("snappix_queue_high_water").number, 6.0);
  const json::Value& hist = root.at("histograms").at("snappix_e2e_seconds");
  EXPECT_EQ(hist.at("count").number, 1.0);
  EXPECT_TRUE(hist.at("buckets").is_array());
  EXPECT_FALSE(hist.at("buckets").array.empty());
}

TEST(MetricsExport, EmptyRegistryAndEmptyHistogramRenderValidJson) {
  obs::MetricsRegistry registry;
  EXPECT_NO_THROW(json::parse(obs::to_json(registry.snapshot())));

  registry.histogram("untouched_seconds");  // zero observations
  const json::Value root = json::parse(obs::to_json(registry.snapshot()));
  const json::Value& hist = root.at("histograms").at("untouched_seconds");
  EXPECT_EQ(hist.at("count").number, 0.0);
  EXPECT_EQ(hist.at("p99").number, 0.0);  // empty-series contract, exported
}

TEST(MetricsExport, JsonNumberNeverEmitsNonFinite) {
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(obs::json_number(-std::numeric_limits<double>::infinity()), "0");
  EXPECT_NO_THROW(json::parse(obs::json_number(0.25)));
}

TEST(MetricsExport, PrometheusTextCarriesLabelsAndCumulativeBuckets) {
  obs::MetricsRegistry registry;
  registry.counter("snappix_batch_flush_total{reason=\"steal\"}").add(2);
  obs::Histogram& h = registry.histogram("snappix_e2e_seconds");
  h.observe(0.5e-6);  // below the first bound
  h.observe(0.012);

  const std::string text = obs::to_prometheus(registry.snapshot());
  EXPECT_NE(text.find("# TYPE snappix_batch_flush_total counter"), std::string::npos);
  EXPECT_NE(text.find("snappix_batch_flush_total{reason=\"steal\"} 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE snappix_e2e_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("snappix_e2e_seconds_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("snappix_e2e_seconds_count 2"), std::string::npos);
}

// --- zero-frame summaries ----------------------------------------------------

TEST(ZeroFrameRun, SummaryToStringAndJsonAreNanFree) {
  runtime::RuntimeStats stats;
  const runtime::RuntimeSummary summary = stats.summary(/*wall_seconds=*/0.0);
  EXPECT_EQ(summary.frames, 0U);
  EXPECT_EQ(summary.aggregate_fps, 0.0);
  EXPECT_EQ(summary.compression_ratio, 0.0);
  EXPECT_EQ(summary.end_to_end.p99_ms, 0.0);

  const std::string text = runtime::to_string(summary);
  EXPECT_EQ(text.find("nan"), std::string::npos);
  // Every "inf" in the block must be the "infer" stage label, never a
  // rendered non-finite value (which prints as "inf" or "-inf").
  for (std::size_t pos = text.find("inf"); pos != std::string::npos;
       pos = text.find("inf", pos + 1)) {
    EXPECT_EQ(text.compare(pos, 5, "infer"), 0)
        << "non-finite value rendered at offset " << pos;
  }
}

// --- RuntimeStats as a registry view -----------------------------------------

// Per-camera rows sort by numeric camera id: as label strings "10" sorts
// before "2".
TEST(RuntimeStatsView, PerCameraRowsSortByNumericCameraId) {
  runtime::RuntimeStats stats;
  for (const int camera : {10, 2}) {
    stats.add_camera(camera);
    stats.record_shed(camera, runtime::QosClass::kBestEffort, runtime::ShedReason::kQueueFull);
    stats.record_transport(camera, runtime::TransportStatus::kCrcError, /*retransmits=*/1,
                           /*codec=*/false, 0, 0);
    stats.record_quarantine_drop(camera);
  }
  const runtime::RuntimeSummary summary = stats.summary(1.0);
  const auto ids = [](const auto& rows) {
    std::vector<int> out;
    for (const auto& row : rows) {
      out.push_back(row.first);
    }
    return out;
  };
  EXPECT_EQ(ids(summary.shed_cameras), (std::vector<int>{2, 10}));
  EXPECT_EQ(ids(summary.transport_cameras), (std::vector<int>{2, 10}));
  EXPECT_EQ(ids(summary.health_cameras), (std::vector<int>{2, 10}));
  EXPECT_EQ(summary.shed_best_effort, 2U);
  EXPECT_EQ(summary.transport.crc_errors, 2U);
  EXPECT_EQ(summary.transport.dropped_frames, 2U);
  EXPECT_EQ(summary.transport.retransmits, 2U);
  EXPECT_EQ(summary.quarantine_drops, 2U);
}

// --- trace recorder ----------------------------------------------------------

TEST(TraceRecorder, SamplingFollowsSequenceModulo) {
  obs::TraceConfig config;
  config.enabled = true;
  config.sample_every = 4;
  obs::TraceRecorder recorder(config);
  EXPECT_TRUE(recorder.should_sample(0));
  EXPECT_FALSE(recorder.should_sample(1));
  EXPECT_TRUE(recorder.should_sample(8));

  config.sample_every = 0;  // enabled but sampling nothing (the overhead arm)
  obs::TraceRecorder unsampled(config);
  EXPECT_FALSE(unsampled.should_sample(0));
}

TEST(TraceRecorder, RejectsBadConfig) {
  obs::TraceConfig config;
  config.sample_every = -1;
  EXPECT_THROW(obs::TraceRecorder{config}, std::invalid_argument);
  config.sample_every = 1;
  config.max_events_per_lane = 0;
  EXPECT_THROW(obs::TraceRecorder{config}, std::invalid_argument);
}

TEST(TraceRecorder, ChromeJsonIsValidAndCarriesThreadNames) {
  obs::TraceConfig config;
  config.enabled = true;
  obs::TraceRecorder recorder(config);
  obs::TraceLane* lane = recorder.create_lane("shard 0");
  lane->add_complete("serve_batch", 1000, 500, "\"frames\": 3");
  lane->add_async_begin("frame", "frame", 0x200000001ULL, 100);
  lane->add_async_end("frame", "frame", 0x200000001ULL, 1600);

  const json::Value root = json::parse(recorder.chrome_json());
  EXPECT_EQ(root.at("displayTimeUnit").str, "ms");
  const json::Value& events = root.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.array.size(), 4U);  // 1 metadata + 3 events

  const json::Value& meta = events.array[0];
  EXPECT_EQ(meta.at("ph").str, "M");
  EXPECT_EQ(meta.at("args").at("name").str, "shard 0");

  bool saw_complete = false;
  bool saw_async_pair = false;
  int async_begin = 0;
  int async_end = 0;
  for (std::size_t i = 1; i < events.array.size(); ++i) {
    const json::Value& e = events.array[i];
    if (e.at("ph").str == "X") {
      saw_complete = true;
      EXPECT_EQ(e.at("name").str, "serve_batch");
      EXPECT_EQ(e.at("dur").number, 0.5);  // 500 ns = 0.5 us
      EXPECT_EQ(e.at("args").at("frames").number, 3.0);
    } else if (e.at("ph").str == "b") {
      ++async_begin;
      EXPECT_EQ(e.at("cat").str, "frame");
      EXPECT_EQ(e.at("id").str, "0x200000001");
    } else if (e.at("ph").str == "e") {
      ++async_end;
    }
  }
  saw_async_pair = async_begin == 1 && async_end == 1;
  EXPECT_TRUE(saw_complete);
  EXPECT_TRUE(saw_async_pair);
}

TEST(TraceRecorder, AllEventsSortedByTimestampAndLaneCapEnforced) {
  obs::TraceConfig config;
  config.enabled = true;
  config.max_events_per_lane = 4;
  obs::TraceRecorder recorder(config);
  obs::TraceLane* a = recorder.create_lane("a");
  obs::TraceLane* b = recorder.create_lane("b");
  a->add_complete("late", 900, 10, {});
  b->add_complete("early", 100, 10, {});
  a->add_complete("mid", 500, 10, {});
  for (int i = 0; i < 10; ++i) {
    a->add_complete("overflow", 1000 + i, 1, {});
  }

  const auto events = recorder.all_events();
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns) << "events not time-sorted";
  }
  EXPECT_EQ(a->size(), 4U);  // capped
  EXPECT_GT(recorder.dropped_events(), 0U);
}

TEST(ScopedSpan, NoOpWithoutLaneEmitsWithLane) {
  obs::TraceConfig config;
  config.enabled = true;
  obs::TraceRecorder recorder(config);
  obs::TraceLane* lane = recorder.create_lane("worker");

  { obs::ScopedSpan span("orphan"); }  // no TLS lane installed: must vanish
  EXPECT_EQ(lane->size(), 0U);

  {
    obs::ScopedTraceLane scope(&recorder, lane);
    obs::ScopedSpan span("encode");
  }
  ASSERT_EQ(lane->size(), 1U);
  EXPECT_EQ(obs::current_lane(), nullptr);  // TLS restored on scope exit

  const auto events = recorder.all_events();
  EXPECT_EQ(events[0].name, "encode");
  EXPECT_EQ(events[0].ph, 'X');
  EXPECT_GE(events[0].dur_ns, 0);
}

// --- server integration ------------------------------------------------------

std::vector<ce::CePattern> distinct_patterns(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ce::CePattern> patterns;
  for (int i = 0; i < n; ++i) {
    patterns.push_back(ce::CePattern::random(8, 8, rng, 0.5F));
  }
  return patterns;
}

// Deterministic 4-camera AR+REC fleet; identical across calls with the same
// seeds, so traced and untraced runs see identical inputs.
void add_fleet(InferenceServer& server, const std::vector<ce::CePattern>& patterns) {
  for (int cam = 0; cam < static_cast<int>(patterns.size()); ++cam) {
    auto camera = std::make_unique<runtime::SyntheticCameraSource>(
        cam, small_scene(), patterns[static_cast<std::size_t>(cam)],
        700 + static_cast<std::uint64_t>(cam));
    if (cam % 2 == 1) {
      camera->set_task(Task::kReconstruct);
    }
    server.add_camera(std::move(camera));
  }
}

TEST(ServerTracing, SampledFramesGetCompleteLifecyclesAndBitsDontChange) {
  core::SnapPixSystem system(small_system_config());
  const auto patterns = distinct_patterns(4, 19);
  const std::int64_t frames_per_camera = 6;

  const auto run_fleet = [&](bool traced, int sample_every) {
    ServerConfig config;
    config.batch.max_batch = 4;
    config.shards = 2;
    config.trace.enabled = traced;
    config.trace.sample_every = sample_every;
    auto server = std::make_unique<InferenceServer>(system, config);
    add_fleet(*server, patterns);
    auto results = server->run(frames_per_camera);
    return std::make_pair(std::move(results), std::move(server));
  };

  const auto [untraced, untraced_server] = run_fleet(false, 1);
  ASSERT_EQ(untraced.size(), 24U);
  EXPECT_EQ(untraced_server->trace_recorder(), nullptr);
  EXPECT_THROW(untraced_server->trace_json(), std::runtime_error);

  const auto [traced, server] = run_fleet(true, 1);
  EXPECT_EQ(first_divergence(untraced, traced), "");

  // Every served frame was sampled (1-in-1): each must have a COMPLETE
  // lifecycle — matching b/e "frame" events plus every nested stage pair.
  const obs::TraceRecorder* recorder = server->trace_recorder();
  ASSERT_NE(recorder, nullptr);
  EXPECT_EQ(recorder->dropped_events(), 0U);

  std::map<std::uint64_t, std::map<std::string, std::pair<int, int>>> lifecycle;
  std::int64_t prev_ts = std::numeric_limits<std::int64_t>::min();
  for (const obs::TraceEvent& e : recorder->all_events()) {
    EXPECT_GE(e.ts_ns, prev_ts) << "all_events() not sorted";
    prev_ts = e.ts_ns;
    if (e.cat == "frame") {
      auto& pair = lifecycle[e.id][e.name];
      (e.ph == 'b' ? pair.first : pair.second) += 1;
    }
  }
  ASSERT_EQ(lifecycle.size(), 24U) << "one async track per served frame";
  for (const TaskResult& result : traced) {
    const std::uint64_t id =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(result.camera_id)) << 32) |
        static_cast<std::uint64_t>(result.sequence & 0xFFFFFFFF);
    ASSERT_TRUE(lifecycle.count(id))
        << "no lifecycle for camera " << result.camera_id << " seq " << result.sequence;
    const auto& spans = lifecycle.at(id);
    for (const char* name : {"frame", "capture", "queue_wait", "batch_assembly", "infer"}) {
      ASSERT_TRUE(spans.count(name)) << "missing span " << name;
      EXPECT_EQ(spans.at(name).first, 1) << name << " begins";
      EXPECT_EQ(spans.at(name).second, 1) << name << " ends";
    }
  }

  // Per-batch and engine-stage spans landed too, and the export is valid
  // Chrome trace JSON.
  std::set<std::string> complete_names;
  for (const obs::TraceEvent& e : recorder->all_events()) {
    if (e.ph == 'X') {
      complete_names.insert(e.name);
    }
  }
  EXPECT_TRUE(complete_names.count("serve_batch"));
  EXPECT_TRUE(complete_names.count("cache_resolve"));
  EXPECT_TRUE(complete_names.count("encode"));
  const json::Value root = json::parse(server->trace_json());
  EXPECT_FALSE(root.at("traceEvents").array.empty());

  // Metrics surfaced through the same run: counters match the run shape and
  // flush reasons partition the batches.
  const obs::MetricsSnapshot snap = server->metrics_snapshot();
  std::uint64_t frames_total = 0;
  std::uint64_t flush_total = 0;
  std::uint64_t batches_total = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name == "snappix_frames_total") {
      frames_total = value;
    } else if (name == "snappix_batches_total") {
      batches_total = value;
    } else if (name.rfind("snappix_batch_flush_total", 0) == 0) {
      flush_total += value;
    }
  }
  EXPECT_EQ(frames_total, 24U);
  EXPECT_GT(batches_total, 0U);
  EXPECT_EQ(flush_total, batches_total);

  const runtime::RuntimeSummary summary = server->summary();
  EXPECT_EQ(summary.flush_max_batch + summary.flush_max_latency + summary.flush_drained +
                summary.flush_exhausted + summary.flush_holdback + summary.flush_steal,
            summary.batches);
  EXPECT_EQ(summary.flush_steal, summary.steal_successes);
}

TEST(ServerTracing, OneInNSamplingTracesOnlyMatchingSequences) {
  core::SnapPixSystem system(small_system_config());
  const auto patterns = distinct_patterns(2, 47);

  ServerConfig config;
  config.batch.max_batch = 2;
  config.trace.enabled = true;
  config.trace.sample_every = 4;
  InferenceServer server(system, config);
  add_fleet(server, patterns);
  const auto results = server.run(8);
  ASSERT_EQ(results.size(), 16U);

  std::set<std::uint64_t> lifecycle_ids;
  for (const obs::TraceEvent& e : server.trace_recorder()->all_events()) {
    if (e.cat == "frame") {
      lifecycle_ids.insert(e.id);
    }
  }
  // 8 frames per camera, 1-in-4: sequences 0 and 4 of each camera.
  EXPECT_EQ(lifecycle_ids.size(), 4U);
  for (const std::uint64_t id : lifecycle_ids) {
    EXPECT_EQ((id & 0xFFFFFFFFULL) % 4, 0U) << "unsampled sequence traced";
  }
}

TEST(ServerTracing, MetricsSnapshotRendersBothExportFormats) {
  core::SnapPixSystem system(small_system_config());
  const auto patterns = distinct_patterns(2, 53);

  ServerConfig config;
  config.batch.max_batch = 2;
  InferenceServer server(system, config);
  add_fleet(server, patterns);
  server.run(4);

  const obs::MetricsSnapshot snap = server.metrics_snapshot();
  EXPECT_NO_THROW(json::parse(obs::to_json(snap)));
  const std::string prom = obs::to_prometheus(snap);
  EXPECT_NE(prom.find("snappix_frames_total 8"), std::string::npos);
  EXPECT_NE(prom.find("snappix_e2e_seconds_bucket"), std::string::npos);
}

// --- live metrics and the documented schema ----------------------------------

// The value of series `name` (a counter or a gauge) in `snap`; nullopt when
// the snapshot lacks it.
std::optional<double> series_value(const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [series, value] : snap.counters) {
    if (series == name) {
      return static_cast<double>(value);
    }
  }
  for (const auto& [series, value] : snap.gauges) {
    if (series == name) {
      return value;
    }
  }
  return std::nullopt;
}

// A snapshot taken mid-run, from inside a shard worker, already carries the
// queue high water, every shard's steal series and the framed camera's
// transport series: each is recorded (or read from its ledger) live, not
// installed after the workers join.
TEST(LiveMetrics, MidRunSnapshotCarriesQueueShardAndCameraSeries) {
  core::SnapPixSystem system(small_system_config());
  const auto patterns = distinct_patterns(2, 61);
  const InferenceServer* server_ptr = nullptr;
  std::uint64_t framed_pattern = 0;
  // order: relaxed — only picks the one worker call that takes the snapshot;
  // run()'s join publishes `live` to the test thread.
  std::atomic<int> framed_batches{0};
  obs::MetricsSnapshot live;

  ServerConfig config;
  config.batch.max_batch = 2;
  config.shards = 2;
  config.before_batch = [&](std::size_t, const runtime::BatchKey& key, std::size_t) {
    if (key.pattern_id == framed_pattern &&
        framed_batches.fetch_add(1, std::memory_order_relaxed) == 2) {
      live = server_ptr->metrics_snapshot();
    }
  };
  InferenceServer server(system, config);
  server_ptr = &server;
  for (int cam = 0; cam < 2; ++cam) {
    auto camera = std::make_unique<runtime::SyntheticCameraSource>(
        cam, small_scene(), patterns[static_cast<std::size_t>(cam)],
        800 + static_cast<std::uint64_t>(cam));
    if (cam == 0) {
      camera->set_framed(transport::LinkConfig{});
      framed_pattern = camera->pattern_id();
    }
    server.add_camera(std::move(camera));
  }
  ASSERT_EQ(server.run(12).size(), 24U);
  ASSERT_FALSE(live.counters.empty()) << "the framed camera's third batch never ran";

  double high_water = 0.0;
  for (const std::string shard : {"0", "1"}) {
    const auto depth = series_value(live, "snappix_queue_high_water{shard=\"" + shard + "\"}");
    ASSERT_TRUE(depth.has_value()) << "shard " << shard;
    high_water = std::max(high_water, *depth);
    EXPECT_TRUE(
        series_value(live, "snappix_steal_attempts_total{shard=\"" + shard + "\"}").has_value())
        << "shard " << shard;
  }
  EXPECT_GT(high_water, 0.0);  // a frame was queued before any batch ran
  // The frames of the two batches already served and of the one about to be
  // crossed the link before they were queued.
  const auto shipped = series_value(
      live, "snappix_transport_frames_total{camera=\"0\",outcome=\"framed_ok\"}");
  ASSERT_TRUE(shipped.has_value());
  EXPECT_GE(*shipped, 3.0);
}

// `base{k="v",...}` reduced to the schema key `base{k,...}`.
std::string schema_key(const std::string& name) {
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos) {
    return name;
  }
  std::string out = name.substr(0, brace + 1);
  for (std::size_t key = brace + 1;;) {
    const std::size_t eq = name.find('=', key);
    out += name.substr(key, eq - key);
    const std::size_t close = name.find('"', eq + 2);  // the value's closing quote
    if (name[close + 1] == '}') {
      return out + "}";
    }
    out += ",";
    key = close + 2;
  }
}

// The first column of the "Metric names" table in docs/observability.md.
std::set<std::string> documented_metric_names() {
  std::ifstream doc(std::string(SNAPPIX_SOURCE_DIR) + "/docs/observability.md");
  std::set<std::string> names;
  bool in_table = false;
  for (std::string line; std::getline(doc, line);) {
    if (line.rfind("### ", 0) == 0) {
      in_table = line == "### Metric names";
    } else if (in_table && line.rfind("| `", 0) == 0) {
      names.insert(line.substr(3, line.find('`', 3) - 3));
    }
  }
  return names;
}

// Every series a full-feature fleet exports is in the documented table, and
// every documented name is exported: stealing shards, a lossy entropy-coded
// link under retransmit, health supervision with the watchdog, a best-effort
// camera on a tight queue, a deadline camera and an int8 camera.
TEST(MetricSchema, FullFeatureFleetExportsExactlyTheDocumentedNames) {
  core::SnapPixSystem system(small_system_config());
  const auto patterns = distinct_patterns(4, 67);
  ServerConfig config;
  config.batch.max_batch = 2;
  config.shards = 2;
  config.queue_capacity = 2;
  config.transport.corrupt = runtime::TransportPolicy::Corrupt::kRetransmit;
  config.transport.max_retransmits = 4;
  config.health.enabled = true;
  config.health.watchdog.enabled = true;
  config.health.watchdog.poll = std::chrono::milliseconds(5);
  InferenceServer server(system, config);
  for (int cam = 0; cam < 4; ++cam) {
    auto camera = std::make_unique<runtime::SyntheticCameraSource>(
        cam, small_scene(), patterns[static_cast<std::size_t>(cam)],
        900 + static_cast<std::uint64_t>(cam));
    if (cam == 0) {
      transport::LinkConfig link;
      link.codec = true;
      link.faults.packet_drop_rate = 0.05;
      link.faults.seed = 31;
      camera->set_framed(link);
    } else if (cam == 1) {
      camera->set_qos(runtime::QosClass::kBestEffort);
    } else if (cam == 2) {
      camera->set_deadline_budget(std::chrono::milliseconds(50));
    } else {
      camera->set_precision(runtime::Precision::kInt8);
    }
    server.add_camera(std::move(camera));
  }
  server.run(12);
  const runtime::RuntimeSummary summary = server.summary();
  EXPECT_GT(summary.transport.retransmits, 0U) << "the lossy link never dropped a packet";
  EXPECT_GT(summary.int8_frames, 0U);

  std::set<std::string> exported;
  const obs::MetricsSnapshot snap = server.metrics_snapshot();
  for (const auto& [name, value] : snap.counters) {
    exported.insert(schema_key(name));
  }
  for (const auto& [name, value] : snap.gauges) {
    exported.insert(schema_key(name));
  }
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    exported.insert(schema_key(h.name));
  }
  const std::set<std::string> documented = documented_metric_names();
  ASSERT_FALSE(documented.empty()) << "no \"### Metric names\" table in docs/observability.md";
  for (const std::string& name : exported) {
    EXPECT_TRUE(documented.count(name)) << name << " is exported but not documented";
  }
  for (const std::string& name : documented) {
    EXPECT_TRUE(exported.count(name)) << name << " is documented but never exported";
  }
}

}  // namespace
}  // namespace snappix

// Race-hunting stress suite (docs/static-analysis.md). Every test here runs
// many threads over tiny capacities to force the interleavings the unit
// tests never hit: steal/close/shutdown collisions on FrameQueue, snapshot
// readers racing metric writers, EngineCache miss storms across precision
// tiers, trace export racing lane writers, and scheduler teardown mid-batch.
// The suite is part of the regular ctest run AND the whole point of the
// sanitizer CI jobs: a pass under -DSNAPPIX_SANITIZE=thread is the repo's
// "TSan-clean" invariant (docs/architecture.md), so every assertion below is
// written to hold under arbitrary interleavings — conservation laws and
// monotonicity, not timing assumptions. Thread/iteration counts are sized so
// the TSan run (≈10x slowdown, possibly one core) stays in seconds.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ce/pattern.h"
#include "chaos.h"
#include "core/snappix.h"
#include "json_lite.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/camera.h"
#include "runtime/engine.h"
#include "runtime/engine_cache.h"
#include "runtime/frame_queue.h"
#include "runtime/health.h"
#include "runtime/scheduler.h"
#include "runtime/server.h"
#include "runtime/stats.h"
#include "serving_fixtures.h"
#include "transport/link.h"
#include "util/rng.h"

namespace snappix {
namespace {

namespace json = testing::json;

using fixtures::small_scene;
using fixtures::small_system_config;
using runtime::EngineCache;
using runtime::EngineCacheConfig;
using runtime::Frame;
using runtime::FrameQueue;
using runtime::InferenceServer;
using runtime::PatternRef;
using runtime::Precision;
using runtime::PushResult;
using runtime::ServerConfig;

Frame tiny_frame(int camera, std::int64_t sequence) {
  Frame frame;
  frame.camera_id = camera;
  frame.sequence = sequence;
  frame.coded = Tensor::full(Shape{2, 2}, static_cast<float>(sequence));
  return frame;
}

// --- FrameQueue: producers vs consumers vs a thief on a tiny queue -----------

TEST(FrameQueueStress, ProducersConsumersAndThiefConserveEveryFrame) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 2;
  constexpr std::int64_t kFramesEach = 200;
  FrameQueue queue(2);  // tiny: every push fights for capacity

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (std::int64_t i = 0; i < kFramesEach; ++i) {
        // Nobody closes mid-stream.
        ASSERT_EQ(queue.admit(tiny_frame(p, i)), PushResult::kAccepted);
      }
    });
  }

  std::mutex seen_mutex;
  std::vector<std::pair<int, std::int64_t>> seen;
  auto record = [&seen_mutex, &seen](const std::vector<Frame>& frames) {
    std::lock_guard<std::mutex> lock(seen_mutex);
    for (const Frame& f : frames) {
      seen.emplace_back(f.camera_id, f.sequence);
    }
  };

  std::vector<std::thread> consumers;
  consumers.reserve(kConsumers + 1);
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&queue, &record] {
      std::vector<Frame> local;
      Frame out;
      while (queue.pop(out)) {
        local.push_back(out);
      }
      record(local);
    });
  }
  // The thief steals key-pure tail runs until the queue can yield no more.
  consumers.emplace_back([&queue, &record] {
    std::vector<Frame> batch;
    while (!queue.exhausted()) {
      if (queue.steal_tail(batch, 3)) {
        record(batch);
      } else {
        std::this_thread::yield();
      }
    }
  });

  for (auto& t : producers) {
    t.join();
  }
  queue.close();
  for (auto& t : consumers) {
    t.join();
  }

  // Conservation: every (camera, sequence) surfaced exactly once.
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kProducers) * kFramesEach);
  std::set<std::pair<int, std::int64_t>> unique(seen.begin(), seen.end());
  EXPECT_EQ(unique.size(), seen.size());
  EXPECT_EQ(queue.total_pushed(),
            static_cast<std::uint64_t>(kProducers) * kFramesEach);
  EXPECT_TRUE(queue.exhausted());
}

TEST(FrameQueueStress, CloseRacingPushPopStealNeverLosesAnAcceptedFrame) {
  // Many short rounds so close() lands at a different interleaving each time:
  // mid-push (producer blocked on the full queue), mid-pop, mid-steal.
  for (int round = 0; round < 25; ++round) {
    FrameQueue queue(1);
    std::atomic<std::int64_t> accepted{0};  // order: relaxed tally, read after joins
    std::atomic<std::int64_t> surfaced{0};  // order: relaxed tally, read after joins

    std::thread producer([&queue, &accepted] {
      for (std::int64_t i = 0; i < 60; ++i) {
        const PushResult result = queue.admit(tiny_frame(0, i));
        if (result != PushResult::kAccepted) {
          EXPECT_EQ(result, PushResult::kClosed);  // closed under us: the rest fail too
          break;
        }
        accepted.fetch_add(1, std::memory_order_relaxed);
      }
    });
    std::thread consumer([&queue, &surfaced] {
      Frame out;
      while (queue.pop(out)) {
        surfaced.fetch_add(1, std::memory_order_relaxed);
      }
    });
    std::thread thief([&queue, &surfaced] {
      std::vector<Frame> batch;
      while (!queue.exhausted()) {
        if (queue.steal_tail(batch, 2)) {
          surfaced.fetch_add(static_cast<std::int64_t>(batch.size()),
                             std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
    std::thread closer([&queue, round] {
      // Vary the close point: immediately, after a yield, after a sleep.
      if (round % 3 == 1) {
        std::this_thread::yield();
      } else if (round % 3 == 2) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      queue.close();
    });

    producer.join();
    consumer.join();
    thief.join();
    closer.join();

    // close() drains rather than drops: every accepted frame surfaced through
    // pop or steal, no frame surfaced twice.
    EXPECT_EQ(surfaced.load(std::memory_order_relaxed),
              accepted.load(std::memory_order_relaxed))
        << "round " << round;
    EXPECT_TRUE(queue.exhausted());
  }
}

// --- metrics: snapshot readers racing lock-free writers ----------------------

TEST(MetricsStress, SnapshotsRacingObserversStaySaneAndEndExact) {
  obs::MetricsRegistry registry;
  obs::Histogram& hist = registry.histogram("stress_latency_seconds");
  obs::Counter& counter = registry.counter("stress_events_total");
  obs::Gauge& gauge = registry.gauge("stress_depth");

  constexpr int kWriters = 3;
  constexpr int kObservationsEach = 4000;
  // Deterministic value stream with known extremes: writer w observes
  // (w + 1) * 1e-5 .. (w + 1) * 1e-5 * kObservationsEach.
  const double expected_min = 1e-5;
  const double expected_max = 1e-5 * kWriters * kObservationsEach;

  std::atomic<bool> writing{true};  // order: start/stop flag for the reader loop only
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&hist, &counter, &gauge, w] {
      for (int i = 1; i <= kObservationsEach; ++i) {
        hist.observe((w + 1) * 1e-5 * i);
        counter.add(1);
        gauge.set(static_cast<double>(i));
      }
    });
  }

  std::thread reader([&registry, &writing, expected_max] {
    std::uint64_t last_count = 0;
    while (writing.load(std::memory_order_relaxed)) {
      const obs::MetricsSnapshot snap = registry.snapshot();
      ASSERT_EQ(snap.histograms.size(), 1U);
      const obs::HistogramSnapshot& h = snap.histograms.front();
      // Mid-run invariants: monotone count, finite sane statistics, ordered
      // percentiles. (Exactness only holds after the writers join.)
      EXPECT_GE(h.count, last_count);
      last_count = h.count;
      EXPECT_TRUE(std::isfinite(h.sum));
      EXPECT_TRUE(std::isfinite(h.min));
      EXPECT_TRUE(std::isfinite(h.max));
      if (h.count > 0) {
        EXPECT_LE(h.min, h.max);
        EXPECT_GT(h.max, 0.0);
        EXPECT_LE(h.max, expected_max);
      }
      EXPECT_LE(h.p50, h.p95);
      EXPECT_LE(h.p95, h.p99);
      std::this_thread::yield();
    }
  });

  for (auto& t : writers) {
    t.join();
  }
  writing.store(false, std::memory_order_relaxed);
  reader.join();

  // Quiescent snapshot is exact — in particular min/max, whose CAS-fold
  // protocol this test exists to pin (a lost first-observer fold shows up
  // here as a wrong extreme).
  const obs::MetricsSnapshot final_snap = registry.snapshot();
  const obs::HistogramSnapshot& h = final_snap.histograms.front();
  EXPECT_EQ(h.count, static_cast<std::uint64_t>(kWriters) * kObservationsEach);
  EXPECT_DOUBLE_EQ(h.min, expected_min);
  EXPECT_DOUBLE_EQ(h.max, expected_max);
  ASSERT_EQ(final_snap.counters.size(), 1U);
  EXPECT_EQ(final_snap.counters.front().second,
            static_cast<std::uint64_t>(kWriters) * kObservationsEach);
}

// The end-to-end version of the same contract, through the server: snapshots
// taken MID-SERVE always render to valid JSON (json_lite is a strict parser:
// bare nan/inf, trailing commas, and torn syntax all throw) and every
// monotone statistic is <= its value in a quiescent post-run snapshot.
TEST(MetricsStress, MidServeJsonSnapshotsParseAndAreMonotoneVsFinal) {
  core::SnapPixSystem system(small_system_config());
  ServerConfig config;
  config.batch.max_batch = 4;
  config.shards = 2;
  config.queue_capacity = 4;  // small: keeps producers and workers overlapping
  InferenceServer server(system, config);
  for (int cam = 0; cam < 4; ++cam) {
    server.add_camera(std::make_unique<runtime::SyntheticCameraSource>(
        cam, small_scene(), system.pattern_ref(),
        900 + static_cast<std::uint64_t>(cam)));
  }

  std::atomic<bool> done{false};  // order: run-finished flag for the sampler loop only
  std::vector<obs::MetricsSnapshot> mid_snaps;
  std::thread sampler([&server, &done, &mid_snaps] {
    while (!done.load(std::memory_order_relaxed)) {
      obs::MetricsSnapshot snap = server.metrics_snapshot();
      const std::string json = obs::to_json(snap);
      EXPECT_NO_THROW(json::Parser(json).parse()) << json;
      mid_snaps.push_back(std::move(snap));
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  const std::vector<runtime::TaskResult> results = server.run(24);
  done.store(true, std::memory_order_relaxed);
  sampler.join();
  EXPECT_EQ(results.size(), 4U * 24U);

  const obs::MetricsSnapshot final_snap = server.metrics_snapshot();
  EXPECT_NO_THROW(json::Parser(obs::to_json(final_snap)).parse());
  auto counter_value = [](const obs::MetricsSnapshot& snap, const std::string& name) {
    for (const auto& entry : snap.counters) {
      if (entry.first == name) {
        return entry.second;
      }
    }
    return std::uint64_t{0};
  };
  for (const obs::MetricsSnapshot& snap : mid_snaps) {
    for (const auto& entry : snap.counters) {
      EXPECT_LE(entry.second, counter_value(final_snap, entry.first)) << entry.first;
    }
    for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
      EXPECT_LE(snap.histograms[i].count, final_snap.histograms[i].count)
          << snap.histograms[i].name;
    }
  }
  // The sampler genuinely overlapped the run (non-vacuous): the LAST mid-run
  // sample must postdate the first serve. With 96 frames and a 300 us sample
  // period this never fires spuriously.
  ASSERT_FALSE(mid_snaps.empty());
  EXPECT_GT(counter_value(final_snap, "snappix_frames_total"), 0U);
}

// --- EngineCache: miss storm on one pattern across precision tiers -----------

TEST(EngineCacheStress, MissStormOnOnePatternAcrossTiersStaysConsistent) {
  // Real 16x16 engines at batch 1, cheap enough to build on every miss. The
  // int8 tier needs a spec of the model's depth; its scales do not matter,
  // since nothing is served.
  core::SnapPixSystem system(small_system_config());
  runtime::QuantSpec spec;
  spec.blocks.resize(static_cast<std::size_t>(system.classifier()->encoder()->config().depth));
  EngineCacheConfig config;
  config.capacity = 1;  // fp32 and int8 entries evict each other
  std::atomic<std::uint64_t> builds{0};  // order: relaxed tally, read after joins
  EngineCache cache(config, [&](const ce::CePattern&,
                                Precision precision) -> std::shared_ptr<runtime::VitEngine> {
    builds.fetch_add(1, std::memory_order_relaxed);
    if (precision == Precision::kFp32) {
      return std::make_shared<runtime::BatchedVitEngine>(*system.classifier(),
                                                         *system.reconstructor(), 1);
    }
    return std::make_shared<runtime::QuantizedVitEngine>(*system.classifier(),
                                                         *system.reconstructor(), spec, 1);
  });

  Rng rng(17);
  const PatternRef pattern =
      runtime::make_pattern_ref(ce::CePattern::random(8, 8, rng, 0.5F));
  const std::uint64_t id = pattern->hash();

  constexpr int kThreads = 6;
  constexpr int kResolvesEach = 250;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &pattern, id, t] {
      for (int i = 0; i < kResolvesEach; ++i) {
        // Alternating tiers, offset per thread, so both tiers are always in
        // flight and capacity 1 turns every other resolve into an eviction.
        const Precision tier =
            ((i + t) % 2 == 0) ? Precision::kFp32 : Precision::kInt8;
        const auto entry = cache.resolve(id, pattern, tier);
        ASSERT_NE(entry, nullptr);
        EXPECT_EQ(entry->precision, tier);
        ASSERT_NE(entry->engine, nullptr);
        EXPECT_EQ(entry->engine->precision(), tier);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }

  const auto totals = cache.counters();
  EXPECT_EQ(totals.hits + totals.misses,
            static_cast<std::uint64_t>(kThreads) * kResolvesEach);
  EXPECT_EQ(totals.misses, builds.load(std::memory_order_relaxed));
  EXPECT_GE(totals.misses, 2U);  // both tiers built at least once
  EXPECT_LE(cache.resident(), config.capacity);
  // Per-tier counters partition the totals.
  const auto fp32 = cache.counters(Precision::kFp32);
  const auto int8 = cache.counters(Precision::kInt8);
  EXPECT_EQ(fp32.hits + int8.hits, totals.hits);
  EXPECT_EQ(fp32.misses + int8.misses, totals.misses);
}

// --- trace: export racing lane writers ---------------------------------------

TEST(TraceExportRaces, LaneWritersWhileExportingSeeConsistentPrefixes) {
  obs::TraceConfig config;
  config.enabled = true;
  // Crosses two chunk boundaries (kChunkEvents = 1024) AND overflows, so the
  // race covers lazy chunk materialization and the dropped counter.
  config.max_events_per_lane = 2500;
  obs::TraceRecorder recorder(config);

  constexpr int kLanes = 3;
  constexpr int kEventsEach = 3000;  // 500 past capacity per lane
  std::vector<obs::TraceLane*> lanes;
  lanes.reserve(kLanes);
  for (int i = 0; i < kLanes; ++i) {
    lanes.push_back(recorder.create_lane("writer-" + std::to_string(i)));
  }

  std::atomic<bool> writing{true};  // order: start/stop flag for readers only
  std::vector<std::thread> writers;
  writers.reserve(kLanes);
  for (int w = 0; w < kLanes; ++w) {
    writers.emplace_back([lane = lanes[static_cast<std::size_t>(w)], w] {
      for (int i = 0; i < kEventsEach; ++i) {
        lane->add_complete("span-" + std::to_string(w), /*ts_ns=*/i + 1,
                           /*dur_ns=*/1);
      }
    });
  }

  std::vector<std::thread> readers;
  readers.reserve(2);
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&recorder, &writing] {
      while (writing.load(std::memory_order_relaxed)) {
        // all_events() must observe a consistent prefix of every lane: fully
        // written names and the per-lane monotone timestamps we wrote.
        const std::vector<obs::TraceEvent> events = recorder.all_events();
        std::vector<std::int64_t> last_ts(kLanes, 0);
        for (const obs::TraceEvent& event : events) {
          ASSERT_LT(event.tid, static_cast<std::uint64_t>(kLanes));
          ASSERT_EQ(event.name, "span-" + std::to_string(event.tid));
          EXPECT_GT(event.ts_ns, last_ts[event.tid]);
          last_ts[event.tid] = event.ts_ns;
        }
        (void)recorder.dropped_events();
        std::this_thread::yield();
      }
    });
  }
  // One more reader hammers the full JSON export path mid-write; the strict
  // parser turns any torn emission into a test failure.
  std::thread json_reader([&recorder, &writing] {
    while (writing.load(std::memory_order_relaxed)) {
      EXPECT_NO_THROW(json::Parser(recorder.chrome_json()).parse());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (auto& t : writers) {
    t.join();
  }
  writing.store(false, std::memory_order_relaxed);
  for (auto& t : readers) {
    t.join();
  }
  json_reader.join();

  // Quiescent totals are exact: capacity kept, overflow counted.
  EXPECT_EQ(recorder.all_events().size(),
            static_cast<std::size_t>(kLanes) * config.max_events_per_lane);
  EXPECT_EQ(recorder.dropped_events(),
            static_cast<std::size_t>(kLanes) *
                (kEventsEach - config.max_events_per_lane));
}

// --- scheduler: teardown with producers mid-push -----------------------------

TEST(SchedulerStress, ExternalCloseMidStreamUnblocksProducersAndTearsDown) {
  runtime::RuntimeStats stats;
  FrameQueue queue_a(2);
  FrameQueue queue_b(2);
  {
    runtime::StreamScheduler scheduler(stats);
    Rng rng(23);
    const PatternRef pattern =
        runtime::make_pattern_ref(ce::CePattern::random(8, 8, rng, 0.5F));
    scheduler.add_camera(std::make_unique<runtime::SyntheticCameraSource>(
                             0, small_scene(), pattern, 101),
                         queue_a);
    scheduler.add_camera(std::make_unique<runtime::SyntheticCameraSource>(
                             1, small_scene(), pattern, 102),
                         queue_b);

    // A stream far longer than the consumers will drain: both producers are
    // guaranteed to be blocked in admit() when the close lands.
    scheduler.start(10'000);

    Frame out;
    std::size_t popped = 0;
    for (int i = 0; i < 6; ++i) {
      if (queue_a.pop(out)) {
        ++popped;
      }
      if (queue_b.pop(out)) {
        ++popped;
      }
    }
    EXPECT_GT(popped, 0U);

    queue_a.close();
    queue_b.close();
    scheduler.join();  // must return: blocked pushes observe the close
    // scheduler destructor runs here, with frames still queued — teardown
    // mid-batch must not touch the (external) queues again.
  }
  EXPECT_TRUE(queue_a.closed());
  EXPECT_TRUE(queue_b.closed());
  // Drain whatever the close stranded; both queues then report exhausted.
  Frame out;
  while (queue_a.pop(out)) {
  }
  while (queue_b.pop(out)) {
  }
  EXPECT_TRUE(queue_a.exhausted());
  EXPECT_TRUE(queue_b.exhausted());
}

// --- server: full sharded run under a tiny queue, repeated -------------------

// End-to-end interleaving torture: 2 shards + stealing + tracing + a tiny
// queue capacity, repeated so shard workers, thieves, producers, and the
// trace/metrics readers above all collide differently each round. The
// assertion is the serving contract itself: result count and determinism.
TEST(ServerStress, RepeatedShardedStealingRunsStayDeterministic) {
  core::SnapPixSystem system(small_system_config());
  std::vector<std::int64_t> reference;
  for (int round = 0; round < 3; ++round) {
    ServerConfig config;
    config.batch.max_batch = 3;
    config.shards = 2;
    config.queue_capacity = 2;
    config.trace.enabled = true;
    config.trace.sample_every = 2;
    InferenceServer server(system, config);
    for (int cam = 0; cam < 3; ++cam) {
      server.add_camera(std::make_unique<runtime::SyntheticCameraSource>(
          cam, small_scene(), system.pattern_ref(),
          400 + static_cast<std::uint64_t>(cam)));
    }
    const std::vector<runtime::TaskResult> results = server.run(10);
    ASSERT_EQ(results.size(), 30U);
    std::vector<std::int64_t> predicted;
    predicted.reserve(results.size());
    for (const auto& r : results) {
      predicted.push_back(r.predicted);
    }
    if (round == 0) {
      reference = predicted;
    } else {
      EXPECT_EQ(predicted, reference) << "round " << round;
    }
    EXPECT_NO_THROW(json::Parser(server.trace_json()).parse());
  }
}

// --- overload: admission rejection + drop-late racing close/steal ------------

// The overload arm of the suite: best-effort producers hammering admission
// rejection, deadlined frames expiring mid-flight, consumers dropping them
// late, a thief shedding them out of stolen runs, and a close() racing all of
// it. Under TSan this is the proof that the shed path (counter bumps +
// observer callbacks on three different thread roles) is race-free; the
// assertions are the exact-accounting laws, which no interleaving may bend.
TEST(OverloadStress, ShedAccountingStaysExactUnderAdmissionExpiryAndCloseRaces) {
  using runtime::Clock;
  using runtime::QosClass;
  using runtime::ShedReason;

  for (int round = 0; round < 6; ++round) {
    FrameQueue queue(2);
    std::atomic<std::uint64_t> observed_full{0};     // order: relaxed tally, read after joins
    std::atomic<std::uint64_t> observed_expired{0};  // order: relaxed tally, read after joins
    queue.set_shed_observer([&](const Frame& frame, ShedReason reason) {
      (void)frame;
      (reason == ShedReason::kQueueFull ? observed_full : observed_expired)
          .fetch_add(1, std::memory_order_relaxed);
    });

    std::atomic<std::uint64_t> accepted{0};  // order: relaxed tally, read after joins
    std::atomic<std::uint64_t> rejected{0};  // order: relaxed tally, read after joins
    std::atomic<std::uint64_t> surfaced{0};  // order: relaxed tally, read after joins
    const Clock::time_point expired_at_birth = Clock::now();

    constexpr int kProducers = 4;
    constexpr std::int64_t kFramesEach = 150;
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      // Producers 0-1 best-effort (half their frames pre-expired, so both
      // shed reasons fire constantly), 2 standard, 3 realtime (stealing must
      // route around its frames while everything else churns).
      const QosClass qos = p <= 1   ? QosClass::kBestEffort
                           : p == 2 ? QosClass::kStandard
                                    : QosClass::kRealtime;
      producers.emplace_back([&, p, qos] {
        for (std::int64_t i = 0; i < kFramesEach; ++i) {
          Frame frame = tiny_frame(p, i);
          frame.qos = qos;
          if (qos == QosClass::kBestEffort && i % 2 == 0) {
            frame.deadline = expired_at_birth;
          }
          const PushResult r = queue.admit(std::move(frame));
          if (r == PushResult::kClosed) {
            return;  // close() raced us: stop, count nothing
          }
          (r == PushResult::kAccepted ? accepted : rejected)
              .fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    std::vector<std::thread> consumers;
    for (int c = 0; c < 2; ++c) {
      consumers.emplace_back([&] {
        Frame out;
        while (queue.pop(out)) {
          surfaced.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::thread thief([&] {
      std::vector<Frame> batch;
      while (!queue.exhausted()) {
        if (queue.steal_tail(batch, 2)) {
          for (const Frame& f : batch) {
            ASSERT_NE(f.qos, QosClass::kRealtime);  // never exported by a steal
          }
          surfaced.fetch_add(batch.size(), std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });

    // Rounds 0-2 close mid-stream (producers observe kClosed and bail);
    // rounds 3-5 let every producer finish first, so both shutdown shapes
    // get TSan coverage.
    if (round < 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      queue.close();
      for (auto& t : producers) {
        t.join();
      }
    } else {
      for (auto& t : producers) {
        t.join();
      }
      queue.close();
    }
    for (auto& t : consumers) {
      t.join();
    }
    thief.join();

    // Exact accounting, independent of the interleaving:
    //   accepted == surfaced + drop-late sheds      (conservation)
    //   rejected == admission sheds                  (taxonomy: closes are
    //                                                not sheds — producers
    //                                                that saw kClosed counted
    //                                                nothing, and neither may
    //                                                the queue)
    //   observer fired once per shed, per reason
    EXPECT_EQ(accepted.load(std::memory_order_relaxed),
              surfaced.load(std::memory_order_relaxed) + queue.shed_expired())
        << "round " << round;
    EXPECT_EQ(queue.shed_admission(), rejected.load(std::memory_order_relaxed))
        << "round " << round;
    EXPECT_EQ(queue.total_pushed(), accepted.load(std::memory_order_relaxed))
        << "round " << round;
    EXPECT_EQ(observed_full.load(std::memory_order_relaxed), queue.shed_admission());
    EXPECT_EQ(observed_expired.load(std::memory_order_relaxed), queue.shed_expired());
    EXPECT_TRUE(queue.exhausted());
  }
}

// --- scheduler: teardown mid-retransmit-backoff and while quarantined --------

// An 8x8 replay camera on an all-drop framed link: every transfer is corrupt,
// so under kRetransmit its producer lives inside the retry loop.
std::unique_ptr<runtime::ReplayCameraSource> dead_link_replay_camera(int id) {
  Rng rng(40 + static_cast<std::uint64_t>(id));
  std::vector<float> data(64);
  for (float& v : data) {
    v = rng.uniform(0.0F, 1.0F);
  }
  std::vector<Tensor> coded;
  coded.push_back(Tensor::from_vector(std::move(data), Shape{8, 8}));
  auto camera = std::make_unique<runtime::ReplayCameraSource>(
      id, runtime::make_pattern_ref(ce::CePattern::long_exposure(8, 8)),
      std::move(coded), std::vector<std::int64_t>{});
  transport::LinkConfig link;
  link.faults.packet_drop_rate = 1.0;
  link.faults.seed = 900 + static_cast<std::uint64_t>(id);
  camera->set_framed(link);
  return camera;
}

// Shutdown order 1: the scheduler is destroyed while both producers are
// asleep mid-retransmit-backoff and the queues are still open. The destructor
// must wake the sleepers first (stop()) and only then close the queues;
// a woken producer abandons the frame instead of sleeping out the remaining
// 250 ms x frames of backoff schedule, so teardown is prompt and every frame
// of the budget is still accounted for.
TEST(SchedulerStress, DestructionMidRetransmitBackoffWakesProducersAndTearsDown) {
  constexpr std::int64_t kFrames = 300;
  runtime::RuntimeStats stats;
  FrameQueue queue(4);
  {
    runtime::TransportPolicy policy;
    policy.corrupt = runtime::TransportPolicy::Corrupt::kRetransmit;
    policy.max_retransmits = 10'000;
    policy.backoff_initial = std::chrono::milliseconds(250);
    policy.backoff_max = std::chrono::seconds(2);
    runtime::StreamScheduler scheduler(stats, policy);
    scheduler.add_camera(dead_link_replay_camera(0), queue);
    scheduler.add_camera(dead_link_replay_camera(1), queue);
    scheduler.start(kFrames);
    // Let both producers take their first corrupt frame and park in backoff.
    // Transport is recorded only after the retry loop ends, and ending it
    // pre-stop would take 10'000 retries under an ever-growing backoff — so
    // a zero count here proves both producers are parked inside the loop.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(stats.summary(1.0).transport.framed_frames, 0U);
    // Destructor runs here: queues still open, producers mid-backoff.
  }
  EXPECT_TRUE(queue.closed());
  // Post-stop iterations degrade to one un-slept transfer each, so the full
  // budget drains fast and exactly: every frame was offered, none recovered.
  const runtime::RuntimeSummary summary = stats.summary(1.0);
  EXPECT_EQ(summary.transport.framed_frames, static_cast<std::uint64_t>(2 * kFrames));
  EXPECT_EQ(summary.transport.dropped_frames, static_cast<std::uint64_t>(2 * kFrames));
  Frame out;
  EXPECT_FALSE(queue.pop(out));  // nothing ever survived the dead links
}

// Shutdown order 2: the queues are closed externally FIRST (mid-stream, with
// one camera quarantined by the health controller and one healthy camera
// blocked in admit()), and the scheduler is destroyed afterwards. The
// quarantined producer keeps burning its budget as counted quarantine drops
// and must never wedge teardown; the blocked producer observes the close.
TEST(SchedulerStress, ExternalCloseThenDestructionWhileQuarantinedTearsDown) {
  constexpr std::int64_t kFrames = 2000;
  runtime::RuntimeStats stats;
  runtime::HealthConfig health_config;
  health_config.enabled = true;
  health_config.window = 4;
  health_config.quarantine_consecutive_losses = 2;
  health_config.quarantine_hold = 1 << 20;  // longer than the budget: stays down
  runtime::HealthController health(health_config, stats);
  FrameQueue queue(4);
  {
    runtime::TransportPolicy policy;
    policy.corrupt = runtime::TransportPolicy::Corrupt::kRetransmit;
    policy.max_retransmits = 4;
    policy.backoff_initial = std::chrono::microseconds(50);
    runtime::StreamScheduler scheduler(stats, policy);
    // Camera 0: dead link, quarantined after two consecutive losses.
    auto dead = dead_link_replay_camera(0);
    health.attach(*dead);
    scheduler.add_camera(std::move(dead), queue);
    // Camera 1: synthetic, in-memory, healthy — exists to be blocked in
    // admit() on the tiny queue when the external close lands.
    Rng rng(29);
    auto clean = std::make_unique<runtime::SyntheticCameraSource>(
        1, small_scene(),
        runtime::make_pattern_ref(ce::CePattern::random(8, 8, rng, 0.5F)), 104);
    health.attach(*clean);
    scheduler.add_camera(std::move(clean), queue);
    scheduler.set_health(&health);
    scheduler.start(kFrames);

    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (health.state(0) != runtime::HealthState::kQuarantined) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "camera 0 never reached quarantine";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    queue.close();  // external close first; destructor (stop + re-close) second
  }
  EXPECT_TRUE(queue.closed());
  // The quarantined camera's whole budget is accounted for: the frames that
  // reached the wire before quarantine plus every capture skipped after it.
  const runtime::CameraHealthSnapshot snapshot = health.snapshot(0);
  EXPECT_EQ(snapshot.state, runtime::HealthState::kQuarantined);
  EXPECT_GT(snapshot.quarantine_drops, 0U);
  const runtime::RuntimeSummary summary = stats.summary(1.0);
  std::uint64_t camera0_framed = 0;
  for (const auto& [camera_id, counters] : summary.transport_cameras) {
    if (camera_id == 0) {
      camera0_framed = counters.framed_frames;
    }
  }
  EXPECT_EQ(camera0_framed + snapshot.quarantine_drops,
            static_cast<std::uint64_t>(kFrames));
}

// --- chaos: burst faults + a stalled shard in one sharded run ----------------

// The cross-layer chaos arm (tests/chaos.h): a 2-shard server with health
// supervision and the watchdog enabled, one camera riding through a
// burst-noise episode on an entropy-coded link, and the fleet's home shard
// wedged mid-run by a SlowShard hook so the watchdog must detect the stall
// and re-route live traffic to the sibling. Work stealing is off so the
// rescue path — not the thief — is what moves the frames. The assertions are
// the resilience laws: exact per-camera conservation across served / shed /
// transport-dropped / quarantine-dropped, bit-identity of every answer from
// the healthy cameras (the ladder only ever touches the afflicted camera),
// and the stall actually being caught. Under TSan this is the proof that the
// health controller, watchdog rescue, and producer reroute protocol are
// race-free against the serving fabric.
TEST(ChaosStress, BurstFaultsAndStalledShardRescueConserveEveryFrame) {
  core::SnapPixSystem system(small_system_config());
  constexpr int kCameras = 4;
  constexpr std::int64_t kFramesPerCamera = 60;
  // Replay buffers + unloaded batch-1 references, computed over the codec
  // wire's quantize->dequantize round-trip (a clean full-depth codec link
  // reconstructs exactly that).
  const fixtures::ReplayOracle oracle(system, kCameras, /*frames=*/6, /*seed=*/100,
                                      /*codec_wire=*/true);

  ServerConfig config;
  config.batch.max_batch = 4;
  config.shards = 2;
  config.queue_capacity = 4;
  config.work_stealing = false;
  config.transport.corrupt = runtime::TransportPolicy::Corrupt::kRetransmit;
  config.transport.max_retransmits = 2;
  config.transport.backoff_initial = std::chrono::microseconds(20);
  config.health.enabled = true;
  config.health.window = 8;
  config.health.watchdog.enabled = true;
  config.health.watchdog.poll = std::chrono::milliseconds(5);
  config.health.watchdog.stall_polls = 4;  // 20 ms >> the 2 ms batch max_delay
  // All cameras share the system pattern, so the whole fleet homes on one
  // shard — wedge exactly that one; the sibling only ever sees rescue
  // traffic. The 250 ms stall dwarfs the 20 ms detection threshold.
  const std::size_t home = system.pattern_ref()->hash() % 2;
  chaos::SlowShard slow(home, /*after_batches=*/2, std::chrono::milliseconds(250));
  config.before_batch = slow;

  InferenceServer server(system, config);
  for (int cam = 0; cam < kCameras; ++cam) {
    std::vector<chaos::Episode> schedule;
    if (cam == 0) {
      // Sequences [8, 24): heavy packet loss — corrupt beyond the retry
      // budget, driving camera 0's controller off kHealthy.
      schedule.push_back(chaos::burst(8, 24, /*bit_flip_per_byte=*/0.005,
                                      /*packet_drop_rate=*/0.5));
    }
    auto camera = std::make_unique<chaos::ChaosReplaySource>(
        cam, oracle.pattern(), oracle.buffer(cam), std::vector<std::int64_t>{},
        std::move(schedule));
    transport::LinkConfig link;
    link.codec = true;
    link.faults.seed = 500 + static_cast<std::uint64_t>(cam);
    camera->set_framed(link);
    server.add_camera(std::move(camera));
  }

  const std::vector<runtime::TaskResult> results = server.run(kFramesPerCamera);
  const runtime::RuntimeSummary summary = server.summary();

  // The stall fired and the watchdog caught it.
  EXPECT_EQ(slow.stalls_left(), 0);
  EXPECT_GE(summary.watchdog_stalls, 1U);

  // Bit-identity: cameras 1-3 never left full fidelity, so every answer
  // matches the unloaded baseline no matter which shard served it (the
  // ladder may have lowered the afflicted camera 0's fidelity).
  std::vector<runtime::TaskResult> healthy;
  for (const runtime::TaskResult& r : results) {
    if (r.camera_id != 0) {
      healthy.push_back(r);
    }
  }
  EXPECT_EQ(oracle.divergence(healthy), "");

  // The chaos was real: the burst drove camera 0's state machine, and only
  // camera 0's — the episode never leaks sideways.
  const std::vector<fixtures::CameraLedger> ledger =
      fixtures::ledger_from(results, summary, kCameras);
  EXPECT_GE(ledger[0].transitions, 1U);
  for (int cam = 1; cam < kCameras; ++cam) {
    EXPECT_EQ(ledger[static_cast<std::size_t>(cam)].transitions, 0U) << "camera " << cam;
    EXPECT_EQ(ledger[static_cast<std::size_t>(cam)].wire_dropped, 0U) << "camera " << cam;
  }

  // Exact per-camera conservation: offered == served + shed + dropped on the
  // wire + dropped in quarantine, for the afflicted and healthy alike,
  // across stall, rescue, and recovery.
  EXPECT_EQ(fixtures::conservation_gap(
                ledger, std::vector<std::int64_t>(kCameras, kFramesPerCamera)),
            "");
}

}  // namespace
}  // namespace snappix

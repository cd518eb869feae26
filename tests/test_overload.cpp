// Overload-discipline suite (docs/serving.md): QoS admission control, frame
// deadlines with drop-late semantics, priority-aware stealing, and the exact
// shed accounting behind them. Three groups:
//
//   1. Deterministic saturation tests — capacity-1 queues with scripted
//      producers pin EXACT shed counts per QoS class, drop-late for
//      already-expired frames, the EDF dequeue order, and the counter
//      taxonomy (a producer blocked in admit() that observes close() is NOT
//      a shed).
//   2. Property-style scheduling invariants — seeded random interleavings
//      assert laws that must hold for EVERY schedule: no realtime frame is
//      shed while best-effort traffic from the same queue is being
//      admitted, batch deadlines are non-decreasing under EDF, and
//      conservation (admitted == served + shed + in-flight at shutdown).
//   3. End-to-end: a saturated InferenceServer run sheds only best-effort
//      frames, conserves per-camera counts exactly, and every frame it DID
//      serve is bit-identical to an unloaded serve of the same input.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/snappix.h"
#include "runtime/batcher.h"
#include "runtime/camera.h"
#include "runtime/frame_queue.h"
#include "runtime/server.h"
#include "runtime/stats.h"
#include "serving_fixtures.h"
#include "util/rng.h"

namespace snappix {
namespace {

using runtime::BatchAggregator;
using runtime::BatchPolicy;
using runtime::Clock;
using runtime::Frame;
using runtime::FrameQueue;
using runtime::InferenceServer;
using runtime::PushResult;
using runtime::QosClass;
using runtime::ServerConfig;
using runtime::ShedReason;
using runtime::Task;

Frame make_frame(int camera, std::int64_t sequence, QosClass qos,
                 Clock::time_point deadline = Clock::time_point{}) {
  Frame frame;
  frame.camera_id = camera;
  frame.sequence = sequence;
  frame.qos = qos;
  frame.deadline = deadline;
  frame.coded = Tensor::full(Shape{2, 2}, static_cast<float>(sequence));
  return frame;
}

// Collects every observer callback for exact-count assertions.
struct ShedLog {
  std::mutex mutex;
  std::vector<std::pair<std::pair<int, std::int64_t>, ShedReason>> sheds;

  void install(FrameQueue& queue) {
    queue.set_shed_observer([this](const Frame& frame, ShedReason reason) {
      std::lock_guard<std::mutex> lock(mutex);
      sheds.emplace_back(std::make_pair(frame.camera_id, frame.sequence), reason);
    });
  }
  std::size_t count(ShedReason reason) {
    std::lock_guard<std::mutex> lock(mutex);
    std::size_t n = 0;
    for (const auto& s : sheds) {
      n += s.second == reason ? 1 : 0;
    }
    return n;
  }
  std::size_t total() {
    std::lock_guard<std::mutex> lock(mutex);
    return sheds.size();
  }
};

// --- 1. deterministic saturation: admission control --------------------------

TEST(Admission, BestEffortShedsExactlyTheExcessOnAFullQueue) {
  FrameQueue queue(1);
  ShedLog log;
  log.install(queue);

  ASSERT_EQ(queue.admit(make_frame(0, 0, QosClass::kStandard)), PushResult::kAccepted);
  // The queue is full: every best-effort admit is shed, exactly counted,
  // without blocking (these calls return immediately on a queue nobody is
  // draining — the non-blocking contract IS the test).
  constexpr int kExcess = 7;
  for (int i = 0; i < kExcess; ++i) {
    EXPECT_EQ(queue.admit(make_frame(1, i, QosClass::kBestEffort)), PushResult::kShed);
  }
  EXPECT_EQ(queue.shed_admission(), static_cast<std::uint64_t>(kExcess));
  EXPECT_EQ(queue.shed_expired(), 0U);
  EXPECT_EQ(log.count(ShedReason::kQueueFull), static_cast<std::size_t>(kExcess));
  EXPECT_EQ(queue.total_pushed(), 1U);  // sheds never entered the queue
  EXPECT_EQ(queue.depth(), 1U);

  // Capacity freed -> best-effort admits again: shedding is a point-in-time
  // decision, not a penalty on the camera.
  Frame out;
  ASSERT_TRUE(queue.pop(out));
  EXPECT_EQ(queue.admit(make_frame(1, kExcess, QosClass::kBestEffort)),
            PushResult::kAccepted);
  EXPECT_EQ(queue.shed_admission(), static_cast<std::uint64_t>(kExcess));
}

TEST(Admission, RealtimeAndStandardBlockUnderBackpressureAndAreNeverShed) {
  FrameQueue queue(1);
  ShedLog log;
  log.install(queue);
  ASSERT_EQ(queue.admit(make_frame(0, 0, QosClass::kStandard)), PushResult::kAccepted);

  std::atomic<int> admitted{0};  // order: relaxed tally, checked after joins
  std::thread rt([&] {
    EXPECT_EQ(queue.admit(make_frame(1, 0, QosClass::kRealtime)), PushResult::kAccepted);
    admitted.fetch_add(1, std::memory_order_relaxed);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(admitted.load(std::memory_order_relaxed), 0);  // backpressure holds

  Frame out;
  ASSERT_TRUE(queue.pop(out));  // frees the slot; the blocked admit completes
  rt.join();
  EXPECT_EQ(admitted.load(std::memory_order_relaxed), 1);
  EXPECT_EQ(queue.shed_admission(), 0U);
  EXPECT_EQ(log.total(), 0U);
}

// Regression (counter taxonomy): a producer blocked on a full queue that
// observes close() was NOT shed — its frame never entered the runtime and
// must not appear in any shed counter. kClosed and kShed are distinct
// outcomes, and admission on an already-closed queue is kClosed for every
// QoS class (including best-effort, whose frame would have been shed a
// moment earlier).
TEST(Admission, BlockedProducerObservingCloseIsClosedNotShed) {
  FrameQueue queue(1);
  ShedLog log;
  log.install(queue);
  ASSERT_EQ(queue.admit(make_frame(0, 0, QosClass::kStandard)), PushResult::kAccepted);

  std::atomic<int> closed_seen{0};  // order: relaxed tally, checked after joins
  std::thread blocked([&] {
    if (queue.admit(make_frame(1, 0, QosClass::kRealtime)) == PushResult::kClosed) {
      closed_seen.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  blocked.join();
  EXPECT_EQ(closed_seen.load(std::memory_order_relaxed), 1);

  EXPECT_EQ(queue.admit(make_frame(2, 0, QosClass::kBestEffort)), PushResult::kClosed);
  EXPECT_EQ(queue.admit(make_frame(2, 1, QosClass::kStandard)), PushResult::kClosed);

  EXPECT_EQ(queue.shed_admission(), 0U);
  EXPECT_EQ(queue.shed_expired(), 0U);
  EXPECT_EQ(log.total(), 0U);
  EXPECT_EQ(queue.total_pushed(), 1U);
}

// --- 1. deterministic saturation: drop-late ----------------------------------

TEST(DropLate, ExpiredFramesAreShedAtDequeueNeverServed) {
  FrameQueue queue(8);
  ShedLog log;
  log.install(queue);
  const Clock::time_point now = Clock::now();

  // Already expired at admission time: admission does NOT shed it (deadlines
  // are judged at dequeue, where "serving it stale" would happen)...
  ASSERT_EQ(queue.admit(make_frame(0, 0, QosClass::kStandard, now - std::chrono::seconds(1))),
            PushResult::kAccepted);
  ASSERT_EQ(queue.admit(make_frame(1, 0, QosClass::kStandard)), PushResult::kAccepted);
  ASSERT_EQ(queue.admit(make_frame(0, 1, QosClass::kStandard, now - std::chrono::seconds(1))),
            PushResult::kAccepted);

  // ...pop sheds BOTH expired frames and serves the live one.
  Frame out;
  ASSERT_TRUE(queue.pop(out));
  EXPECT_EQ(out.camera_id, 1);
  EXPECT_EQ(queue.shed_expired(), 2U);
  EXPECT_EQ(log.count(ShedReason::kDeadline), 2U);
  EXPECT_EQ(queue.depth(), 0U);

  // A queue holding ONLY expired frames drains to "closed and drained", not
  // to a stale serve.
  ASSERT_EQ(queue.admit(make_frame(2, 0, QosClass::kStandard, now - std::chrono::seconds(1))),
            PushResult::kAccepted);
  queue.close();
  EXPECT_FALSE(queue.pop(out));
  EXPECT_EQ(queue.shed_expired(), 3U);
  EXPECT_TRUE(queue.exhausted());

  // Conservation ledger: admitted == served + shed_expired + residue(0).
  EXPECT_EQ(queue.total_pushed(), 4U);  // 1 served + 3 expired
}

TEST(DropLate, ExpiredHoldbackIsShedNotServedStale) {
  FrameQueue queue(8);
  ShedLog log;
  log.install(queue);
  BatchPolicy policy;
  policy.max_batch = 4;
  policy.max_delay = std::chrono::microseconds(0);  // greedy

  // Frame A (key 1) then frame B (key 2), with EQUAL deadlines so EDF
  // tie-breaks to FIFO (A pops first, B goes to holdback). The budget is
  // generous enough that A is served live; B's expires while it sits in
  // holdback.
  const Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(50);
  Frame a = make_frame(0, 0, QosClass::kStandard, deadline);
  a.pattern_id = 1;
  Frame b = make_frame(1, 0, QosClass::kStandard, deadline);
  b.pattern_id = 2;
  ASSERT_EQ(queue.admit(std::move(a)), PushResult::kAccepted);
  ASSERT_EQ(queue.admit(std::move(b)), PushResult::kAccepted);
  queue.close();

  BatchAggregator aggregator(queue, policy);
  std::vector<Frame> batch;
  ASSERT_TRUE(aggregator.next_batch(batch));  // [A]; B goes to holdback
  ASSERT_EQ(batch.size(), 1U);
  EXPECT_EQ(batch[0].pattern_id, 1U);
  EXPECT_EQ(aggregator.last_flush_reason(), runtime::FlushReason::kHoldback);

  std::this_thread::sleep_for(std::chrono::milliseconds(80));  // B expires
  EXPECT_FALSE(aggregator.next_batch(batch));  // B shed, queue exhausted
  EXPECT_EQ(queue.shed_expired(), 1U);
  ASSERT_EQ(log.count(ShedReason::kDeadline), 1U);
}

TEST(DropLate, StealShedsExpiredAndNeverTakesRealtimeFrames) {
  FrameQueue queue(8);
  ShedLog log;
  log.install(queue);
  const Clock::time_point past = Clock::now() - std::chrono::seconds(1);

  // Realtime tail: the whole steal is refused, the queue untouched.
  ASSERT_EQ(queue.admit(make_frame(0, 0, QosClass::kStandard)), PushResult::kAccepted);
  ASSERT_EQ(queue.admit(make_frame(1, 0, QosClass::kRealtime)), PushResult::kAccepted);
  std::vector<Frame> stolen;
  EXPECT_FALSE(queue.steal_tail(stolen, 8));
  EXPECT_EQ(queue.depth(), 2U);

  // Standard frames behind the realtime one ARE stealable — the run stops
  // where the realtime frame starts, protecting it, not its neighbors.
  ASSERT_EQ(queue.admit(make_frame(0, 1, QosClass::kStandard)), PushResult::kAccepted);
  ASSERT_EQ(queue.admit(make_frame(0, 2, QosClass::kBestEffort, past)),
            PushResult::kAccepted);  // expired: shed by the steal, not exported
  ASSERT_EQ(queue.admit(make_frame(0, 3, QosClass::kStandard)), PushResult::kAccepted);
  ASSERT_TRUE(queue.steal_tail(stolen, 8));
  ASSERT_EQ(stolen.size(), 2U);  // sequences 1 and 3; the expired frame 2 shed
  EXPECT_EQ(stolen[0].sequence, 1);
  EXPECT_EQ(stolen[1].sequence, 3);
  EXPECT_EQ(queue.shed_expired(), 1U);
  EXPECT_EQ(log.count(ShedReason::kDeadline), 1U);
  EXPECT_EQ(queue.depth(), 2U);  // the standard head + the protected realtime frame
}

// --- 1. deterministic saturation: EDF dequeue --------------------------------

TEST(Edf, PopServesEarliestDeadlineFirstThenFifoAmongUndeadlined) {
  FrameQueue queue(8);
  const Clock::time_point base = Clock::now() + std::chrono::seconds(10);
  // Mixed insert order: deadlines 3s/1s/2s out of order, plus two
  // no-deadline frames bracketing them.
  ASSERT_EQ(queue.admit(make_frame(9, 0, QosClass::kStandard)), PushResult::kAccepted);
  ASSERT_EQ(queue.admit(make_frame(3, 0, QosClass::kStandard, base + std::chrono::seconds(3))),
            PushResult::kAccepted);
  ASSERT_EQ(queue.admit(make_frame(1, 0, QosClass::kStandard, base + std::chrono::seconds(1))),
            PushResult::kAccepted);
  ASSERT_EQ(queue.admit(make_frame(9, 1, QosClass::kStandard)), PushResult::kAccepted);
  ASSERT_EQ(queue.admit(make_frame(2, 0, QosClass::kStandard, base + std::chrono::seconds(2))),
            PushResult::kAccepted);

  std::vector<int> order;
  Frame out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.pop(out));
    order.push_back(out.camera_id * 10 + static_cast<int>(out.sequence));
  }
  // Deadlined frames first, by deadline; then the undeadlined in FIFO order.
  EXPECT_EQ(order, (std::vector<int>{10, 20, 30, 90, 91}));
}

TEST(Edf, QueueWithoutDeadlinesDegradesToExactFifo) {
  FrameQueue queue(8);
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(queue.admit(make_frame(0, i, QosClass::kStandard)), PushResult::kAccepted);
  }
  Frame out;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out.sequence, i);  // byte-for-byte the pre-QoS FIFO contract
  }
}

// --- 1. stats plumbing: shed observer taxonomy -------------------------------

// A RuntimeStats shed observer, as the server installs on every shard queue;
// this pins the full pipeline: queue shed -> observer -> per-(qos, reason)
// registry counters + per-camera rows in the summary.
TEST(ShedAccounting, QueueShedsFlowIntoRuntimeStatsPerCameraPerReason) {
  runtime::RuntimeStats stats;
  for (const int camera : {7, 8, 9}) {
    stats.add_camera(camera);
  }
  FrameQueue queue(1);
  queue.set_shed_observer([&stats](const Frame& frame, ShedReason reason) {
    stats.record_shed(frame.camera_id, frame.qos, reason);
  });

  ASSERT_EQ(queue.admit(make_frame(0, 0, QosClass::kStandard)), PushResult::kAccepted);
  EXPECT_EQ(queue.admit(make_frame(7, 0, QosClass::kBestEffort)), PushResult::kShed);
  EXPECT_EQ(queue.admit(make_frame(7, 1, QosClass::kBestEffort)), PushResult::kShed);
  Frame out;
  ASSERT_TRUE(queue.pop(out));
  ASSERT_EQ(queue.admit(make_frame(8, 0, QosClass::kBestEffort,
                                   Clock::now() - std::chrono::seconds(1))),
            PushResult::kAccepted);
  queue.close();
  EXPECT_FALSE(queue.pop(out));  // drop-late sheds camera 8's frame
  stats.record_deadline_miss(9);

  const runtime::RuntimeSummary summary = stats.summary(1.0);
  EXPECT_EQ(summary.shed_frames, 3U);
  EXPECT_EQ(summary.shed_queue_full, 2U);
  EXPECT_EQ(summary.shed_deadline, 1U);
  EXPECT_EQ(summary.shed_realtime, 0U);
  EXPECT_EQ(summary.shed_standard, 0U);
  EXPECT_EQ(summary.shed_best_effort, 3U);
  EXPECT_EQ(summary.deadline_misses, 1U);
  ASSERT_EQ(summary.shed_cameras.size(), 3U);  // cameras 7, 8, 9 — sorted
  EXPECT_EQ(summary.shed_cameras[0].first, 7);
  EXPECT_EQ(summary.shed_cameras[0].second.queue_full, 2U);
  EXPECT_EQ(summary.shed_cameras[0].second.deadline, 0U);
  EXPECT_EQ(summary.shed_cameras[1].first, 8);
  EXPECT_EQ(summary.shed_cameras[1].second.deadline, 1U);
  EXPECT_EQ(summary.shed_cameras[2].first, 9);
  EXPECT_EQ(summary.shed_cameras[2].second.deadline_misses, 1U);
}

// --- 2. property-style scheduling invariants ---------------------------------

// Seeded single-threaded interleavings of admits and pops: for EVERY
// schedule, (a) a realtime admit never sheds — even while best-effort admits
// from the same queue are being rejected, and (b) the conservation ledger
// balances exactly: admitted == served + shed_expired + in-flight at close.
TEST(OverloadProperty, RealtimeNeverShedWhileBestEffortAdmittedOrRejected) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    FrameQueue queue(3);
    ShedLog log;
    log.install(queue);
    std::uint64_t realtime_sheds = 0;
    std::uint64_t best_effort_outcomes[2] = {0, 0};  // [accepted, shed]
    std::uint64_t served = 0;
    std::int64_t seq = 0;

    for (int op = 0; op < 200; ++op) {
      const std::int64_t draw = rng.uniform_int(0, 9);
      if (draw < 3 && queue.depth() > 0) {
        Frame out;
        ASSERT_TRUE(queue.pop(out));
        ++served;
        continue;
      }
      if (draw < 6) {
        // Realtime, no deadline (its latency protection comes from admission
        // and steal policy, not expiry). Pop first if full: single-threaded
        // realtime admits on a full queue would otherwise block forever —
        // which is itself the invariant (they block, they don't shed).
        if (queue.depth() == queue.capacity()) {
          Frame out;
          ASSERT_TRUE(queue.pop(out));
          ++served;
        }
        const PushResult r = queue.admit(make_frame(1, seq++, QosClass::kRealtime));
        ASSERT_EQ(r, PushResult::kAccepted);
        realtime_sheds += r == PushResult::kShed ? 1 : 0;
      } else {
        const PushResult r = queue.admit(make_frame(2, seq++, QosClass::kBestEffort));
        ASSERT_NE(r, PushResult::kClosed);
        ++best_effort_outcomes[r == PushResult::kShed ? 1 : 0];
      }
    }

    EXPECT_EQ(realtime_sheds, 0U) << "seed " << seed;
    // Non-vacuous: the schedule really produced both best-effort outcomes.
    EXPECT_GT(best_effort_outcomes[0], 0U) << "seed " << seed;
    EXPECT_GT(best_effort_outcomes[1], 0U) << "seed " << seed;
    EXPECT_EQ(log.count(ShedReason::kQueueFull), best_effort_outcomes[1]);

    // Conservation at shutdown: admitted == served + shed + in-flight.
    queue.close();
    const std::size_t in_flight = queue.depth();
    EXPECT_EQ(queue.total_pushed(),
              served + queue.shed_expired() + in_flight)
        << "seed " << seed;
    EXPECT_EQ(queue.shed_admission(), best_effort_outcomes[1]) << "seed " << seed;
  }
}

// Seeded pre-filled queues (no concurrent pushes): under the EDF policy every
// batch the aggregator forms has non-decreasing deadlines, with "no deadline"
// ordering strictly after every deadlined frame.
TEST(OverloadProperty, BatchDeadlinesNonDecreasingUnderEdf) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    FrameQueue queue(32);
    const Clock::time_point base = Clock::now() + std::chrono::seconds(30);
    std::int64_t seq = 0;
    for (int i = 0; i < 24; ++i) {
      // ~1/4 undeadlined; the rest spread over [base, base + 1000ms) — far
      // enough out that nothing expires mid-test.
      const std::int64_t ms = rng.uniform_int(0, 999);
      const bool undeadlined = rng.uniform_int(0, 3) == 0;
      ASSERT_EQ(queue.admit(make_frame(
                    0, seq++, QosClass::kStandard,
                    undeadlined ? Clock::time_point{} : base + std::chrono::milliseconds(ms))),
                PushResult::kAccepted);
    }
    queue.close();

    BatchPolicy policy;
    policy.max_batch = 5;
    policy.max_delay = std::chrono::microseconds(0);
    BatchAggregator aggregator(queue, policy);
    std::vector<Frame> batch;
    std::size_t total = 0;
    bool saw_undeadlined_globally = false;
    while (aggregator.next_batch(batch)) {
      total += batch.size();
      for (std::size_t i = 1; i < batch.size(); ++i) {
        const Frame& prev = batch[i - 1];
        const Frame& cur = batch[i];
        if (!prev.has_deadline()) {
          // Undeadlined frames sort after every deadlined frame, so nothing
          // with a deadline may follow one.
          EXPECT_FALSE(cur.has_deadline()) << "seed " << seed << " pos " << i;
        } else if (cur.has_deadline()) {
          EXPECT_LE(prev.deadline.time_since_epoch().count(),
                    cur.deadline.time_since_epoch().count())
              << "seed " << seed << " pos " << i;
        }
        saw_undeadlined_globally |= !cur.has_deadline();
      }
    }
    EXPECT_EQ(total, 24U) << "seed " << seed;
    EXPECT_TRUE(saw_undeadlined_globally) << "seed " << seed;  // mix was real
  }
}

// Multi-threaded conservation: producers of every QoS class race two
// consumers and a thief on a capacity-2 queue, with a mid-run close. For
// every interleaving: accepted == surfaced + shed_expired + drained residue,
// admission sheds equal the best-effort rejections exactly, and no realtime
// frame is ever shed.
TEST(OverloadProperty, ConservationHoldsAcrossThreadedInterleavings) {
  for (int round = 0; round < 10; ++round) {
    FrameQueue queue(2);
    runtime::RuntimeStats stats;
    for (int camera = 0; camera < 3; ++camera) {
      stats.add_camera(camera);
    }
    queue.set_shed_observer([&stats](const Frame& frame, ShedReason reason) {
      stats.record_shed(frame.camera_id, frame.qos, reason);
    });

    std::atomic<std::uint64_t> accepted{0};   // order: relaxed tally, read after joins
    std::atomic<std::uint64_t> rejected{0};   // order: relaxed tally, read after joins
    std::atomic<std::uint64_t> surfaced{0};   // order: relaxed tally, read after joins

    const Clock::time_point tight = Clock::now();  // realtime/standard: no deadline
    std::vector<std::thread> producers;
    for (int p = 0; p < 3; ++p) {
      const QosClass qos = p == 0   ? QosClass::kRealtime
                           : p == 1 ? QosClass::kStandard
                                    : QosClass::kBestEffort;
      producers.emplace_back([&, p, qos] {
        for (std::int64_t i = 0; i < 120; ++i) {
          // Every 5th best-effort frame carries an already-expired deadline,
          // so drop-late and admission sheds interleave with serves.
          Frame frame = make_frame(p, i, qos,
                                   (qos == QosClass::kBestEffort && i % 5 == 0)
                                       ? tight
                                       : Clock::time_point{});
          const PushResult r = queue.admit(std::move(frame));
          if (r == PushResult::kClosed) {
            break;
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
          surfaced.fetch_add(batch.size(), std::memory_order_relaxed);
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
    thief.join();

    // The ledger balances exactly, every round, every interleaving.
    EXPECT_EQ(queue.total_pushed(), accepted.load(std::memory_order_relaxed));
    EXPECT_EQ(queue.shed_admission(), rejected.load(std::memory_order_relaxed));
    EXPECT_EQ(accepted.load(std::memory_order_relaxed),
              surfaced.load(std::memory_order_relaxed) + queue.shed_expired())
        << "round " << round;

    const runtime::RuntimeSummary summary = stats.summary(1.0);
    EXPECT_EQ(summary.shed_frames, queue.shed_admission() + queue.shed_expired());
    EXPECT_EQ(summary.shed_realtime, 0U);
    EXPECT_EQ(summary.shed_standard, 0U);
  }
}

// --- 3. end-to-end: saturated server run -------------------------------------

// A saturated single-shard server with a realtime camera in a best-effort
// fleet: per-camera conservation is exact (offered == served + shed), the
// realtime camera is never shed, and every frame that WAS served is
// bit-identical to an unloaded (batch-1, sequential) serve of the same
// coded input — overload changes WHICH frames are answered, never the bits
// of an answer.
TEST(SaturatedServer, ShedsOnlyBestEffortConservesExactlyAndServesBitIdentical) {
  core::SnapPixSystem system(fixtures::small_system_config());
  constexpr int kCameras = 4;
  constexpr std::int64_t kFramesPerCamera = 40;
  const fixtures::ReplayOracle oracle(system, kCameras, /*frames=*/6, /*seed=*/100);

  ServerConfig config;
  config.batch.max_batch = 4;
  config.shards = 1;
  config.queue_capacity = 2;  // tiny: replay producers outrun inference
  InferenceServer server(system, config);
  for (int cam = 0; cam < kCameras; ++cam) {
    auto camera = oracle.camera(cam);
    // Best-effort cameras absorb the overload; camera 0 keeps realtime.
    camera->set_qos(cam == 0 ? QosClass::kRealtime : QosClass::kBestEffort);
    server.add_camera(std::move(camera));
  }

  const std::vector<runtime::TaskResult> results = server.run(kFramesPerCamera);
  const runtime::RuntimeSummary summary = server.summary();

  // Bit-identity of the served subset: every answer matches the unloaded
  // baseline for that camera and replay slot.
  EXPECT_EQ(oracle.divergence(results), "");

  // Realtime: everything served, nothing shed.
  const std::vector<fixtures::CameraLedger> ledger =
      fixtures::ledger_from(results, summary, kCameras);
  EXPECT_EQ(ledger[0].served, static_cast<std::uint64_t>(kFramesPerCamera));
  EXPECT_EQ(summary.shed_realtime, 0U);
  for (const auto& [camera_id, counters] : summary.shed_cameras) {
    EXPECT_NE(camera_id, 0) << "realtime camera shed a frame";
    (void)counters;
  }

  // Exact per-camera conservation: offered == served + shed (the run drains
  // every queue before returning, so nothing is in flight afterwards).
  EXPECT_EQ(fixtures::conservation_gap(
                ledger, std::vector<std::int64_t>(kCameras, kFramesPerCamera)),
            "");
  EXPECT_EQ(summary.shed_frames, summary.shed_best_effort);

  // The overload was real: best-effort traffic actually got shed (replay
  // producers outrun a capacity-2 queue by orders of magnitude). Per-camera
  // best-effort progress is NOT asserted — unblocked producers may burn their
  // whole budget against a full queue, and that is correct shedding, not a
  // bug; the fairness story under sustained load belongs to the saturation
  // bench, which paces its offered load.
  EXPECT_GT(summary.shed_best_effort, 0U);
}

}  // namespace
}  // namespace snappix

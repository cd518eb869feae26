// Task-typed serving tests: pattern hashing, the LRU EngineCache
// (capacity bounds, eviction/refetch determinism), the fused REC decoder
// path's bit-exactness, config validation, shared-pattern ownership, and the
// end-to-end InferenceServer over a heterogeneous multi-pattern AR+REC fleet.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "ce/encode.h"
#include "codec/bitplane.h"
#include "transport/link.h"
#include "core/snappix.h"
#include "runtime/batcher.h"
#include "runtime/camera.h"
#include "runtime/engine.h"
#include "runtime/engine_cache.h"
#include "runtime/frame_queue.h"
#include "runtime/server.h"
#include "serving_fixtures.h"
#include "util/rng.h"

namespace snappix {
namespace {

using fixtures::first_divergence;
using fixtures::small_scene;
using fixtures::small_system_config;
using runtime::BatchAggregator;
using runtime::BatchPolicy;
using runtime::EngineCache;
using runtime::EngineCacheConfig;
using runtime::Frame;
using runtime::FrameQueue;
using runtime::InferenceServer;
using runtime::PatternRef;
using runtime::PushResult;
using runtime::ServerConfig;
using runtime::Task;
using runtime::TaskResult;

// --- CePattern::hash ---------------------------------------------------------

TEST(CePatternHash, EqualPatternsHashEqualDistinctDiffer) {
  Rng rng(5);
  const ce::CePattern a = ce::CePattern::random(8, 8, rng, 0.5F);
  const ce::CePattern b = a;
  EXPECT_EQ(a.hash(), b.hash());

  std::set<std::uint64_t> hashes;
  hashes.insert(a.hash());
  for (int i = 0; i < 16; ++i) {
    hashes.insert(ce::CePattern::random(8, 8, rng, 0.5F).hash());
  }
  EXPECT_GT(hashes.size(), 16U);  // 17 distinct patterns, no collisions expected

  // Geometry participates: same all-ones bits, different (slots, tile) split.
  EXPECT_NE(ce::CePattern::long_exposure(2, 4).hash(),
            ce::CePattern::long_exposure(4, 2).hash());
}

TEST(CePatternHash, SingleBitFlipChangesHash) {
  ce::CePattern a = ce::CePattern::long_exposure(4, 4);
  ce::CePattern b = a;
  b.set_bit(2, 1, 3, false);
  EXPECT_NE(a.hash(), b.hash());
}

// --- config validation -------------------------------------------------------

TEST(ConfigValidation, RejectsBadValuesWithInvalidArgument) {
  core::SnapPixSystem system(small_system_config());
  {
    ServerConfig cfg;
    cfg.queue_capacity = 0;
    EXPECT_THROW(InferenceServer(system, cfg), std::invalid_argument);
  }
  {
    ServerConfig cfg;
    cfg.batch.max_batch = 0;
    EXPECT_THROW(InferenceServer(system, cfg), std::invalid_argument);
  }
  {
    ServerConfig cfg;
    cfg.batch.max_delay = std::chrono::microseconds(-1);
    EXPECT_THROW(InferenceServer(system, cfg), std::invalid_argument);
  }
  {
    ServerConfig cfg;
    cfg.cache.capacity = 0;
    EXPECT_THROW(InferenceServer(system, cfg), std::invalid_argument);
  }
  // The messages should say what is wrong, not just that something is.
  try {
    BatchPolicy policy;
    policy.max_batch = -3;
    runtime::validate(policy);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("max_batch"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-3"), std::string::npos);
  }
}

// --- shared pattern ownership ------------------------------------------------

TEST(PatternSharing, FleetOnSystemPatternHoldsOneInstance) {
  core::SnapPixSystem system(small_system_config());
  const PatternRef ref = system.pattern_ref();
  runtime::SyntheticCameraSource a(0, small_scene(), ref, 1);
  runtime::SyntheticCameraSource b(1, small_scene(), ref, 2);
  EXPECT_EQ(&a.pattern(), &system.pattern());
  EXPECT_EQ(&b.pattern(), &system.pattern());
  EXPECT_EQ(a.pattern_id(), system.pattern_hash());

  // The sensor camera shares its pattern with its embedded StackedSensor too.
  runtime::SensorCameraSource sensor_cam(2, system.default_sensor_config(), small_scene(),
                                         ref, 3);
  EXPECT_EQ(&sensor_cam.pattern(), &system.pattern());
  EXPECT_EQ(&sensor_cam.sensor().pattern(), &system.pattern());

  // record() propagates the shared handle, not a copy.
  auto replay = runtime::ReplayCameraSource::record(a, 2);
  EXPECT_EQ(&replay->pattern(), &system.pattern());

  // set_pattern is copy-on-write: existing handles keep the old instance.
  Rng rng(7);
  system.set_pattern(ce::CePattern::random(8, 8, rng, 0.5F));
  EXPECT_EQ(&a.pattern(), ref.get());
  EXPECT_NE(&system.pattern(), ref.get());
}

// --- FrameQueue shutdown-while-blocked ---------------------------------------

TEST(FrameQueue, CloseUnblocksConsumerBlockedOnEmptyQueue) {
  FrameQueue queue(4);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.close();
  });
  Frame out;
  EXPECT_FALSE(queue.pop(out));  // blocked on empty, woken by close
  closer.join();
  EXPECT_EQ(queue.admit(std::move(out)), PushResult::kClosed);
}

TEST(FrameQueue, CloseUnblocksTimedConsumerBeforeDeadline) {
  FrameQueue queue(4);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.close();
  });
  Frame out;
  const auto t0 = runtime::Clock::now();
  EXPECT_FALSE(queue.pop_until(out, t0 + std::chrono::seconds(10)));
  EXPECT_LT(runtime::Clock::now() - t0, std::chrono::seconds(5));  // woke early
  closer.join();
}

// --- FrameQueue tail stealing ------------------------------------------------

Frame keyed(int camera, std::int64_t sequence, std::uint64_t pattern_id, Task task) {
  Frame frame;
  frame.camera_id = camera;
  frame.sequence = sequence;
  frame.pattern_id = pattern_id;
  frame.task = task;
  frame.coded = Tensor::full(Shape{4, 4}, static_cast<float>(sequence));
  return frame;
}

TEST(FrameQueueSteal, TakesKeyPureTailSuffixInFifoOrder) {
  FrameQueue queue(16);
  ASSERT_EQ(queue.admit(keyed(0, 0, 1, Task::kClassify)), PushResult::kAccepted);
  ASSERT_EQ(queue.admit(keyed(0, 1, 1, Task::kClassify)), PushResult::kAccepted);
  ASSERT_EQ(queue.admit(keyed(1, 0, 2, Task::kClassify)), PushResult::kAccepted);
  ASSERT_EQ(queue.admit(keyed(1, 1, 2, Task::kClassify)), PushResult::kAccepted);
  // Same pattern, other task.
  ASSERT_EQ(queue.admit(keyed(2, 0, 2, Task::kReconstruct)), PushResult::kAccepted);

  std::vector<Frame> stolen;
  ASSERT_TRUE(queue.steal_tail(stolen, 8));
  ASSERT_EQ(stolen.size(), 1U);  // the REC frame alone: key purity beats greed
  EXPECT_EQ(stolen[0].task, Task::kReconstruct);

  ASSERT_TRUE(queue.steal_tail(stolen, 8));  // now the pattern-2 classify run
  ASSERT_EQ(stolen.size(), 2U);
  EXPECT_EQ(stolen[0].sequence, 0);  // FIFO inside the stolen batch
  EXPECT_EQ(stolen[1].sequence, 1);
  EXPECT_EQ(stolen[0].pattern_id, 2U);

  EXPECT_EQ(queue.depth(), 2U);  // head run untouched
  Frame out;
  ASSERT_TRUE(queue.pop(out));
  EXPECT_EQ(out.pattern_id, 1U);
  EXPECT_EQ(out.sequence, 0);
}

TEST(FrameQueueSteal, RespectsMaxFramesTakingTheNewestRun) {
  FrameQueue queue(16);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(queue.admit(keyed(0, i, 1, Task::kClassify)), PushResult::kAccepted);
  }
  std::vector<Frame> stolen;
  ASSERT_TRUE(queue.steal_tail(stolen, 3));
  ASSERT_EQ(stolen.size(), 3U);  // capped, and taken from the tail...
  EXPECT_EQ(stolen[0].sequence, 2);
  EXPECT_EQ(stolen[2].sequence, 4);
  EXPECT_EQ(queue.depth(), 2U);  // ...leaving the oldest frames for the owner
  ASSERT_TRUE(queue.steal_tail(stolen, 3));  // the shortened run is still stealable
  EXPECT_EQ(stolen.size(), 2U);
  EXPECT_EQ(stolen[0].sequence, 0);
  FrameQueue empty(4);
  EXPECT_FALSE(empty.steal_tail(stolen, 3));
}

// Regression (shutdown race): a steal frees several capacity slots at once,
// so it must wake EVERY producer blocked in push — with a single wake, the
// other producers would keep waiting on capacity that is already free, and
// during shutdown (thieves being the only consumers left draining the queue)
// that is a deadlock.
TEST(FrameQueueSteal, FreesCapacityForAllBlockedProducers) {
  FrameQueue queue(2);
  ASSERT_EQ(queue.admit(keyed(0, 0, 1, Task::kClassify)), PushResult::kAccepted);
  ASSERT_EQ(queue.admit(keyed(0, 1, 1, Task::kClassify)), PushResult::kAccepted);
  std::atomic<int> pushed{0};
  std::thread p1([&] {
    EXPECT_EQ(queue.admit(keyed(1, 0, 1, Task::kClassify)), PushResult::kAccepted);
    pushed.fetch_add(1);
  });
  std::thread p2([&] {
    EXPECT_EQ(queue.admit(keyed(2, 0, 1, Task::kClassify)), PushResult::kAccepted);
    pushed.fetch_add(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(pushed.load(), 0);  // backpressure holds both
  std::vector<Frame> stolen;
  ASSERT_TRUE(queue.steal_tail(stolen, 8));  // frees both slots in one steal
  EXPECT_EQ(stolen.size(), 2U);
  p1.join();  // both producers must complete — a lost wakeup would hang here
  p2.join();
  EXPECT_EQ(pushed.load(), 2);
  EXPECT_EQ(queue.depth(), 2U);
}

// Regression (shutdown race): a producer blocked in push while shards drain
// the queue via steals must observe shutdown — first the steal lets it
// complete the push, then close() fails it instead of deadlocking.
TEST(FrameQueueSteal, ProducerBlockedInPushObservesShutdownWhileShardsDrain) {
  FrameQueue queue(1);
  ASSERT_EQ(queue.admit(keyed(0, 0, 1, Task::kClassify)), PushResult::kAccepted);
  std::atomic<bool> first_done{false};
  std::thread producer([&] {
    // Blocked until a drain, then blocked until close.
    EXPECT_EQ(queue.admit(keyed(0, 1, 1, Task::kClassify)), PushResult::kAccepted);
    first_done.store(true);
    EXPECT_EQ(queue.admit(keyed(0, 2, 1, Task::kClassify)), PushResult::kClosed);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(first_done.load());
  std::vector<Frame> stolen;
  ASSERT_TRUE(queue.steal_tail(stolen, 8));  // shard drains; push #2 completes
  while (!first_done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // push #3 now blocked
  queue.close();  // shutdown: the blocked producer must fail, not hang
  producer.join();
  EXPECT_TRUE(queue.exhausted() || queue.depth() > 0);
  Frame out;
  EXPECT_TRUE(queue.pop(out));  // push #2's frame drains even after close
  EXPECT_FALSE(queue.pop(out));
  EXPECT_TRUE(queue.exhausted());
}

// --- BatchAggregator key splitting -------------------------------------------

TEST(BatchAggregator, NeverMixesPatternOrTask) {
  FrameQueue queue(32);
  // Interleaved streams: pattern 1 classify, pattern 2 classify, pattern 1
  // reconstruct. FIFO: A A B A R A B.
  ASSERT_EQ(queue.admit(keyed(0, 0, 1, Task::kClassify)), PushResult::kAccepted);
  ASSERT_EQ(queue.admit(keyed(0, 1, 1, Task::kClassify)), PushResult::kAccepted);
  ASSERT_EQ(queue.admit(keyed(1, 0, 2, Task::kClassify)), PushResult::kAccepted);
  ASSERT_EQ(queue.admit(keyed(0, 2, 1, Task::kClassify)), PushResult::kAccepted);
  ASSERT_EQ(queue.admit(keyed(2, 0, 1, Task::kReconstruct)), PushResult::kAccepted);
  ASSERT_EQ(queue.admit(keyed(0, 3, 1, Task::kClassify)), PushResult::kAccepted);
  ASSERT_EQ(queue.admit(keyed(1, 1, 2, Task::kClassify)), PushResult::kAccepted);
  queue.close();

  BatchPolicy policy;
  policy.max_batch = 8;
  BatchAggregator aggregator(queue, policy);
  std::vector<Frame> batch;
  std::vector<std::vector<std::int64_t>> batches;
  std::vector<runtime::BatchKey> keys;
  while (aggregator.next_batch(batch)) {
    std::vector<std::int64_t> ids;
    for (const Frame& f : batch) {
      EXPECT_EQ(f.pattern_id, aggregator.last_key().pattern_id);
      EXPECT_EQ(f.task, aggregator.last_key().task);
      ids.push_back(f.camera_id * 100 + f.sequence);
    }
    batches.push_back(std::move(ids));
    keys.push_back(aggregator.last_key());
  }
  // Splits at every key change, preserving FIFO: [A,A] [B] [A] [R] [A] [B].
  ASSERT_EQ(batches.size(), 6U);
  EXPECT_EQ(batches[0], (std::vector<std::int64_t>{0, 1}));
  EXPECT_EQ(batches[1], (std::vector<std::int64_t>{100}));
  EXPECT_EQ(batches[2], (std::vector<std::int64_t>{2}));
  EXPECT_EQ(batches[3], (std::vector<std::int64_t>{200}));
  EXPECT_EQ(keys[3].task, Task::kReconstruct);
  EXPECT_EQ(batches[4], (std::vector<std::int64_t>{3}));
  EXPECT_EQ(batches[5], (std::vector<std::int64_t>{101}));
}

// --- fused REC path ----------------------------------------------------------

TEST(BatchedVitEngine, ReconstructBitIdenticalToTapeFramework) {
  // 16x16 (4 tokens) and 32x32 (16 tokens) reach the attention's 4- and
  // 8-lane score blocks respectively.
  for (const std::int64_t image : {16, 32}) {
    core::SnapPixConfig cfg = small_system_config();
    cfg.image = image;
    core::SnapPixSystem system(cfg);
    runtime::BatchedVitEngine engine(*system.classifier(), *system.reconstructor(), 8);
    EXPECT_EQ(engine.frames(), 8);
    Rng rng(31);
    const Tensor batch = Tensor::rand_uniform(Shape{6, image, image}, rng);
    const Tensor tape = system.reconstruct_coded(batch);
    const Tensor fused = engine.reconstruct(batch);
    ASSERT_EQ(tape.shape(), fused.shape());
    for (std::size_t i = 0; i < tape.data().size(); ++i) {
      ASSERT_EQ(tape.data()[i], fused.data()[i])
          << image << "x" << image << ": voxel " << i << " diverges";
    }
    // The same engine still classifies bit-identically (shared trunk).
    const Tensor tape_logits = system.classify_logits_coded(batch);
    const Tensor fused_logits = engine.classify_logits(batch);
    for (std::size_t i = 0; i < tape_logits.data().size(); ++i) {
      ASSERT_EQ(tape_logits.data()[i], fused_logits.data()[i]) << image << "x" << image;
    }
  }
}

TEST(BatchedVitEngine, ReconstructBatchSizeDoesNotChangeBits) {
  core::SnapPixSystem system(small_system_config());
  runtime::BatchedVitEngine engine(*system.classifier(), *system.reconstructor(), 4);
  Rng rng(37);
  const Tensor batch = Tensor::rand_uniform(Shape{5, 16, 16}, rng);
  const Tensor batched = engine.reconstruct(batch);  // chunked as 4 + 1
  const std::int64_t elems = 8 * 16 * 16;
  for (std::int64_t b = 0; b < 5; ++b) {
    std::vector<float> one(batch.data().begin() + b * 256,
                           batch.data().begin() + (b + 1) * 256);
    const Tensor single =
        engine.reconstruct(Tensor::from_vector(std::move(one), Shape{1, 16, 16}));
    for (std::int64_t i = 0; i < elems; ++i) {
      ASSERT_EQ(single.data()[static_cast<std::size_t>(i)],
                batched.data()[static_cast<std::size_t>(b * elems + i)]);
    }
  }
}

// --- Camera encode -----------------------------------------------------------

// A camera encodes on its prebuilt ce::EncodeTable in one pass; its frames
// carry exactly the library's two-step encode-then-normalize bits.
TEST(CameraEncode, MatchesLibraryEncodeThenNormalize) {
  Rng rng(43);
  const ce::CePattern pattern = ce::CePattern::random(8, 8, rng, 0.4F);
  runtime::SyntheticCameraSource camera(0, small_scene(), pattern, /*seed=*/44);
  const data::SyntheticVideoGenerator generator(small_scene());
  Rng clip_rng(44);
  for (int i = 0; i < 3; ++i) {
    const Tensor clip = generator.sample(clip_rng).video;
    const Tensor expected = ce::normalize_by_exposure(
        ce::ce_encode(Tensor::from_vector(clip.data(), Shape{1, 8, 16, 16}), pattern), pattern);
    const Frame frame = camera.next_frame();
    ASSERT_EQ(frame.coded.shape(), (Shape{16, 16}));
    ASSERT_EQ(0, std::memcmp(expected.data().data(), frame.coded.data().data(),
                             expected.data().size() * sizeof(float)));
  }
}

// --- EngineCache -------------------------------------------------------------

std::vector<PatternRef> distinct_patterns(int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<PatternRef> patterns;
  for (int i = 0; i < count; ++i) {
    patterns.push_back(runtime::make_pattern_ref(ce::CePattern::random(8, 8, rng, 0.5F)));
  }
  return patterns;
}

// The factory the cache tests install: a fresh fp32 engine per miss.
EngineCache::EngineFactory fp32_factory(const core::SnapPixSystem& system,
                                        int* builds = nullptr) {
  return [&system, builds](const ce::CePattern&, runtime::Precision) {
    if (builds != nullptr) {
      ++*builds;
    }
    return std::make_shared<runtime::BatchedVitEngine>(*system.classifier(),
                                                       *system.reconstructor(), 4);
  };
}

TEST(EngineCache, CountsHitsAndMisses) {
  core::SnapPixSystem system(small_system_config());
  EngineCacheConfig cfg;
  cfg.capacity = 8;
  EngineCache cache(cfg, fp32_factory(system));
  const auto patterns = distinct_patterns(3, 51);
  for (const auto& p : patterns) {
    cache.resolve(p->hash(), p);  // 3 misses
  }
  for (int lap = 0; lap < 2; ++lap) {
    for (const auto& p : patterns) {
      cache.resolve(p->hash(), p);  // 6 hits
    }
  }
  const auto counters = cache.counters();
  EXPECT_EQ(counters.misses, 3U);
  EXPECT_EQ(counters.hits, 6U);
  EXPECT_EQ(counters.evictions, 0U);
  EXPECT_EQ(cache.resident(), 3U);
  // A hit returns the SAME resident entry, not a rebuild.
  const auto first = cache.resolve(patterns[0]->hash(), patterns[0]);
  const auto second = cache.resolve(patterns[0]->hash(), patterns[0]);
  EXPECT_EQ(first.get(), second.get());
}

TEST(EngineCache, NeverExceedsCapacityAndEvictsLru) {
  core::SnapPixSystem system(small_system_config());
  EngineCacheConfig cfg;
  cfg.capacity = 2;
  int builds = 0;
  EngineCache cache(cfg, fp32_factory(system, &builds));
  const auto patterns = distinct_patterns(3, 53);
  cache.resolve(patterns[0]->hash(), patterns[0]);
  cache.resolve(patterns[1]->hash(), patterns[1]);
  EXPECT_EQ(cache.resident(), 2U);
  cache.resolve(patterns[0]->hash(), patterns[0]);      // touch 0: LRU is now 1
  cache.resolve(patterns[2]->hash(), patterns[2]);      // evicts 1
  EXPECT_EQ(cache.resident(), 2U);                      // capacity held
  EXPECT_EQ(cache.counters().evictions, 1U);
  cache.resolve(patterns[0]->hash(), patterns[0]);      // still resident: hit
  EXPECT_EQ(builds, 3);
  cache.resolve(patterns[1]->hash(), patterns[1]);      // evicted: rebuilt
  EXPECT_EQ(builds, 4);
}

TEST(EngineCache, EvictedPatternRefetchIsBitIdentical) {
  core::SnapPixSystem system(small_system_config());
  EngineCacheConfig cfg;
  cfg.capacity = 1;  // every alternation evicts
  EngineCache cache(cfg, fp32_factory(system));
  const auto patterns = distinct_patterns(2, 57);
  Rng rng(59);
  const Tensor coded = Tensor::rand_uniform(Shape{2, 16, 16}, rng);

  const auto first = cache.resolve(patterns[0]->hash(), patterns[0]);
  const Tensor logits_before = first->engine->classify_logits(coded);
  const Tensor video_before = first->engine->reconstruct(coded);

  cache.resolve(patterns[1]->hash(), patterns[1]);  // evicts pattern 0
  EXPECT_EQ(cache.counters().evictions, 1U);

  const auto rebuilt = cache.resolve(patterns[0]->hash(), patterns[0]);  // refetch
  EXPECT_NE(first.get(), rebuilt.get());  // genuinely rebuilt, not resurrected
  const Tensor logits_after = rebuilt->engine->classify_logits(coded);
  const Tensor video_after = rebuilt->engine->reconstruct(coded);
  for (std::size_t i = 0; i < logits_before.data().size(); ++i) {
    ASSERT_EQ(logits_before.data()[i], logits_after.data()[i]);
  }
  for (std::size_t i = 0; i < video_before.data().size(); ++i) {
    ASSERT_EQ(video_before.data()[i], video_after.data()[i]);
  }
  EXPECT_EQ(cache.counters().misses, 3U);
}

// The bound is one LRU over every resident entry: no subset of the patterns
// (say, those sharing a hash residue) is evicted while the cache has room.
TEST(EngineCache, CapacityBoundsAllEntriesTogether) {
  core::SnapPixSystem system(small_system_config());
  // Three patterns with an even hash and one with an odd hash.
  std::vector<PatternRef> even;
  std::vector<PatternRef> odd;
  for (const PatternRef& p : distinct_patterns(32, 63)) {
    (p->hash() % 2 == 0 ? even : odd).push_back(p);
  }
  ASSERT_GE(even.size(), 3U);
  ASSERT_GE(odd.size(), 1U);
  const std::vector<PatternRef> patterns = {even[0], even[1], even[2], odd[0]};
  EngineCacheConfig cfg;
  cfg.capacity = 4;
  EngineCache cache(cfg, fp32_factory(system));
  for (int lap = 0; lap < 2; ++lap) {
    for (const PatternRef& p : patterns) {
      cache.resolve(p->hash(), p);
    }
  }
  const auto counters = cache.counters();
  EXPECT_EQ(counters.evictions, 0U);
  EXPECT_EQ(counters.hits, 4U);
  EXPECT_EQ(counters.misses, 4U);
  EXPECT_EQ(cache.resident(), 4U);
}

// --- InferenceServer end-to-end ----------------------------------------------

// A heterogeneous fleet — four distinct patterns, both task heads — must
// produce results bit-identical to the sequential SnapPixSystem paths.
TEST(InferenceServer, HeterogeneousFleetMatchesSequentialPaths) {
  core::SnapPixSystem system(small_system_config());
  const auto patterns = distinct_patterns(4, 61);

  ServerConfig config;
  config.batch.max_batch = 4;
  config.cache.capacity = 4;
  InferenceServer server(system, config);

  const std::int64_t frames_per_camera = 4;
  for (int cam = 0; cam < 6; ++cam) {
    auto camera = std::make_unique<runtime::SyntheticCameraSource>(
        cam, small_scene(), patterns[static_cast<std::size_t>(cam % 4)],
        700 + static_cast<std::uint64_t>(cam));
    if (cam >= 4) {
      camera->set_task(Task::kReconstruct);  // cameras 4, 5 request REC
    }
    server.add_camera(std::move(camera));
  }
  const std::vector<TaskResult> results = server.run(frames_per_camera);
  ASSERT_EQ(results.size(), 24U);

  // Sequential reference: identical cameras, tape-based batch-1.
  NoGradGuard guard;
  std::size_t i = 0;
  for (int cam = 0; cam < 6; ++cam) {
    runtime::SyntheticCameraSource camera(cam, small_scene(),
                                          patterns[static_cast<std::size_t>(cam % 4)],
                                          700 + static_cast<std::uint64_t>(cam));
    for (std::int64_t f = 0; f < frames_per_camera; ++f, ++i) {
      const Frame frame = camera.next_frame();
      const Tensor one = Tensor::from_vector(frame.coded.data(), Shape{1, 16, 16});
      ASSERT_EQ(results[i].camera_id, cam);
      ASSERT_EQ(results[i].sequence, f);
      EXPECT_EQ(results[i].pattern_id, patterns[static_cast<std::size_t>(cam % 4)]->hash());
      if (cam < 4) {
        ASSERT_EQ(results[i].task, Task::kClassify);
        EXPECT_EQ(results[i].predicted, system.classify_coded(one)[0])
            << "camera " << cam << " frame " << f << " diverged";
        EXPECT_EQ(results[i].label, frame.label);
      } else {
        ASSERT_EQ(results[i].task, Task::kReconstruct);
        const Tensor expected = system.reconstruct_coded(one);  // (1, T, H, W)
        const Tensor& actual = results[i].reconstruction;       // (T, H, W)
        ASSERT_EQ(actual.shape(), (Shape{8, 16, 16}));
        for (std::size_t v = 0; v < actual.data().size(); ++v) {
          ASSERT_EQ(expected.data()[v], actual.data()[v])
              << "camera " << cam << " frame " << f << " voxel " << v;
        }
      }
    }
  }

  const auto summary = server.summary();
  EXPECT_EQ(summary.frames, 24U);
  EXPECT_EQ(summary.classify_frames, 16U);
  EXPECT_EQ(summary.reconstruct_frames, 8U);
  EXPECT_EQ(summary.cache_misses + summary.cache_hits, summary.batches);
  EXPECT_GT(summary.cache_misses, 0U);
  EXPECT_LE(server.engine_cache().resident(), config.cache.capacity);
}

// --- sharded serving ---------------------------------------------------------

// Builds the heterogeneous AR+REC fleet used by the sharding and framed-
// transport tests: 6 cameras over 4 distinct patterns, the last two
// requesting reconstruction. With `framed`, every camera ships its frames
// through a clean (zero-fault) CSI-2 framed link instead of the in-memory
// hop.
void add_hetero_fleet(InferenceServer& server, const std::vector<PatternRef>& patterns,
                      bool framed = false) {
  for (int cam = 0; cam < 6; ++cam) {
    auto camera = std::make_unique<runtime::SyntheticCameraSource>(
        cam, small_scene(), patterns[static_cast<std::size_t>(cam % 4)],
        700 + static_cast<std::uint64_t>(cam));
    if (cam >= 4) {
      camera->set_task(Task::kReconstruct);
    }
    if (framed) {
      transport::LinkConfig link;
      link.mipi.lanes = 1 + cam % 4;  // mixed lane counts: accounting only
      link.virtual_channel = cam % 4;
      camera->set_framed(link);
    }
    server.add_camera(std::move(camera));
  }
}

// The tentpole invariant: shard count and steal interleaving never change a
// single output bit. Serve the heterogeneous AR+REC fleet at several shard
// counts and require every run to match the single-consumer one exactly.
TEST(ShardedServer, ShardCountNeverChangesBitsOnHeterogeneousFleet) {
  core::SnapPixSystem system(small_system_config());
  const auto patterns = distinct_patterns(4, 61);

  const auto run_with_shards = [&](std::size_t shards) {
    ServerConfig config;
    config.batch.max_batch = 4;
    config.cache.capacity = 4;
    config.shards = shards;
    InferenceServer server(system, config);
    add_hetero_fleet(server, patterns);
    auto results = server.run(4);
    return std::make_pair(std::move(results), server.summary());
  };

  const auto [single, single_summary] = run_with_shards(1);
  ASSERT_EQ(single.size(), 24U);
  for (const std::size_t shards : {2U, 3U, 5U}) {
    const auto [sharded, summary] = run_with_shards(shards);
    EXPECT_EQ(first_divergence(single, sharded), "") << shards << " shards";

    // Per-shard views exist and aggregate to the run totals.
    ASSERT_EQ(summary.shards.size(), shards);
    std::uint64_t shard_frames = 0;
    std::uint64_t shard_batches = 0;
    std::uint64_t shard_hits = 0;
    std::uint64_t shard_misses = 0;
    for (const auto& view : summary.shards) {
      shard_frames += view.frames;
      shard_batches += view.batches;
      shard_hits += view.cache_hits;
      shard_misses += view.cache_misses;
    }
    EXPECT_EQ(shard_frames, summary.frames);
    EXPECT_EQ(shard_batches, summary.batches);
    EXPECT_EQ(shard_hits, summary.cache_hits);
    EXPECT_EQ(shard_misses, summary.cache_misses);
    EXPECT_EQ(summary.frames, single_summary.frames);
  }
}

// A skewed fleet — one hot camera pouring frames while seven cold cameras
// trickle — must (a) record successful steals (idle shards relieving the hot
// one) and (b) stay bit-identical to the single-consumer run.
TEST(ShardedServer, SkewedFleetStealsWorkAndStaysBitIdentical) {
  core::SnapPixSystem system(small_system_config());
  const auto patterns = distinct_patterns(8, 71);

  // Pre-record every camera's stream so producers are memcpy-fast: the hot
  // camera's queue then stays deep under backpressure, which is what gives
  // idle shards something to steal. Camera 0 is hot, 1..7 are cold.
  const std::vector<std::int64_t> frames_per_camera = {64, 4, 4, 4, 4, 4, 4, 4};
  std::vector<std::vector<Tensor>> coded(8);
  std::vector<std::vector<std::int64_t>> labels(8);
  for (int cam = 0; cam < 8; ++cam) {
    runtime::SyntheticCameraSource source(cam, small_scene(),
                                          patterns[static_cast<std::size_t>(cam)],
                                          900 + static_cast<std::uint64_t>(cam));
    for (std::int64_t f = 0; f < frames_per_camera[static_cast<std::size_t>(cam)]; ++f) {
      Frame frame = source.next_frame();
      coded[static_cast<std::size_t>(cam)].push_back(std::move(frame.coded));
      labels[static_cast<std::size_t>(cam)].push_back(frame.label);
    }
  }

  const auto run_with_shards = [&](std::size_t shards) {
    ServerConfig config;
    config.batch.max_batch = 4;
    config.queue_capacity = 8;  // small: keeps the hot producer under backpressure
    config.shards = shards;
    InferenceServer server(system, config);
    for (int cam = 0; cam < 8; ++cam) {
      server.add_camera(std::make_unique<runtime::ReplayCameraSource>(
          cam, patterns[static_cast<std::size_t>(cam)], coded[static_cast<std::size_t>(cam)],
          labels[static_cast<std::size_t>(cam)]));
    }
    auto results = server.run(frames_per_camera);
    return std::make_pair(std::move(results), server.summary());
  };

  const auto [single, single_summary] = run_with_shards(1);
  ASSERT_EQ(single.size(), 92U);  // 64 + 7 * 4
  EXPECT_EQ(single_summary.steal_attempts, 0U);  // one shard has no one to rob

  const auto [sharded, summary] = run_with_shards(4);
  EXPECT_EQ(first_divergence(single, sharded), "");
  EXPECT_GT(summary.steal_attempts, 0U);
  EXPECT_GT(summary.steal_successes, 0U) << "idle shards never relieved the hot one";
  EXPECT_GT(summary.stolen_frames, 0U);
  ASSERT_EQ(summary.shards.size(), 4U);
  const std::uint64_t stolen =
      std::accumulate(summary.shards.begin(), summary.shards.end(), std::uint64_t{0},
                      [](std::uint64_t acc, const runtime::ShardStatsView& v) {
                        return acc + v.stolen_frames;
                      });
  EXPECT_EQ(stolen, summary.stolen_frames);
}

// --- framed transport serving ------------------------------------------------

// The framed-path invariant: at zero fault rate, serializing every frame into
// CSI-2 packets and reassembling it on the far side must not change a single
// served bit — for any shard count.
TEST(FramedServing, ZeroFaultFramedPathBitIdenticalAcrossShards) {
  core::SnapPixSystem system(small_system_config());
  const auto patterns = distinct_patterns(4, 61);

  const auto run_fleet = [&](bool framed, std::size_t shards) {
    ServerConfig config;
    config.batch.max_batch = 4;
    config.cache.capacity = 4;
    config.shards = shards;
    InferenceServer server(system, config);
    add_hetero_fleet(server, patterns, framed);
    auto results = server.run(4);
    return std::make_pair(std::move(results), server.summary());
  };

  const auto [in_memory, in_memory_summary] = run_fleet(false, 1);
  ASSERT_EQ(in_memory.size(), 24U);
  EXPECT_EQ(in_memory_summary.transport.framed_frames, 0U);  // nothing framed

  for (const std::size_t shards : {1U, 3U}) {
    const auto [framed, summary] = run_fleet(true, shards);
    EXPECT_EQ(first_divergence(in_memory, framed), "") << shards << " shards";

    // Every frame crossed the framed link, intact, with nothing dropped.
    EXPECT_EQ(summary.transport.framed_frames, 24U);
    EXPECT_EQ(summary.transport.ok_frames, 24U);
    EXPECT_EQ(summary.transport.crc_errors, 0U);
    EXPECT_EQ(summary.transport.truncated, 0U);
    EXPECT_EQ(summary.transport.missing_lines, 0U);
    EXPECT_EQ(summary.transport.dropped_frames, 0U);
    EXPECT_EQ(summary.transport.retransmits, 0U);
    ASSERT_EQ(summary.transport_cameras.size(), 6U);
    for (const auto& [camera_id, counters] : summary.transport_cameras) {
      EXPECT_EQ(counters.framed_frames, 4U) << "camera " << camera_id;
      EXPECT_EQ(counters.ok_frames, 4U) << "camera " << camera_id;
    }
    // Framed wire accounting carries the float32 payload plus packet
    // overhead: 16 rows of (4 + 64 + 2) + FS/FE, per frame.
    EXPECT_EQ(summary.wire_bytes, 24U * (2 * 4U + 16U * (4U + 64U + 2U)));
  }
}

// At a nonzero drop rate under the kDrop policy, the per-camera dropped_frames
// counters must match the links' injected ground truth EXACTLY, and every
// frame that did survive must serve bit-identically to the in-memory run.
TEST(FramedServing, DropPolicyCountsMatchInjectedDropsExactly) {
  core::SnapPixSystem system(small_system_config());
  const auto patterns = distinct_patterns(3, 83);
  const std::int64_t frames_per_camera = 24;

  // Pre-record each camera's stream so the framed and in-memory runs replay
  // identical payloads.
  std::vector<std::vector<Tensor>> coded(3);
  std::vector<std::vector<std::int64_t>> labels(3);
  for (int cam = 0; cam < 3; ++cam) {
    runtime::SyntheticCameraSource source(cam, small_scene(),
                                          patterns[static_cast<std::size_t>(cam)],
                                          500 + static_cast<std::uint64_t>(cam));
    for (std::int64_t f = 0; f < frames_per_camera; ++f) {
      Frame frame = source.next_frame();
      coded[static_cast<std::size_t>(cam)].push_back(std::move(frame.coded));
      labels[static_cast<std::size_t>(cam)].push_back(frame.label);
    }
  }

  const auto run_fleet = [&](double drop_rate) {
    ServerConfig config;
    config.batch.max_batch = 4;
    config.transport.corrupt = runtime::TransportPolicy::Corrupt::kDrop;
    InferenceServer server(system, config);
    std::vector<const runtime::CameraSource*> cameras;
    for (int cam = 0; cam < 3; ++cam) {
      auto camera = std::make_unique<runtime::ReplayCameraSource>(
          cam, patterns[static_cast<std::size_t>(cam)],
          coded[static_cast<std::size_t>(cam)], labels[static_cast<std::size_t>(cam)]);
      if (cam == 2) {
        camera->set_task(Task::kReconstruct);
      }
      transport::LinkConfig link;
      link.faults.packet_drop_rate = drop_rate;
      link.faults.seed = 40 + static_cast<std::uint64_t>(cam);
      camera->set_framed(link);
      cameras.push_back(camera.get());  // owned by the server; alive until it dies
      server.add_camera(std::move(camera));
    }
    auto results = server.run(frames_per_camera);
    std::vector<transport::FaultStats> injected;
    for (const auto* camera : cameras) {
      injected.push_back(camera->framed_link()->injector().stats());
    }
    return std::make_tuple(std::move(results), server.summary(), std::move(injected));
  };

  const auto [clean, clean_summary, clean_injected] = run_fleet(0.0);
  ASSERT_EQ(clean.size(), 72U);
  EXPECT_EQ(clean_summary.transport.dropped_frames, 0U);

  const auto [lossy, summary, injected] = run_fleet(0.05);
  // Exactness, fleet-wide and per camera: a frame is dropped IFF its link
  // injected at least one fault into it (drop-only faults).
  std::uint64_t injected_total = 0;
  ASSERT_EQ(summary.transport_cameras.size(), 3U);
  for (std::size_t cam = 0; cam < 3; ++cam) {
    const auto& [camera_id, counters] = summary.transport_cameras[cam];
    ASSERT_EQ(camera_id, static_cast<int>(cam));
    EXPECT_EQ(counters.dropped_frames, injected[cam].frames_faulted)
        << "camera " << cam << " drop counter diverges from injected ground truth";
    EXPECT_EQ(counters.framed_frames, static_cast<std::uint64_t>(frames_per_camera));
    EXPECT_EQ(counters.ok_frames + counters.dropped_frames,
              static_cast<std::uint64_t>(frames_per_camera));
    injected_total += injected[cam].frames_faulted;
  }
  EXPECT_GT(injected_total, 0U);  // the drop rate actually bit
  EXPECT_EQ(summary.transport.dropped_frames, injected_total);
  EXPECT_EQ(lossy.size(), 72U - injected_total);
  EXPECT_EQ(summary.frames, 72U - injected_total);

  // Deterministic across runs: same seeds, same drops.
  const auto [lossy2, summary2, injected2] = run_fleet(0.05);
  ASSERT_EQ(lossy2.size(), lossy.size());
  EXPECT_EQ(summary2.transport.dropped_frames, summary.transport.dropped_frames);

  // The frames that survived are bit-identical to their in-memory versions.
  std::size_t clean_idx = 0;
  for (const TaskResult& result : lossy) {
    while (clean_idx < clean.size() &&
           (clean[clean_idx].camera_id != result.camera_id ||
            clean[clean_idx].sequence != result.sequence)) {
      ++clean_idx;  // both runs are (camera, sequence)-sorted: walk forward
    }
    ASSERT_LT(clean_idx, clean.size())
        << "served frame (" << result.camera_id << ", " << result.sequence
        << ") missing from the clean run";
    const TaskResult& expected = clean[clean_idx];
    EXPECT_EQ(result.predicted, expected.predicted);
    if (result.task != Task::kReconstruct) {
      continue;  // classify results carry no (defined) reconstruction tensor
    }
    ASSERT_EQ(result.reconstruction.data().size(), expected.reconstruction.data().size());
    for (std::size_t v = 0; v < result.reconstruction.data().size(); ++v) {
      ASSERT_EQ(result.reconstruction.data()[v], expected.reconstruction.data()[v]);
    }
  }
}

// The kRetransmit policy re-runs corrupt transfers with fresh fault draws:
// with a generous budget every frame eventually lands intact, the full fleet
// serves bit-identically to the clean run, and the retries show up in the
// retransmit counters.
TEST(FramedServing, RetransmitPolicyRecoversEveryFrame) {
  core::SnapPixSystem system(small_system_config());
  const auto patterns = distinct_patterns(2, 89);

  const auto run_fleet = [&](double drop_rate, runtime::TransportPolicy policy) {
    ServerConfig config;
    config.batch.max_batch = 4;
    config.transport = policy;
    InferenceServer server(system, config);
    for (int cam = 0; cam < 2; ++cam) {
      auto camera = std::make_unique<runtime::SyntheticCameraSource>(
          cam, small_scene(), patterns[static_cast<std::size_t>(cam)],
          300 + static_cast<std::uint64_t>(cam));
      transport::LinkConfig link;
      link.faults.packet_drop_rate = drop_rate;
      link.faults.seed = 60 + static_cast<std::uint64_t>(cam);
      camera->set_framed(link);
      server.add_camera(std::move(camera));
    }
    auto results = server.run(16);
    return std::make_pair(std::move(results), server.summary());
  };

  runtime::TransportPolicy retry;
  retry.corrupt = runtime::TransportPolicy::Corrupt::kRetransmit;
  retry.max_retransmits = 64;  // generous: a 2% drop rate recovers in a few tries

  const auto [clean, clean_summary] = run_fleet(0.0, retry);
  const auto [recovered, summary] = run_fleet(0.02, retry);
  ASSERT_EQ(clean.size(), 32U);
  EXPECT_EQ(first_divergence(clean, recovered), "");  // nothing lost, nothing changed
  EXPECT_EQ(summary.transport.framed_frames, 32U);
  EXPECT_EQ(summary.transport.ok_frames, 32U);
  EXPECT_EQ(summary.transport.dropped_frames, 0U);
  EXPECT_GT(summary.transport.retransmits, 0U) << "the drop rate never bit — raise it?";
}

// Progressive decode through serving: on an entropy-coded link, classify
// frames travel as the top `set_codec_planes` bit-planes while
// reconstruct frames ride at full depth — and every served bit must equal an
// in-memory reference that pre-applies the same quantize/truncate transform.
// Truncation changes pixel fidelity, never WHICH frames are served.
TEST(FramedServing, CodecLinkServesProgressiveDepthBitExactly) {
  core::SnapPixSystem system(small_system_config());
  const auto patterns = distinct_patterns(2, 97);
  const std::int64_t frames_per_camera = 12;
  const int depth = 6;

  // Record both cameras' streams once so every arm replays identical payloads.
  std::vector<std::vector<Tensor>> coded(2);
  std::vector<std::vector<std::int64_t>> labels(2);
  for (int cam = 0; cam < 2; ++cam) {
    runtime::SyntheticCameraSource source(cam, small_scene(),
                                          patterns[static_cast<std::size_t>(cam)],
                                          700 + static_cast<std::uint64_t>(cam));
    for (std::int64_t f = 0; f < frames_per_camera; ++f) {
      Frame frame = source.next_frame();
      coded[static_cast<std::size_t>(cam)].push_back(std::move(frame.coded));
      labels[static_cast<std::size_t>(cam)].push_back(frame.label);
    }
  }

  // What the codec wire should deliver for a frame shipped at `planes` depth.
  const auto wire_view = [](const Tensor& frame, int planes) {
    const codec::QuantizedFrame q = codec::quantize_frame(frame);
    const codec::PlaneStream stream = codec::encode_bitplanes(q);
    return codec::dequantize_frame(codec::decode_bitplanes(stream, planes).frame);
  };

  const auto build_fleet = [&](InferenceServer& server, bool codec_framed,
                               const runtime::TransportPolicy* policy,
                               double drop_rate) {
    for (int cam = 0; cam < 2; ++cam) {
      std::vector<Tensor> stream;
      for (const Tensor& frame : coded[static_cast<std::size_t>(cam)]) {
        // The reference fleet replays the wire view in memory: classify
        // truncated at `depth`, reconstruct at full depth.
        stream.push_back(codec_framed ? frame : wire_view(frame, cam == 0 ? depth : 0));
      }
      auto camera = std::make_unique<runtime::ReplayCameraSource>(
          cam, patterns[static_cast<std::size_t>(cam)], std::move(stream),
          labels[static_cast<std::size_t>(cam)]);
      if (cam == 1) {
        camera->set_task(Task::kReconstruct);
      }
      camera->set_codec_planes(depth);  // reconstruct frames ignore it
      if (codec_framed) {
        transport::LinkConfig link;
        link.codec = true;
        link.faults.packet_drop_rate = drop_rate;
        link.faults.seed = 70 + static_cast<std::uint64_t>(cam);
        camera->set_framed(link);
      }
      server.add_camera(std::move(camera));
      (void)policy;
    }
  };

  const auto run_fleet = [&](bool codec_framed, double drop_rate,
                             const runtime::TransportPolicy* policy) {
    ServerConfig config;
    config.batch.max_batch = 4;
    if (policy != nullptr) {
      config.transport = *policy;
    }
    InferenceServer server(system, config);
    build_fleet(server, codec_framed, policy, drop_rate);
    auto results = server.run(frames_per_camera);
    return std::make_pair(std::move(results), server.summary());
  };

  const auto [reference, reference_summary] = run_fleet(false, 0.0, nullptr);
  ASSERT_EQ(reference.size(), 24U);
  EXPECT_EQ(reference_summary.transport.codec_frames, 0U);

  const auto [served, summary] = run_fleet(true, 0.0, nullptr);
  EXPECT_EQ(first_divergence(reference, served), "");

  // Conservation: every framed frame crossed the codec link intact, the
  // classify camera left depth on the wire, the reconstruct camera did not.
  EXPECT_EQ(summary.transport.framed_frames, 24U);
  EXPECT_EQ(summary.transport.codec_frames, 24U);
  EXPECT_EQ(summary.transport.ok_frames, 24U);
  EXPECT_EQ(summary.transport.dropped_frames, 0U);
  EXPECT_GT(summary.transport.codec_planes_decoded, 0U);
  EXPECT_LT(summary.transport.codec_planes_decoded, summary.transport.codec_planes_total);
  ASSERT_EQ(summary.transport_cameras.size(), 2U);
  for (const auto& [camera_id, counters] : summary.transport_cameras) {
    EXPECT_EQ(counters.codec_frames, static_cast<std::uint64_t>(frames_per_camera))
        << "camera " << camera_id;
    if (camera_id == 1) {  // reconstruct: full depth, nothing truncated
      EXPECT_EQ(counters.codec_planes_decoded, counters.codec_planes_total);
    } else {  // classify: capped at `depth` planes per frame
      EXPECT_LE(counters.codec_planes_decoded,
                static_cast<std::uint64_t>(frames_per_camera) * depth);
      EXPECT_LT(counters.codec_planes_decoded, counters.codec_planes_total);
    }
  }

  // Under kRetransmit on a lossy link, recovery must restore the exact same
  // served bits and the counters must stay conserved (ok + dropped == framed).
  runtime::TransportPolicy retry;
  retry.corrupt = runtime::TransportPolicy::Corrupt::kRetransmit;
  retry.max_retransmits = 64;
  const auto [recovered, lossy_summary] = run_fleet(true, 0.02, &retry);
  EXPECT_EQ(first_divergence(reference, recovered), "");
  EXPECT_EQ(lossy_summary.transport.framed_frames, 24U);
  EXPECT_EQ(lossy_summary.transport.codec_frames, 24U);
  EXPECT_EQ(lossy_summary.transport.ok_frames + lossy_summary.transport.dropped_frames,
            24U);
  EXPECT_EQ(lossy_summary.transport.dropped_frames, 0U);
  EXPECT_GT(lossy_summary.transport.retransmits, 0U)
      << "the drop rate never bit — raise it?";
  EXPECT_EQ(lossy_summary.transport.codec_planes_decoded,
            summary.transport.codec_planes_decoded);
}

TEST(FramedServing, ValidatesTransportPolicy) {
  core::SnapPixSystem system(small_system_config());
  ServerConfig cfg;
  cfg.transport.max_retransmits = -1;
  EXPECT_THROW(InferenceServer(system, cfg), std::invalid_argument);
}

TEST(ShardedServer, ValidatesShardConfiguration) {
  core::SnapPixSystem system(small_system_config());
  {
    ServerConfig cfg;
    cfg.shards = 0;
    EXPECT_THROW(InferenceServer(system, cfg), std::invalid_argument);
  }
  {
    // Per-camera frame counts must be parallel to the fleet and positive.
    InferenceServer server(system, {});
    server.add_camera(std::make_unique<runtime::SyntheticCameraSource>(
        0, small_scene(), system.pattern_ref(), 1));
    EXPECT_THROW(server.run(std::vector<std::int64_t>{1, 1}), std::runtime_error);
  }
}

TEST(InferenceServer, RunIsOneShot) {
  core::SnapPixSystem system(small_system_config());
  InferenceServer server(system, {});
  server.add_camera(std::make_unique<runtime::SyntheticCameraSource>(
      0, small_scene(), system.pattern_ref(), 1));
  (void)server.run(1);
  EXPECT_THROW(server.run(1), std::runtime_error);
}

// --- serving-thread failure --------------------------------------------------

// A camera whose capture throws at sequence 2: a defect, not a link fault,
// so it must fail the run.
class UnpluggedCamera : public runtime::SyntheticCameraSource {
 public:
  UnpluggedCamera(int id, PatternRef pattern)
      : SyntheticCameraSource(id, small_scene(), std::move(pattern), 900) {}

 protected:
  Frame capture_frame() override {
    if (next_sequence_ == 2) {
      throw std::runtime_error("sensor unplugged");
    }
    return SyntheticCameraSource::capture_frame();
  }
};

// Replays 8x8 frames into a fleet served at 16x16: the shard worker that
// batches them throws (the engine rejects the geometry, or stack_coded a
// mixed batch).
std::unique_ptr<runtime::CameraSource> misshapen_camera(int id, PatternRef pattern) {
  Rng rng(77);
  std::vector<Tensor> coded{Tensor::rand_uniform(Shape{8, 8}, rng)};
  return std::make_unique<runtime::ReplayCameraSource>(id, std::move(pattern), std::move(coded),
                                                       std::vector<std::int64_t>{});
}

// What run(frames) threw, or "" when it returned.
std::string run_failure(InferenceServer& server, std::int64_t frames) {
  try {
    (void)server.run(frames);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// The first exception on any serving thread stops the run, and run() throws
// it once every thread has joined. A producer's failure names its camera, a
// shard worker's names its shard.
TEST(InferenceServer, ProducerOrWorkerFailureFailsTheRun) {
  core::SnapPixSystem system(small_system_config());
  ServerConfig config;
  config.shards = 2;
  {
    InferenceServer server(system, config);
    server.add_camera(std::make_unique<runtime::SyntheticCameraSource>(
        0, small_scene(), system.pattern_ref(), 1));
    server.add_camera(std::make_unique<UnpluggedCamera>(1, system.pattern_ref()));
    const std::string what = run_failure(server, 5);
    EXPECT_NE(what.find("camera 1 failed: "), std::string::npos) << what;
    EXPECT_NE(what.find("sensor unplugged"), std::string::npos) << what;
    EXPECT_NO_THROW((void)server.metrics_snapshot());
  }
  {
    InferenceServer server(system, config);
    server.add_camera(std::make_unique<runtime::SyntheticCameraSource>(
        0, small_scene(), system.pattern_ref(), 1));
    server.add_camera(misshapen_camera(1, system.pattern_ref()));
    const std::string what = run_failure(server, 5);
    EXPECT_NE(what.find(" worker failed: "), std::string::npos) << what;
  }
}

// A failure wakes producers sleeping in retransmit backoff: camera 0's dead
// link would otherwise sleep out 5 frames x 20 retries x 200 ms = 20 s.
TEST(InferenceServer, FailureWakesProducersInRetransmitBackoff) {
  core::SnapPixSystem system(small_system_config());
  ServerConfig config;
  config.shards = 2;
  config.transport.corrupt = runtime::TransportPolicy::Corrupt::kRetransmit;
  config.transport.max_retransmits = 20;
  config.transport.backoff_initial = std::chrono::milliseconds(200);
  config.transport.backoff_max = std::chrono::milliseconds(200);
  InferenceServer server(system, config);
  auto dead = std::make_unique<runtime::SyntheticCameraSource>(0, small_scene(),
                                                               system.pattern_ref(), 1);
  transport::LinkConfig link;
  link.faults.packet_drop_rate = 1.0;
  dead->set_framed(link);
  server.add_camera(std::move(dead));
  server.add_camera(misshapen_camera(1, system.pattern_ref()));
  const auto t0 = std::chrono::steady_clock::now();
  const std::string what = run_failure(server, 5);
  const auto took = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(took.count(), 2000) << "run() took " << took.count() << " ms";
  EXPECT_NE(what.find(" worker failed: "), std::string::npos) << what;
}

}  // namespace
}  // namespace snappix

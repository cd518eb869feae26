// Streaming runtime tests: queue semantics, batching determinism against the
// sequential tape path, the fused engine's bit-exactness contract, and a
// 4-camera InferenceServer smoke test over all camera adapters.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "codec/bitplane.h"
#include "core/snappix.h"
#include "runtime/batcher.h"
#include "runtime/camera.h"
#include "runtime/engine.h"
#include "runtime/frame_queue.h"
#include "runtime/server.h"
#include "runtime/stats.h"
#include "serving_fixtures.h"
#include "util/rng.h"

namespace snappix {
namespace {

using fixtures::small_scene;
using fixtures::small_system_config;
using runtime::BatchAggregator;
using runtime::BatchPolicy;
using runtime::Frame;
using runtime::FrameQueue;
using runtime::InferenceServer;
using runtime::PushResult;
using runtime::ServerConfig;

Frame make_frame(int camera, std::int64_t sequence) {
  Frame frame;
  frame.camera_id = camera;
  frame.sequence = sequence;
  frame.coded = Tensor::full(Shape{4, 4}, static_cast<float>(sequence));
  return frame;
}

// --- FrameQueue --------------------------------------------------------------

TEST(FrameQueue, PreservesFifoOrder) {
  FrameQueue queue(8);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(queue.admit(make_frame(0, i)), PushResult::kAccepted);
  }
  queue.close();
  Frame out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out.sequence, i);
  }
  EXPECT_FALSE(queue.pop(out));  // closed and drained
}

TEST(FrameQueue, AdmitBlocksWhenFullUntilPopped) {
  FrameQueue queue(2);
  ASSERT_EQ(queue.admit(make_frame(0, 0)), PushResult::kAccepted);
  ASSERT_EQ(queue.admit(make_frame(0, 1)), PushResult::kAccepted);
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    // Must block on the full queue.
    EXPECT_EQ(queue.admit(make_frame(0, 2)), PushResult::kAccepted);
    third_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(third_pushed.load());  // backpressure held the producer
  Frame out;
  ASSERT_TRUE(queue.pop(out));
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(queue.depth(), 2U);
  EXPECT_EQ(queue.high_water_mark(), 2U);
}

TEST(FrameQueue, CloseUnblocksProducerAndConsumer) {
  FrameQueue queue(1);
  ASSERT_EQ(queue.admit(make_frame(0, 0)), PushResult::kAccepted);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.close();
  });
  // Blocked on the full queue, then failed on close.
  EXPECT_EQ(queue.admit(make_frame(0, 1)), PushResult::kClosed);
  closer.join();
  Frame out;
  EXPECT_TRUE(queue.pop(out));   // drains the remaining frame
  EXPECT_FALSE(queue.pop(out));  // then reports closed
  EXPECT_EQ(queue.admit(make_frame(0, 2)), PushResult::kClosed);
}

TEST(FrameQueue, PopUntilTimesOutOnEmptyQueue) {
  FrameQueue queue(2);
  Frame out;
  const auto t0 = runtime::Clock::now();
  EXPECT_FALSE(queue.pop_until(out, t0 + std::chrono::milliseconds(15)));
  EXPECT_GE(runtime::Clock::now() - t0, std::chrono::milliseconds(10));
}

// --- BatchAggregator ---------------------------------------------------------

TEST(BatchAggregator, RespectsMaxBatchAndFifo) {
  FrameQueue queue(16);
  for (int i = 0; i < 7; ++i) {
    ASSERT_EQ(queue.admit(make_frame(i % 2, i)), PushResult::kAccepted);
  }
  queue.close();
  BatchPolicy policy;
  policy.max_batch = 3;
  BatchAggregator aggregator(queue, policy);
  std::vector<Frame> batch;
  std::vector<std::int64_t> order;
  std::vector<std::size_t> sizes;
  while (aggregator.next_batch(batch)) {
    sizes.push_back(batch.size());
    for (const Frame& f : batch) {
      order.push_back(f.sequence);
    }
  }
  EXPECT_EQ(sizes, (std::vector<std::size_t>{3, 3, 1}));
  EXPECT_EQ(order, (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(BatchAggregator, GreedyPolicyNeverWaits) {
  FrameQueue queue(16);
  ASSERT_EQ(queue.admit(make_frame(0, 0)), PushResult::kAccepted);
  BatchPolicy policy;
  policy.max_batch = 8;
  policy.max_delay = std::chrono::microseconds(0);
  BatchAggregator aggregator(queue, policy);
  std::vector<Frame> batch;
  const auto t0 = runtime::Clock::now();
  ASSERT_TRUE(aggregator.next_batch(batch));
  EXPECT_LT(runtime::Clock::now() - t0, std::chrono::milliseconds(100));
  EXPECT_EQ(batch.size(), 1U);
  queue.close();
}

TEST(BatchAggregator, StackMatchesFrameContents) {
  std::vector<Frame> frames = {make_frame(0, 3), make_frame(1, 5)};
  const Tensor stacked = BatchAggregator::stack_coded(frames);
  EXPECT_EQ(stacked.shape(), (Shape{2, 4, 4}));
  EXPECT_FLOAT_EQ(stacked.at({0, 0, 0}), 3.0F);
  EXPECT_FLOAT_EQ(stacked.at({1, 3, 3}), 5.0F);
}

// --- fused engine bit-exactness ----------------------------------------------

// Both engine geometries: 16x16 is 4 tokens (the attention's 4-lane score
// block), 32x32 is 16 tokens (its 8-lane score block, as served at SnapPix-S).
constexpr std::array<std::int64_t, 2> kEngineImages = {16, 32};

TEST(BatchedVitEngine, BitIdenticalToTapeFramework) {
  for (const std::int64_t image : kEngineImages) {
    core::SnapPixConfig cfg = small_system_config();
    cfg.image = image;
    core::SnapPixSystem system(cfg);
    runtime::BatchedVitEngine engine(*system.classifier(), *system.reconstructor(), 8);
    Rng rng(11);
    const Tensor batch = Tensor::rand_uniform(Shape{8, image, image}, rng);
    const Tensor tape = system.classify_logits_coded(batch);
    const Tensor fused = engine.classify_logits(batch);
    ASSERT_EQ(tape.shape(), fused.shape());
    for (std::size_t i = 0; i < tape.data().size(); ++i) {
      ASSERT_EQ(tape.data()[i], fused.data()[i])
          << image << "x" << image << ": logit " << i << " diverges";
    }
  }
}

TEST(BatchedVitEngine, BatchSizeDoesNotChangeBits) {
  for (const std::int64_t image : kEngineImages) {
    core::SnapPixConfig cfg = small_system_config();
    cfg.image = image;
    core::SnapPixSystem system(cfg);
    runtime::BatchedVitEngine engine(*system.classifier(), *system.reconstructor(), 8);
    Rng rng(13);
    const Tensor batch = Tensor::rand_uniform(Shape{5, image, image}, rng);
    const Tensor batched = engine.classify_logits(batch);
    const std::int64_t pixels = image * image;
    for (std::int64_t b = 0; b < 5; ++b) {
      std::vector<float> one(batch.data().begin() + b * pixels,
                             batch.data().begin() + (b + 1) * pixels);
      const Tensor single =
          engine.classify_logits(Tensor::from_vector(std::move(one), Shape{1, image, image}));
      for (std::int64_t c = 0; c < 4; ++c) {
        ASSERT_EQ(single.data()[static_cast<std::size_t>(c)],
                  batched.data()[static_cast<std::size_t>(b * 4 + c)])
            << image << "x" << image << ": frame " << b << " class " << c;
      }
    }
  }
}

TEST(BatchedVitEngine, ChunksOversizedBatches) {
  core::SnapPixSystem system(small_system_config());
  runtime::BatchedVitEngine small_ws(*system.classifier(), *system.reconstructor(), 2);
  runtime::BatchedVitEngine large_ws(*system.classifier(), *system.reconstructor(), 16);
  Rng rng(17);
  const Tensor batch = Tensor::rand_uniform(Shape{7, 16, 16}, rng);
  const Tensor chunked = small_ws.classify_logits(batch);
  const Tensor whole = large_ws.classify_logits(batch);
  for (std::size_t i = 0; i < whole.data().size(); ++i) {
    ASSERT_EQ(chunked.data()[i], whole.data()[i]);
  }
}

// --- batched serving entry points --------------------------------------------

TEST(SnapPixSystemCoded, CodedEntryPointsMatchVideoPaths) {
  core::SnapPixSystem system(small_system_config());
  Rng rng(19);
  const Tensor videos = Tensor::rand_uniform(Shape{3, 8, 16, 16}, rng);
  const Tensor coded = system.encode(videos);  // already exposure-normalized
  // classify/reconstruct on pre-coded frames must equal the video paths.
  EXPECT_EQ(system.classify_coded(coded), system.classify(videos));
  const Tensor via_video = system.reconstruct(videos);
  const Tensor via_coded = system.reconstruct_coded(coded);
  ASSERT_EQ(via_video.shape(), via_coded.shape());
  for (std::size_t i = 0; i < via_video.data().size(); ++i) {
    ASSERT_EQ(via_video.data()[i], via_coded.data()[i]);
  }
}

// --- cameras -----------------------------------------------------------------

TEST(CameraSource, SyntheticIsDeterministicGivenSeed) {
  const ce::CePattern pattern = ce::CePattern::long_exposure(8, 8);
  runtime::SyntheticCameraSource a(0, small_scene(), pattern, 99);
  runtime::SyntheticCameraSource b(0, small_scene(), pattern, 99);
  for (int i = 0; i < 3; ++i) {
    const Frame fa = a.next_frame();
    const Frame fb = b.next_frame();
    EXPECT_EQ(fa.sequence, i);
    EXPECT_EQ(fa.label, fb.label);
    EXPECT_EQ(fa.coded.data(), fb.coded.data());
  }
}

TEST(CameraSource, ReplayLoopsRecordedFrames) {
  const ce::CePattern pattern = ce::CePattern::long_exposure(8, 8);
  runtime::SyntheticCameraSource source(2, small_scene(), pattern, 5);
  auto replay = runtime::ReplayCameraSource::record(source, 3);
  std::vector<std::vector<float>> first_pass;
  for (int i = 0; i < 3; ++i) {
    first_pass.push_back(replay->next_frame().coded.data());
  }
  for (int i = 0; i < 3; ++i) {  // second lap replays the same bytes
    EXPECT_EQ(replay->next_frame().coded.data(), first_pass[static_cast<std::size_t>(i)]);
  }
}

// record() copies every serving knob of its source: a replay of an int8
// camera is served at int8, with the source's QoS, deadline budget and
// classify codec depth.
TEST(CameraSource, RecordMirrorsPrecisionOverride) {
  core::SnapPixSystem system(small_system_config());
  runtime::SyntheticCameraSource source(0, small_scene(), system.pattern(), 5);
  source.set_precision(runtime::Precision::kInt8);
  source.set_qos(runtime::QosClass::kRealtime);
  source.set_deadline_budget(std::chrono::hours(1));  // long enough to shed nothing
  source.set_codec_planes(9);
  auto replay = runtime::ReplayCameraSource::record(source, 2);
  EXPECT_EQ(replay->precision(), runtime::Precision::kInt8);
  EXPECT_EQ(replay->qos(), runtime::QosClass::kRealtime);
  EXPECT_EQ(replay->deadline_budget(), std::chrono::hours(1));
  EXPECT_EQ(replay->classify_codec_planes(), 9);

  InferenceServer server(system, ServerConfig{});
  server.add_camera(std::move(replay));
  const std::vector<runtime::TaskResult> results = server.run(2);
  ASSERT_EQ(results.size(), 2U);
  for (const runtime::TaskResult& r : results) {
    EXPECT_EQ(r.precision, runtime::Precision::kInt8) << "sequence " << r.sequence;
  }
}

// Out-of-range knobs fail when they are set: a codec depth the link cannot
// ship would otherwise throw inside the producer on the camera's first frame,
// and the camera would drop out of the run with nothing served.
TEST(CameraSource, RejectsOutOfRangeKnobs) {
  runtime::SyntheticCameraSource camera(0, small_scene(), ce::CePattern::long_exposure(8, 8), 5);
  camera.set_codec_planes(codec::kMaxBitplanes);
  camera.set_deadline_budget(std::chrono::microseconds(250));
  EXPECT_THROW(camera.set_codec_planes(codec::kMaxBitplanes + 1), std::invalid_argument);
  EXPECT_THROW(camera.set_codec_planes(-1), std::invalid_argument);
  EXPECT_THROW(camera.set_deadline_budget(std::chrono::microseconds(-1)),
               std::invalid_argument);
  // A rejected value leaves the knob as it was.
  EXPECT_EQ(camera.classify_codec_planes(), codec::kMaxBitplanes);
  EXPECT_EQ(camera.deadline_budget(), std::chrono::microseconds(250));
  camera.set_codec_planes(0);
  camera.set_deadline_budget(std::chrono::microseconds(0));
  EXPECT_EQ(camera.classify_codec_planes(), 0);
  EXPECT_EQ(camera.deadline_budget(), std::chrono::microseconds(0));
}

TEST(CameraSource, SensorCameraReportsSimulatedWireBytes) {
  core::SnapPixSystem system(small_system_config());
  Rng rng(23);
  const ce::CePattern pattern = ce::CePattern::random(8, 8, rng, 0.5F);
  runtime::SensorCameraSource camera(1, system.default_sensor_config(), small_scene(),
                                     pattern, 77);
  const Frame frame = camera.next_frame();
  EXPECT_EQ(frame.coded.shape(), (Shape{16, 16}));
  EXPECT_GT(frame.wire_bytes, 0U);
  EXPECT_EQ(frame.raw_bytes, frame.wire_bytes * 8U);  // T = 8 readout reduction
}

// --- end-to-end --------------------------------------------------------------

// Batched async serving must produce exactly the predictions of the
// sequential single-camera path, frame for frame.
TEST(InferenceServer, BatchedMatchesSequentialPath) {
  core::SnapPixSystem system(small_system_config());
  Rng rng(29);
  // A non-trivial pattern so encode/normalize paths are exercised.
  system.set_pattern(ce::CePattern::random(8, 8, rng, 0.5F));

  const std::int64_t frames_per_camera = 6;
  ServerConfig config;
  config.batch.max_batch = 4;
  InferenceServer server(system, config);
  for (int cam = 0; cam < 4; ++cam) {
    server.add_camera(std::make_unique<runtime::SyntheticCameraSource>(
        cam, small_scene(), system.pattern(), 500 + static_cast<std::uint64_t>(cam)));
  }
  const auto batched = server.run(frames_per_camera);
  ASSERT_EQ(batched.size(), 24U);

  // Sequential reference: identical cameras (same seeds), tape-based batch-1.
  NoGradGuard guard;
  std::size_t i = 0;
  for (int cam = 0; cam < 4; ++cam) {
    runtime::SyntheticCameraSource camera(cam, small_scene(), system.pattern(),
                                          500 + static_cast<std::uint64_t>(cam));
    for (std::int64_t f = 0; f < frames_per_camera; ++f, ++i) {
      const Frame frame = camera.next_frame();
      const Tensor one = Tensor::from_vector(frame.coded.data(), Shape{1, 16, 16});
      const auto predicted = system.classify_coded(one)[0];
      EXPECT_EQ(batched[i].camera_id, cam);
      EXPECT_EQ(batched[i].sequence, f);
      EXPECT_EQ(batched[i].predicted, predicted)
          << "camera " << cam << " frame " << f << " diverged from sequential path";
      EXPECT_EQ(batched[i].label, frame.label);
    }
  }
}

TEST(InferenceServer, FourCameraSmokeAllAdapterKinds) {
  core::SnapPixSystem system(small_system_config());
  auto dataset_config = data::ucf101_like(/*frames=*/8, /*size=*/16);
  dataset_config.scene.num_classes = 4;
  dataset_config.train_per_class = 1;
  dataset_config.test_per_class = 3;
  auto dataset = std::make_shared<const data::VideoDataset>(dataset_config);

  ServerConfig config;
  config.batch.max_batch = 4;
  config.queue_capacity = 8;
  InferenceServer server(system, config);
  server.add_camera(std::make_unique<runtime::SyntheticCameraSource>(0, small_scene(),
                                                                     system.pattern(), 1));
  server.add_camera(
      std::make_unique<runtime::DatasetCameraSource>(1, dataset, system.pattern(), 1));
  server.add_camera(std::make_unique<runtime::SensorCameraSource>(
      2, system.default_sensor_config(), small_scene(), system.pattern(), 2));
  {
    runtime::SyntheticCameraSource source(3, small_scene(), system.pattern(), 3);
    server.add_camera(runtime::ReplayCameraSource::record(source, 4));
  }

  const std::int64_t frames_per_camera = 5;
  const auto results = server.run(frames_per_camera);
  ASSERT_EQ(results.size(), 20U);
  for (int cam = 0; cam < 4; ++cam) {
    for (std::int64_t f = 0; f < frames_per_camera; ++f) {
      const auto& r = results[static_cast<std::size_t>(cam) * 5 + static_cast<std::size_t>(f)];
      EXPECT_EQ(r.camera_id, cam);
      EXPECT_EQ(r.sequence, f);
      EXPECT_GE(r.predicted, 0);
      EXPECT_LT(r.predicted, 4);
    }
  }

  const auto summary = server.summary();
  EXPECT_EQ(summary.frames, 20U);
  EXPECT_GT(summary.batches, 0U);
  EXPECT_GT(summary.aggregate_fps, 0.0);
  EXPECT_GT(summary.compression_ratio, 1.0);  // CE shipped less than raw video
  EXPECT_EQ(summary.end_to_end.count, 20U);

  const auto energy =
      server.fleet_energy(energy::EnergyModel{}, energy::WirelessTech::kPassiveWifi);
  EXPECT_GT(energy.conventional_j, energy.snappix_j);  // Sec. VI-D direction
  EXPECT_GT(energy.saving_factor, 1.0);
}

// --- stats -------------------------------------------------------------------

TEST(RuntimeStats, PercentilesAndSummary) {
  runtime::RuntimeStats stats;
  stats.add_shard(0);
  stats.record_batch(/*shard=*/0, runtime::Task::kClassify, runtime::Precision::kFp32, 4,
                     0.002, runtime::FlushReason::kMaxBatch);
  stats.record_batch(/*shard=*/0, runtime::Task::kClassify, runtime::Precision::kFp32, 2,
                     0.001, runtime::FlushReason::kExhausted);
  for (int i = 0; i < 6; ++i) {
    stats.record_frame_done(/*raw=*/1000, /*wire=*/125, /*e2e=*/0.01,
                            runtime::QosClass::kStandard);
  }
  const auto summary = stats.summary(/*wall_seconds=*/2.0);
  EXPECT_EQ(summary.frames, 6U);
  EXPECT_EQ(summary.batches, 2U);
  EXPECT_NEAR(summary.mean_batch_size, 3.0, 1e-9);
  EXPECT_NEAR(summary.aggregate_fps, 3.0, 1e-9);
  EXPECT_NEAR(summary.compression_ratio, 8.0, 1e-9);
}

}  // namespace
}  // namespace snappix

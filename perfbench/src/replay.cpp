#include "replay.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "codec/bitplane.h"
#include "runtime/batcher.h"
#include "runtime/engine.h"
#include "runtime/engine_cache.h"
#include "runtime/quant.h"
#include "tensor/gemm.h"
#include "tensor/gemm_s8.h"
#include "transport/csi2.h"
#include "transport/link.h"

namespace perfbench {

namespace rt = snappix::runtime;

namespace {

// Replay sizes: enough calls for a stable mean, few enough to keep the
// traced run well inside its time budget.
constexpr std::size_t kReplayFrames = 128;   // per camera, codec and link
constexpr std::size_t kReplayBatches = 128;  // per shard, stacking and engines
constexpr int kCacheMisses = 3;              // fresh caches per serving key
constexpr double kGemmSeconds = 0.02;        // per GEMM shape

// The classify depth the camera's link applies (0 = full depth).
int replay_depth(const CameraSpec& cam) {
  return cam.codec_link && cam.task == Task::kClassify ? cam.codec_planes : 0;
}

// The same factory InferenceServer installs in its shard caches: fp32
// snapshots the model; int8 calibrates against the missing pattern first.
rt::EngineCache::EngineFactory server_factory(const snappix::core::SnapPixSystem& system) {
  const std::int64_t image = system.config().image;
  return [&system, image](const snappix::ce::CePattern& pattern,
                          Precision precision) -> std::shared_ptr<rt::VitEngine> {
    const rt::BatchPolicy policy;
    if (precision == Precision::kFp32) {
      return std::make_shared<rt::BatchedVitEngine>(*system.classifier(),
                                                    *system.reconstructor(), policy.max_batch);
    }
    const Tensor frames =
        rt::make_calibration_frames(pattern, image, image, rt::QuantCalibration{});
    const rt::QuantSpec qspec =
        rt::calibrate(*system.classifier(), *system.reconstructor(), frames);
    return std::make_shared<rt::QuantizedVitEngine>(*system.classifier(),
                                                    *system.reconstructor(), qspec,
                                                    policy.max_batch);
  };
}

Tensor stack_inputs(const CameraInputs& cam, std::size_t first, int batch) {
  const snappix::Shape& fs = cam.coded.front().shape();
  const std::size_t elems = static_cast<std::size_t>(fs[0] * fs[1]);
  std::vector<float> data(static_cast<std::size_t>(batch) * elems);
  for (int b = 0; b < batch; ++b) {
    const Tensor& src = cam.coded[(first + static_cast<std::size_t>(b)) % cam.coded.size()];
    std::memcpy(data.data() + static_cast<std::size_t>(b) * elems, src.data().data(),
                elems * sizeof(float));
  }
  return Tensor::from_vector(std::move(data), snappix::Shape{batch, fs[0], fs[1]});
}

// GEMM throughput at one shape: repeats the call for about kGemmSeconds.
template <typename Call>
void time_gemm(const char* name, double ops_per_call, Call call, SpanLane& lane, double& ops,
               double& seconds) {
  call();  // warm the caches
  const double t0 = now_s();
  const std::int64_t span = lane.begin(name, t0, 0);
  double t = t0;
  std::int64_t calls = 0;
  while (t - t0 < kGemmSeconds) {
    call();
    ++calls;
    t = now_s();
  }
  lane.end(span, t);
  ops += ops_per_call * static_cast<double>(calls);
  seconds += t - t0;
}

}  // namespace

LayerTimes replay_layers(const WorkloadSpec& spec, const Inputs& inputs,
                         const std::vector<int> (&batch_sizes)[2], SpanLane& lane) {
  snappix::NoGradGuard no_grad;
  LayerTimes out;

  // --- codec and link, frame by frame ------------------------------------------
  double encode_s = 0.0, decode_s = 0.0, transfer_s = 0.0;
  double planes_decoded = 0.0, planes_total = 0.0, framed = 0.0, payload = 0.0;
  std::size_t frames = 0, ok = 0;
  for (int c = 0; c < 2; ++c) {
    const CameraInputs& cam = inputs.cameras[c];
    const int depth = replay_depth(spec.cameras[c]);
    snappix::transport::LinkConfig link_cfg;
    link_cfg.codec = true;
    link_cfg.codec_planes = depth;
    snappix::transport::FramedLink link(link_cfg);
    const snappix::transport::CodedFramePacketizer packetizer;
    for (std::size_t n = 0; n < kReplayFrames; ++n) {
      const Tensor& coded = cam.coded[n % cam.coded.size()];
      const std::uint64_t id = (static_cast<std::uint64_t>(c) << 32) | n;
      double t0 = now_s();
      std::int64_t span = lane.begin("codec.encode", t0, id);
      const snappix::codec::PlaneStream stream =
          snappix::codec::encode_bitplanes(snappix::codec::quantize_frame(coded), depth);
      double t1 = now_s();
      lane.end(span, t1);
      encode_s += t1 - t0;

      span = lane.begin("codec.decode", t1, id);
      const snappix::codec::BitplaneDecode decoded = snappix::codec::decode_bitplanes(stream, depth);
      t0 = now_s();
      lane.end(span, t0);
      decode_s += t0 - t1;
      planes_decoded += decoded.decoded_planes;
      planes_total += stream.plane_count;

      span = lane.begin("transport.transfer", t0, id);
      const snappix::transport::TransferResult result =
          link.transfer(coded, static_cast<std::uint16_t>(n));
      t1 = now_s();
      lane.end(span, t1);
      transfer_s += t1 - t0;
      ok += result.outcome == snappix::transport::RxOutcome::kOk ? 1 : 0;

      const snappix::transport::WireFrame wire =
          packetizer.packetize_codec(coded, static_cast<std::uint16_t>(n), depth);
      framed += static_cast<double>(wire.total_bytes());
      payload += static_cast<double>(wire.payload_bytes());
      ++frames;
    }
  }
  out.codec_encode_us = 1e6 * encode_s / static_cast<double>(frames);
  out.codec_decode_us = 1e6 * decode_s / static_cast<double>(frames);
  out.codec_plane_ratio = planes_total > 0 ? planes_decoded / planes_total : 0.0;
  out.transfer_us = 1e6 * transfer_s / static_cast<double>(frames);
  out.overhead_ratio = payload > 0 ? framed / payload : 0.0;
  out.link_ok_ratio = static_cast<double>(ok) / static_cast<double>(frames);

  // --- batch stacking at the run's batch sizes ---------------------------------
  double stack_s = 0.0;
  std::size_t stacks = 0;
  for (int s = 0; s < 2; ++s) {
    const CameraInputs& cam = inputs.cameras[s];
    std::size_t cursor = 0;
    for (std::size_t b = 0; b < std::min(kReplayBatches, batch_sizes[s].size()); ++b) {
      std::vector<rt::Frame> batch(static_cast<std::size_t>(batch_sizes[s][b]));
      for (rt::Frame& frame : batch) {
        frame.coded = cam.coded[cursor++ % cam.coded.size()];
      }
      const double t0 = now_s();
      const std::int64_t span = lane.begin("batcher.stack_coded", t0, (std::uint64_t{1} << 40) | b);
      const Tensor stacked = rt::BatchAggregator::stack_coded(batch);
      const double t1 = now_s();
      lane.end(span, t1);
      stack_s += t1 - t0;
      ++stacks;
    }
  }
  out.stack_us = stacks > 0 ? 1e6 * stack_s / static_cast<double>(stacks) : 0.0;

  // --- engine cache misses: a fresh cache per resolve --------------------------
  const snappix::core::SnapPixSystem& system = *inputs.system;
  double miss_sum = 0.0;
  for (int c = 0; c < 2; ++c) {
    std::vector<double> misses;
    for (int r = 0; r < kCacheMisses; ++r) {
      rt::EngineCache cache(rt::EngineCacheConfig{}, server_factory(system));
      const double t0 = now_s();
      const std::int64_t span = lane.begin("cache.resolve_miss", t0, static_cast<std::uint64_t>(c));
      cache.resolve(inputs.cameras[c].pattern->hash(), inputs.cameras[c].pattern,
                    spec.cameras[c].precision);
      const double t1 = now_s();
      lane.end(span, t1);
      misses.push_back(t1 - t0);
    }
    miss_sum += quantile(misses, 0.5);
  }
  out.cache_miss_ms = 1e3 * miss_sum / 2.0;

  // --- engines at the run's batch sizes -----------------------------------------
  const rt::EngineCache::EngineFactory factory = server_factory(system);
  const std::shared_ptr<rt::VitEngine> engines[2] = {
      factory(*inputs.cameras[0].pattern, Precision::kFp32),
      factory(*inputs.cameras[0].pattern, Precision::kInt8)};
  static const char* const kEngineSpans[2][2] = {
      {"engine.fp32_classify", "engine.fp32_rec"}, {"engine.int8_classify", "engine.int8_rec"}};
  for (int p = 0; p < 2; ++p) {
    for (int task = 0; task < 2; ++task) {
      double seconds = 0.0;
      std::int64_t served = 0;
      for (int s = 0; s < 2; ++s) {
        std::size_t cursor = 0;
        const std::size_t n = std::min(kReplayBatches, batch_sizes[s].size());
        for (std::size_t b = 0; b < n; ++b) {
          const int size = batch_sizes[s][b];
          const Tensor coded = stack_inputs(inputs.cameras[s], cursor, size);
          cursor += static_cast<std::size_t>(size);
          const double t0 = now_s();
          const std::int64_t span = lane.begin(kEngineSpans[p][task], t0, b);
          const Tensor result =
              task == 0 ? engines[p]->classify_logits(coded) : engines[p]->reconstruct(coded);
          const double t1 = now_s();
          lane.end(span, t1);
          seconds += t1 - t0;
          served += size;
        }
      }
      out.engine_us[p][task] = served > 0 ? 1e6 * seconds / static_cast<double>(served) : 0.0;
    }
  }

  // --- GEMM kernels at the engine's shapes --------------------------------------
  // Rows follow the run's typical batch: tokens per frame times the median
  // batch size served.
  std::vector<double> sizes;
  for (int s = 0; s < 2; ++s) {
    sizes.insert(sizes.end(), batch_sizes[s].begin(), batch_sizes[s].end());
  }
  const snappix::models::ViTConfig& vit = engines[0]->config();
  const std::int64_t batch = sizes.empty() ? 1 : std::max<std::int64_t>(1, std::llround(quantile(sizes, 0.5)));
  const std::int64_t m = batch * vit.tokens();
  const std::int64_t d = vit.dim;
  const auto hidden = static_cast<std::int64_t>(static_cast<float>(d) * vit.mlp_ratio);
  const std::int64_t shapes[3][2] = {{d, 3 * d}, {d, hidden}, {hidden, d}};  // (k, n): qkv, fc1, fc2
  static const char* const kGemmNn[3] = {"tensor.gemm_nn qkv", "tensor.gemm_nn fc1",
                                         "tensor.gemm_nn fc2"};
  static const char* const kGemmS8[3] = {"tensor.gemm_s8_nt qkv", "tensor.gemm_s8_nt fc1",
                                         "tensor.gemm_s8_nt fc2"};
  snappix::Rng rng(12345);
  double flops = 0.0, flop_s = 0.0, iops = 0.0, iop_s = 0.0;
  for (int i = 0; i < 3; ++i) {
    const std::int64_t k = shapes[i][0];
    const std::int64_t n = shapes[i][1];
    std::vector<float> a(static_cast<std::size_t>(m * k)), b(static_cast<std::size_t>(k * n)),
        c(static_cast<std::size_t>(m * n));
    for (float& v : a) v = rng.uniform(-1.0F, 1.0F);
    for (float& v : b) v = rng.uniform(-1.0F, 1.0F);
    time_gemm(
        kGemmNn[i], 2.0 * static_cast<double>(m * k * n),
        [&] {
          std::fill(c.begin(), c.end(), 0.0F);
          snappix::detail::gemm_nn(a.data(), b.data(), c.data(), m, k, n);
        },
        lane, flops, flop_s);
    std::vector<std::int8_t> qa(a.size()), qb(b.size());
    std::vector<std::int32_t> qc(c.size());
    for (std::size_t j = 0; j < qa.size(); ++j) qa[j] = static_cast<std::int8_t>(std::lround(a[j] * 127.0F));
    for (std::size_t j = 0; j < qb.size(); ++j) qb[j] = static_cast<std::int8_t>(std::lround(b[j] * 127.0F));
    time_gemm(
        kGemmS8[i], 2.0 * static_cast<double>(m * k * n),
        [&] { snappix::detail::gemm_s8_nt(qa.data(), qb.data(), qc.data(), m, k, n); }, lane,
        iops, iop_s);
  }
  out.gemm_nn_gflops = flops / flop_s * 1e-9;
  out.gemm_s8_gops = iops / iop_s * 1e-9;
  return out;
}

}  // namespace perfbench

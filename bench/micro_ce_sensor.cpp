// google-benchmark micro-benchmarks for CE encoding, the cycle-level sensor
// simulator (Fig. 5 protocol throughput), and the warm producer stages of an
// entropy-coded camera at the served geometry (16x16, T = 8, tile 8): CE
// encode on a prebuilt table, quantize, bit-plane encode and decode, and a
// whole codec FramedLink::transfer. Each stage reuses its buffers the way a
// camera's producer does, so the times are what a served frame pays:
//
//   bench_micro_ce_sensor --benchmark_filter='Warm'
#include <benchmark/benchmark.h>

#include <array>
#include <vector>

#include "ce/encode.h"
#include "ce/pattern.h"
#include "ce/stats.h"
#include "codec/bitplane.h"
#include "data/synthetic.h"
#include "sensor/sensor.h"
#include "tensor/tensor.h"
#include "transport/link.h"
#include "util/rng.h"

namespace {

using namespace snappix;

// The served producer geometry, and enough distinct frames that the coder's
// branches cannot learn one frame's symbols.
constexpr int kEdgeImage = 16;
constexpr int kEdgeSlots = 8;
constexpr int kEdgeTile = 8;
constexpr std::size_t kEdgeFrames = 64;

// Synthetic scene clips, their pattern's table, and the CE-coded frames.
struct EdgeFrames {
  EdgeFrames() : rng(31), pattern(ce::CePattern::random(kEdgeSlots, kEdgeTile, rng, 0.5F)),
                 table(pattern) {
    data::SceneConfig scene;
    scene.frames = kEdgeSlots;
    scene.height = kEdgeImage;
    scene.width = kEdgeImage;
    const data::SyntheticVideoGenerator generator(scene);
    for (std::size_t i = 0; i < kEdgeFrames; ++i) {
      clips.push_back(generator.sample(rng).video);
      coded.push_back(ce::encode_normalized(clips.back(), table));
      quantized.push_back(codec::quantize_frame(coded.back()));
    }
  }

  static const EdgeFrames& instance() {
    static const EdgeFrames frames;
    return frames;
  }

  Rng rng;
  ce::CePattern pattern;
  ce::EncodeTable table;
  std::vector<Tensor> clips;
  std::vector<Tensor> coded;
  std::vector<codec::QuantizedFrame> quantized;
};

void BM_WarmCeEncode(benchmark::State& state) {
  const EdgeFrames& f = EdgeFrames::instance();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ce::encode_normalized(f.clips[i], f.table).data().data());
    i = (i + 1) % kEdgeFrames;
  }
}
BENCHMARK(BM_WarmCeEncode);

void BM_WarmQuantize(benchmark::State& state) {
  const EdgeFrames& f = EdgeFrames::instance();
  codec::QuantizedFrame out;
  std::size_t i = 0;
  for (auto _ : state) {
    codec::quantize_frame(f.coded[i], out);
    benchmark::DoNotOptimize(out.values.data());
    benchmark::ClobberMemory();
    i = (i + 1) % kEdgeFrames;
  }
}
BENCHMARK(BM_WarmQuantize);

// Arg: codec depth (0 = every plane).
void BM_WarmBitplaneEncode(benchmark::State& state) {
  const EdgeFrames& f = EdgeFrames::instance();
  const int depth = static_cast<int>(state.range(0));
  codec::BitplaneCoder coder;
  codec::PlaneStream stream;
  std::size_t i = 0;
  for (auto _ : state) {
    coder.encode(f.quantized[i], depth, stream);
    benchmark::DoNotOptimize(stream.planes.data());
    benchmark::ClobberMemory();
    i = (i + 1) % kEdgeFrames;
  }
}
BENCHMARK(BM_WarmBitplaneEncode)->Arg(8)->Arg(0);

void BM_WarmBitplaneDecode(benchmark::State& state) {
  const EdgeFrames& f = EdgeFrames::instance();
  const int depth = static_cast<int>(state.range(0));
  std::vector<codec::PlaneStream> streams;
  std::vector<std::array<codec::ChunkView, codec::kMaxBitplanes>> views(kEdgeFrames);
  for (std::size_t i = 0; i < kEdgeFrames; ++i) {
    streams.push_back(codec::encode_bitplanes(f.quantized[i], depth));
  }
  for (std::size_t i = 0; i < kEdgeFrames; ++i) {
    for (std::size_t j = 0; j < streams[i].planes.size(); ++j) {
      views[i][j] = {streams[i].planes[j].data(), streams[i].planes[j].size()};
    }
  }
  codec::BitplaneCoder coder;
  codec::QuantizedFrame out;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        coder.decode(streams[i], views[i].data(), streams[i].planes.size(), depth, out));
    benchmark::DoNotOptimize(out.values.data());
    benchmark::ClobberMemory();
    i = (i + 1) % kEdgeFrames;
  }
}
BENCHMARK(BM_WarmBitplaneDecode)->Arg(8)->Arg(0);

// Quantize, encode, packetize, depacketize and decode on a clean codec link.
void BM_WarmCodecTransfer(benchmark::State& state) {
  const EdgeFrames& f = EdgeFrames::instance();
  transport::LinkConfig config;
  config.codec = true;
  config.codec_planes = static_cast<int>(state.range(0));
  transport::FramedLink link(config);
  std::size_t i = 0;
  std::uint16_t frame_number = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(link.transfer(f.coded[i], frame_number++).coded.data().data());
    i = (i + 1) % kEdgeFrames;
  }
}
BENCHMARK(BM_WarmCodecTransfer)->Arg(8)->Arg(0);

void BM_CeEncode(benchmark::State& state) {
  const auto image = state.range(0);
  Rng rng(1);
  NoGradGuard guard;
  const auto pattern = ce::CePattern::random(16, 8, rng, 0.5F);
  const Tensor videos = Tensor::rand_uniform(Shape{4, 16, image, image}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ce::ce_encode(videos, pattern).data().data());
  }
  state.SetItemsProcessed(state.iterations() * 4 * 16 * image * image);
}
BENCHMARK(BM_CeEncode)->Arg(32)->Arg(64)->Arg(112);

void BM_CeEncodeDiffTrainStep(benchmark::State& state) {
  Rng rng(2);
  Tensor weights = Tensor::rand_uniform(Shape{16, 8, 8}, rng, 0.3F, 0.7F, true);
  const Tensor videos = Tensor::rand_uniform(Shape{4, 16, 32, 32}, rng);
  for (auto _ : state) {
    weights.zero_grad();
    Tensor loss = ce::decorrelation_loss(ce::ce_encode_diff(videos, weights), 8);
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_CeEncodeDiffTrainStep);

void BM_SensorCapture(benchmark::State& state) {
  const auto image = state.range(0);
  Rng rng(3);
  const auto pattern = ce::CePattern::random(16, 8, rng, 0.5F);
  sensor::SensorConfig cfg;
  cfg.height = image;
  cfg.width = image;
  cfg.adc.full_scale = cfg.electrons_per_unit * 16;
  cfg.pixel.full_well_electrons = cfg.adc.full_scale;
  sensor::StackedSensor sensor(cfg, pattern);
  const Tensor scene = Tensor::rand_uniform(Shape{16, image, image}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sensor.capture(scene, rng).data().data());
  }
  state.SetItemsProcessed(state.iterations() * image * image);
}
BENCHMARK(BM_SensorCapture)->Arg(32)->Arg(64)->Arg(112);

void BM_SensorCaptureWithNoise(benchmark::State& state) {
  Rng rng(4);
  const auto pattern = ce::CePattern::random(16, 8, rng, 0.5F);
  sensor::SensorConfig cfg;
  cfg.height = 64;
  cfg.width = 64;
  cfg.adc.full_scale = cfg.electrons_per_unit * 16;
  cfg.pixel.full_well_electrons = cfg.adc.full_scale;
  cfg.noise.enabled = true;
  sensor::StackedSensor sensor(cfg, pattern);
  const Tensor scene = Tensor::rand_uniform(Shape{16, 64, 64}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sensor.capture(scene, rng).data().data());
  }
}
BENCHMARK(BM_SensorCaptureWithNoise);

void BM_DffChainStreaming(benchmark::State& state) {
  const int tile = static_cast<int>(state.range(0));
  sensor::DffShiftChain chain(tile * tile);
  const std::vector<std::uint8_t> bits(static_cast<std::size_t>(tile) * tile, 1);
  for (auto _ : state) {
    chain.load_slot(bits);
    benchmark::DoNotOptimize(chain.bit_at(0));
  }
  state.SetItemsProcessed(state.iterations() * tile * tile);
}
BENCHMARK(BM_DffChainStreaming)->Arg(4)->Arg(8)->Arg(14);

void BM_PearsonCorrelation(benchmark::State& state) {
  Rng rng(5);
  NoGradGuard guard;
  const Tensor coded = Tensor::rand_uniform(Shape{8, 32, 32}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ce::mean_correlation(coded, 8));
  }
}
BENCHMARK(BM_PearsonCorrelation);

}  // namespace

BENCHMARK_MAIN();

#include "runtime/quant.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "ce/encode.h"
#include "data/synthetic.h"
#include "runtime/engine.h"
#include "tensor/gemm_s8.h"
#include "util/common.h"
#include "util/rng.h"

namespace snappix::runtime {

namespace {

float scale_from(float absmax_value) { return detail::symmetric_scale(absmax_value); }

}  // namespace

QuantSpec calibrate(const models::SnapPixClassifier& classifier,
                    const models::SnapPixReconstructor& reconstructor, const Tensor& coded) {
  const models::ViTConfig& config = classifier.encoder()->config();
  if (coded.ndim() != 3 || coded.shape()[0] < 1 || coded.shape()[1] != config.image_h ||
      coded.shape()[2] != config.image_w) {
    throw std::invalid_argument(
        "calibrate() needs at least one (B, H, W) coded frame matching the model geometry, "
        "got " +
        coded.shape().to_string());
  }

  // The observed activations ARE the fp32 engine's activations: the ranges
  // come out of the exact serving path the int8 tier approximates, not a
  // re-implementation that could drift.
  NoGradGuard guard;
  BatchedVitEngine engine(classifier, reconstructor,
                          static_cast<int>(std::min<std::int64_t>(coded.shape()[0], 64)));
  ActivationRanges ranges;
  engine.collect_activation_ranges(coded, ranges);

  QuantSpec spec;
  spec.embed_in = scale_from(ranges.embed_in);
  spec.blocks.resize(ranges.blocks.size());
  for (std::size_t i = 0; i < ranges.blocks.size(); ++i) {
    spec.blocks[i].qkv_in = scale_from(ranges.blocks[i].qkv_in);
    spec.blocks[i].proj_in = scale_from(ranges.blocks[i].proj_in);
    spec.blocks[i].fc1_in = scale_from(ranges.blocks[i].fc1_in);
    spec.blocks[i].gelu_in = scale_from(ranges.blocks[i].gelu_in);
    spec.blocks[i].fc2_in = scale_from(ranges.blocks[i].fc2_in);
  }
  spec.head_in = scale_from(ranges.head_in);
  spec.rec_in = scale_from(ranges.rec_in);
  spec.calibration_frames = coded.shape()[0];
  return spec;
}

Tensor make_calibration_frames(const ce::CePattern& pattern, std::int64_t image_h,
                               std::int64_t image_w, const QuantCalibration& config) {
  if (config.frames < 1) {
    throw std::invalid_argument("QuantCalibration.frames must be >= 1, got " +
                                std::to_string(config.frames));
  }
  data::SceneConfig scene;
  scene.frames = pattern.slots();
  scene.height = static_cast<int>(image_h);
  scene.width = static_cast<int>(image_w);
  data::SyntheticVideoGenerator generator(scene);
  Rng rng(config.seed);

  NoGradGuard guard;
  // The same edge-side kernel camera frames take: CE-encode with the
  // pattern and exposure-normalize, straight into the batch.
  const ce::EncodeTable table(pattern);
  std::vector<float> frames(static_cast<std::size_t>(config.frames) *
                            static_cast<std::size_t>(image_h * image_w));
  for (int i = 0; i < config.frames; ++i) {
    const data::VideoSample sample = generator.sample(rng);
    ce::encode_frame(table, sample.video.data().data(), image_h, image_w, /*normalize=*/true,
                     frames.data() + static_cast<std::int64_t>(i) * image_h * image_w);
  }
  return Tensor::from_vector(std::move(frames),
                             Shape{config.frames, image_h, image_w});
}

}  // namespace snappix::runtime

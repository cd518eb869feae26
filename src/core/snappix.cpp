#include "core/snappix.h"

#include <algorithm>
#include <cstdio>

#include "train/optimizer.h"
#include "util/common.h"

namespace snappix::core {

models::ViTConfig backbone_config(Backbone backbone, std::int64_t image,
                                  std::int64_t num_classes) {
  switch (backbone) {
    case Backbone::kSnapPixS:
      return models::ViTConfig::snappix_s(image, num_classes);
    case Backbone::kSnapPixB:
      return models::ViTConfig::snappix_b(image, num_classes);
  }
  SNAPPIX_CHECK(false, "unknown backbone");
}

SnapPixSystem::SnapPixSystem(const SnapPixConfig& config)
    : config_(config),
      rng_(config.seed),
      pattern_(std::make_shared<const ce::CePattern>(
          ce::CePattern::long_exposure(config.frames, config.tile))) {
  SNAPPIX_CHECK(config.image % config.tile == 0,
                "image " << config.image << " not divisible by tile " << config.tile);
  auto vit = backbone_config(config.backbone, config.image, config.num_classes);
  SNAPPIX_CHECK(vit.patch == config.tile,
                "ViT patch " << vit.patch << " must equal CE tile " << config.tile
                             << " (paper Sec. IV)");
  encoder_ = std::make_shared<models::ViTEncoder>(vit, rng_);
  classifier_ = std::make_shared<models::SnapPixClassifier>(encoder_, rng_);
  reconstructor_ =
      std::make_shared<models::SnapPixReconstructor>(encoder_, config.frames, rng_);
}

train::PatternTrainResult SnapPixSystem::learn_pattern(
    const data::VideoDataset& dataset, train::PatternTrainConfig pattern_config) {
  pattern_config.tile = config_.tile;
  auto result = train::learn_decorrelated_pattern(dataset, pattern_config);
  pattern_ = std::make_shared<const ce::CePattern>(result.pattern);
  return result;
}

void SnapPixSystem::set_pattern(const ce::CePattern& pattern) {
  SNAPPIX_CHECK(pattern.tile() == config_.tile && pattern.slots() == config_.frames,
                "pattern (" << pattern.slots() << " slots, tile " << pattern.tile()
                            << ") does not match system (" << config_.frames << ", "
                            << config_.tile << ")");
  pattern_ = std::make_shared<const ce::CePattern>(pattern);
}

Tensor SnapPixSystem::normalized_input(const Tensor& coded) const {
  // Sec. IV: "each pixel value is normalized by the number of exposure slots".
  return ce::normalize_by_exposure(coded, *pattern_);
}

Tensor SnapPixSystem::encode(const Tensor& videos) const {
  NoGradGuard guard;
  return ce::encode_normalized(videos, ce::EncodeTable(*pattern_));
}

float SnapPixSystem::pretrain(const data::VideoDataset& dataset, int epochs, float lr,
                              int batch_size, bool verbose, models::MaeConfig mae_config) {
  SNAPPIX_CHECK(epochs > 0 && batch_size > 0, "bad pretrain parameters");
  Rng init_rng(config_.seed + 17);
  models::CodedMae mae(encoder_, config_.frames, mae_config, init_rng);
  train::AdamW optimizer(mae.parameters(), lr);
  Rng rng(config_.seed + 29);
  float final_loss = 0.0F;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    float epoch_loss = 0.0F;
    int batches = 0;
    const auto order = dataset.shuffled_train_indices(rng);
    for (std::size_t begin = 0; begin < order.size();
         begin += static_cast<std::size_t>(batch_size)) {
      const std::size_t end =
          std::min(order.size(), begin + static_cast<std::size_t>(batch_size));
      const std::vector<std::int64_t> indices(order.begin() + static_cast<std::ptrdiff_t>(begin),
                                              order.begin() + static_cast<std::ptrdiff_t>(end));
      std::vector<std::int64_t> labels;
      const Tensor videos = dataset.train_batch(indices, labels);
      const Tensor coded = encode(videos);
      optimizer.zero_grad();
      Tensor loss = mae.pretrain_loss(coded, videos, rng);
      loss.backward();
      optimizer.step();
      epoch_loss += loss.item();
      ++batches;
    }
    final_loss = epoch_loss / static_cast<float>(std::max(batches, 1));
    if (verbose) {
      std::printf("  pretrain epoch %2d/%d  mse %.5f\n", epoch + 1, epochs,
                  static_cast<double>(final_loss));
    }
  }
  return final_loss;
}

train::FitResult SnapPixSystem::train_action_recognition(const data::VideoDataset& dataset,
                                                         const train::TrainConfig& config) {
  auto forward = [this](const Tensor& input) { return classifier_->forward(input); };
  auto transform = [this](const Tensor& videos) { return encode(videos); };
  return train::fit_classifier(classifier_->parameters(), forward, dataset, transform, config);
}

train::FitResult SnapPixSystem::train_reconstruction(const data::VideoDataset& dataset,
                                                     const train::TrainConfig& config) {
  auto forward = [this](const Tensor& input) { return reconstructor_->forward(input); };
  auto transform = [this](const Tensor& videos) { return encode(videos); };
  return train::fit_reconstructor(reconstructor_->parameters(), forward, dataset, transform,
                                  config);
}

Tensor SnapPixSystem::classify_logits(const Tensor& videos) const {
  NoGradGuard guard;
  return classifier_->forward(encode(videos));
}

std::vector<std::int64_t> SnapPixSystem::classify(const Tensor& videos) const {
  return argmax_last_axis(classify_logits(videos));
}

Tensor SnapPixSystem::reconstruct(const Tensor& videos) const {
  NoGradGuard guard;
  return reconstructor_->forward(encode(videos));
}

Tensor SnapPixSystem::classify_logits_coded(const Tensor& coded_normalized) const {
  NoGradGuard guard;
  SNAPPIX_CHECK(coded_normalized.ndim() == 3, "expected (B, H, W) coded images, got "
                                                  << coded_normalized.shape().to_string());
  return classifier_->forward(coded_normalized);
}

std::vector<std::int64_t> SnapPixSystem::classify_coded(const Tensor& coded_normalized) const {
  return argmax_last_axis(classify_logits_coded(coded_normalized));
}

Tensor SnapPixSystem::reconstruct_coded(const Tensor& coded_normalized) const {
  NoGradGuard guard;
  SNAPPIX_CHECK(coded_normalized.ndim() == 3, "expected (B, H, W) coded images, got "
                                                  << coded_normalized.shape().to_string());
  return reconstructor_->forward(coded_normalized);
}

std::int64_t SnapPixSystem::classify_via_sensor(const Tensor& scene,
                                                const sensor::StackedSensor& sensor,
                                                Rng& rng) const {
  NoGradGuard guard;
  SNAPPIX_CHECK(sensor.pattern() == *pattern_,
                "sensor is programmed with a different CE pattern than the system");
  const Tensor coded = sensor.capture_normalized(scene, rng);  // (H, W) in scene units
  const Tensor batched = Tensor::from_vector(coded.data(),
                                             Shape{1, coded.shape()[0], coded.shape()[1]});
  const Tensor logits = classifier_->forward(normalized_input(batched));
  return argmax_last_axis(logits)[0];
}

sensor::SensorConfig SnapPixSystem::default_sensor_config() const {
  sensor::SensorConfig cfg;
  cfg.height = config_.image;
  cfg.width = config_.image;
  // Scale full-scale so a fully-exposed bright pixel (T slots at 1.0) spans
  // the ADC range without clipping.
  cfg.adc.full_scale = cfg.electrons_per_unit * static_cast<float>(config_.frames);
  cfg.pixel.full_well_electrons = cfg.adc.full_scale;
  return cfg;
}

}  // namespace snappix::core

#include "sensor/sensor.h"

#include <algorithm>
#include <cmath>

#include "ce/encode.h"
#include "util/common.h"

namespace snappix::sensor {

StackedSensor::StackedSensor(const SensorConfig& config, const ce::CePattern& pattern)
    : StackedSensor(config, std::make_shared<const ce::CePattern>(pattern)) {}

StackedSensor::StackedSensor(const SensorConfig& config,
                             std::shared_ptr<const ce::CePattern> pattern)
    : config_(config), pattern_(std::move(pattern)) {
  SNAPPIX_CHECK(pattern_ != nullptr, "sensor needs a CE pattern");
  SNAPPIX_CHECK(config.height > 0 && config.width > 0, "sensor dimensions must be positive");
  const int tile = pattern_->tile();
  SNAPPIX_CHECK(config.height % tile == 0 && config.width % tile == 0,
                "sensor " << config.height << "x" << config.width
                          << " not divisible by CE tile " << tile);
  SNAPPIX_CHECK(config.electrons_per_unit > 0.0F, "electrons_per_unit must be positive");
  tiles_ = (config.height / tile) * (config.width / tile);
}

StackedSensor::CaptureState& StackedSensor::thread_capture_state(bool with_chains) const {
  static thread_local CaptureState state;
  const int tile = pattern_->tile();
  const bool pixels_match =
      state.sig_height == config_.height && state.sig_width == config_.width &&
      state.sig_pixel.full_well_electrons == config_.pixel.full_well_electrons &&
      state.sig_pixel.conversion_gain == config_.pixel.conversion_gain;
  if (!pixels_match) {
    state.pixels.assign(static_cast<std::size_t>(config_.height * config_.width),
                        ApsPixel(config_.pixel));
    state.sig_height = config_.height;
    state.sig_width = config_.width;
    state.sig_pixel = config_.pixel;
    state.chains.clear();
    state.sig_tile = -1;
  }
  if (with_chains && (state.sig_tile != tile ||
                      state.chains.size() != static_cast<std::size_t>(tiles_))) {
    // Chain contents are fully overwritten by each load_slot(), so reuse only
    // needs matching geometry.
    state.chains.assign(static_cast<std::size_t>(tiles_), DffShiftChain(tile * tile));
    state.sig_tile = tile;
  }
  state.stats = CaptureStats{};
  return state;
}

float StackedSensor::code_per_unit() const {
  const ColumnAdc adc(config_.adc);
  return config_.electrons_per_unit * config_.pixel.conversion_gain /
         config_.adc.full_scale * static_cast<float>(adc.max_code());
}

void StackedSensor::run_slot(int slot, const Tensor& scene, Rng& rng,
                             CaptureState& state) const {
  const int tile = pattern_->tile();
  const std::int64_t h = config_.height;
  const std::int64_t w = config_.width;
  const std::int64_t tiles_x = w / tile;
  const auto slot_bits = pattern_->slot_bits(slot);
  const NoiseModel noise(config_.noise, h * w);
  auto& pixels = state.pixels;
  auto& chains = state.chains;
  auto& stats = state.stats;

  // Phase 1: stream the slot pattern into every chain (parallel across
  // chains; P cycles on the shared pattern clock).
  for (auto& chain : chains) {
    chain.load_slot(slot_bits);
  }
  stats.pattern_bits_streamed +=
      static_cast<std::uint64_t>(slot_bits.size()) * chains.size();
  stats.pattern_clk_cycles += static_cast<std::uint64_t>(slot_bits.size());
  stats.pattern_time_s +=
      static_cast<double>(slot_bits.size()) / config_.pattern_clk_hz;

  // Phase 2: pattern_reset pulse — CE bit 1 resets the PD via M1.
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      const std::int64_t chain_idx = (y / tile) * tiles_x + (x / tile);
      const int dff_idx = static_cast<int>((y % tile) * tile + (x % tile));
      if (chains[static_cast<std::size_t>(chain_idx)].bit_at(dff_idx) != 0) {
        pixels[static_cast<std::size_t>(y * w + x)].reset_pd();
        ++stats.pd_resets;
      }
    }
  }
  for (auto& chain : chains) {
    chain.power_gate();
  }

  // Phase 3: exposure — every PD integrates the slot's light.
  const auto& ds = scene.data();
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      const std::int64_t p = y * w + x;
      const float intensity =
          ds[static_cast<std::size_t>((static_cast<std::int64_t>(slot) * h + y) * w + x)];
      float electrons = intensity * config_.electrons_per_unit;
      electrons = noise.apply_exposure(p, electrons, config_.slot_exposure_s, rng);
      pixels[static_cast<std::size_t>(p)].expose(electrons);
    }
  }
  stats.exposure_time_s += config_.slot_exposure_s;

  // Phase 4: re-stream the same bits, then pattern_transfer pulse (M7).
  for (auto& chain : chains) {
    chain.load_slot(slot_bits);
  }
  stats.pattern_bits_streamed +=
      static_cast<std::uint64_t>(slot_bits.size()) * chains.size();
  stats.pattern_clk_cycles += static_cast<std::uint64_t>(slot_bits.size());
  stats.pattern_time_s +=
      static_cast<double>(slot_bits.size()) / config_.pattern_clk_hz;
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      const std::int64_t chain_idx = (y / tile) * tiles_x + (x / tile);
      const int dff_idx = static_cast<int>((y % tile) * tile + (x % tile));
      if (chains[static_cast<std::size_t>(chain_idx)].bit_at(dff_idx) != 0) {
        pixels[static_cast<std::size_t>(y * w + x)].transfer();
        ++stats.charge_transfers;
      }
    }
  }
  for (auto& chain : chains) {
    chain.power_gate();
  }
}

Tensor StackedSensor::capture(const Tensor& scene, Rng& rng, CaptureStats* stats_out) const {
  SNAPPIX_CHECK(scene.ndim() == 3, "capture expects a (T, H, W) scene, got "
                                       << scene.shape().to_string());
  SNAPPIX_CHECK(scene.shape()[0] == pattern_->slots() && scene.shape()[1] == config_.height &&
                    scene.shape()[2] == config_.width,
                "scene " << scene.shape().to_string() << " does not match sensor ("
                         << pattern_->slots() << ", " << config_.height << ", " << config_.width
                         << ")");
  CaptureState& state = thread_capture_state(/*with_chains=*/true);

  // Start of frame: clear every FD (M2) — PD state is cleared per-slot by M1.
  for (auto& pixel : state.pixels) {
    pixel.reset_fd();
    pixel.reset_pd();
  }

  for (int slot = 0; slot < pattern_->slots(); ++slot) {
    run_slot(slot, scene, rng, state);
  }

  // Read-out: row by row through column-parallel ADCs, then MIPI.
  const std::int64_t h = config_.height;
  const std::int64_t w = config_.width;
  const NoiseModel noise(config_.noise, h * w);
  ColumnAdc adc(config_.adc);
  MipiCsi2Link mipi(config_.mipi);
  std::vector<float> codes(static_cast<std::size_t>(h * w));
  const int bytes_per_pixel = (config_.adc.bits + 7) / 8;
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      const std::int64_t p = y * w + x;
      float voltage = state.pixels[static_cast<std::size_t>(p)].read();
      voltage = noise.apply_read(p, voltage, rng);
      codes[static_cast<std::size_t>(p)] = static_cast<float>(adc.convert(voltage));
    }
    mipi.send_line(static_cast<std::uint64_t>(w) * bytes_per_pixel);
  }
  state.stats.adc_conversions = adc.conversions();
  state.stats.mipi_bytes = mipi.total_bytes();
  state.stats.readout_time_s = static_cast<double>(h) * config_.row_time_s;
  state.stats.mipi_time_s = mipi.transmit_seconds();
  // exposure_time_s already accumulated once per slot in run_slot().
  state.stats.frame_time_s = state.stats.pattern_time_s + state.stats.exposure_time_s +
                             state.stats.readout_time_s + state.stats.mipi_time_s;
  publish_stats(state.stats);
  if (stats_out != nullptr) {
    *stats_out = state.stats;
  }
  return Tensor::from_vector(std::move(codes), Shape{h, w});
}

Tensor StackedSensor::capture_conventional(const Tensor& scene, Rng& rng,
                                           CaptureStats* stats_out) const {
  SNAPPIX_CHECK(scene.ndim() == 3 && scene.shape()[1] == config_.height &&
                    scene.shape()[2] == config_.width,
                "capture_conventional expects (T, " << config_.height << ", " << config_.width
                                                    << "), got " << scene.shape().to_string());
  const std::int64_t frames = scene.shape()[0];
  const std::int64_t h = config_.height;
  const std::int64_t w = config_.width;
  CaptureState& state = thread_capture_state(/*with_chains=*/false);
  const NoiseModel noise(config_.noise, h * w);
  ColumnAdc adc(config_.adc);
  MipiCsi2Link mipi(config_.mipi);
  const int bytes_per_pixel = (config_.adc.bits + 7) / 8;
  std::vector<float> codes(static_cast<std::size_t>(frames * h * w));
  const auto& ds = scene.data();
  for (std::int64_t t = 0; t < frames; ++t) {
    // Expose every pixel for the slot, then read the whole frame out.
    for (auto& pixel : state.pixels) {
      pixel.reset_fd();
      pixel.reset_pd();
    }
    for (std::int64_t p = 0; p < h * w; ++p) {
      float electrons = ds[static_cast<std::size_t>(t * h * w + p)] *
                        config_.electrons_per_unit;
      electrons = noise.apply_exposure(p, electrons, config_.slot_exposure_s, rng);
      state.pixels[static_cast<std::size_t>(p)].expose(electrons);
      state.pixels[static_cast<std::size_t>(p)].transfer();
    }
    state.stats.exposure_time_s += config_.slot_exposure_s;
    for (std::int64_t y = 0; y < h; ++y) {
      for (std::int64_t x = 0; x < w; ++x) {
        const std::int64_t p = y * w + x;
        float voltage = state.pixels[static_cast<std::size_t>(p)].read();
        voltage = noise.apply_read(p, voltage, rng);
        codes[static_cast<std::size_t>(t * h * w + p)] =
            static_cast<float>(adc.convert(voltage));
      }
      mipi.send_line(static_cast<std::uint64_t>(w) * bytes_per_pixel);
    }
    state.stats.readout_time_s += static_cast<double>(h) * config_.row_time_s;
  }
  state.stats.adc_conversions = adc.conversions();
  state.stats.mipi_bytes = mipi.total_bytes();
  state.stats.mipi_time_s = mipi.transmit_seconds();
  state.stats.frame_time_s =
      state.stats.exposure_time_s + state.stats.readout_time_s + state.stats.mipi_time_s;
  publish_stats(state.stats);
  if (stats_out != nullptr) {
    *stats_out = state.stats;
  }
  return Tensor::from_vector(std::move(codes), Shape{frames, h, w});
}

Tensor StackedSensor::capture_normalized(const Tensor& scene, Rng& rng,
                                         CaptureStats* stats_out) const {
  Tensor codes = capture(scene, rng, stats_out);
  const float scale = 1.0F / code_per_unit();
  for (auto& v : codes.data()) {
    v *= scale;
  }
  return codes;
}

Tensor StackedSensor::ideal_codes(const Tensor& scene) const {
  NoGradGuard guard;
  const Tensor coded = ce::ce_encode_single(scene, *pattern_);  // scene units
  const ColumnAdc adc(config_.adc);
  std::vector<float> out(coded.data().size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    // Same clamp + quantization as the ADC applies.
    const float electrons = std::min(coded.data()[i] * config_.electrons_per_unit,
                                     config_.pixel.full_well_electrons);
    const float voltage = electrons * config_.pixel.conversion_gain;
    const float normalized = std::clamp(voltage / config_.adc.full_scale, 0.0F, 1.0F);
    out[i] = std::round(normalized * static_cast<float>(adc.max_code()));
  }
  return Tensor::from_vector(std::move(out), Shape{config_.height, config_.width});
}

}  // namespace snappix::sensor

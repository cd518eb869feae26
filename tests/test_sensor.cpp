// Tests for the cycle-level stacked-sensor simulator (paper Sec. V / Fig. 5):
// pixel protocol, DFF pattern distribution, ADC, MIPI, noise, functional
// equivalence between the hardware protocol and Eqn. 1, and the
// conventional-capture mode.
#include <gtest/gtest.h>

#include <cmath>

#include "ce/encode.h"
#include "ce/pattern.h"
#include "sensor/adc.h"
#include "sensor/mipi.h"
#include "sensor/noise.h"
#include "sensor/pattern_memory.h"
#include "sensor/pixel.h"
#include "sensor/sensor.h"
#include "util/rng.h"

namespace snappix {
namespace {

using ce::CePattern;
using sensor::AdcConfig;
using sensor::ApsPixel;
using sensor::ColumnAdc;
using sensor::DffShiftChain;
using sensor::MipiConfig;
using sensor::MipiCsi2Link;
using sensor::NoiseConfig;
using sensor::NoiseModel;
using sensor::SensorConfig;
using sensor::StackedSensor;

TEST(ApsPixelTest, ExposeTransferRead) {
  ApsPixel pixel;
  pixel.expose(100.0F);
  EXPECT_FLOAT_EQ(pixel.pd_electrons(), 100.0F);
  EXPECT_FLOAT_EQ(pixel.fd_electrons(), 0.0F);
  pixel.transfer();
  EXPECT_FLOAT_EQ(pixel.pd_electrons(), 0.0F);
  EXPECT_FLOAT_EQ(pixel.fd_electrons(), 100.0F);
  EXPECT_FLOAT_EQ(pixel.read(), 100.0F);
}

TEST(ApsPixelTest, FdAccumulatesAcrossTransfers) {
  // The decoupled-reset behaviour of Fig. 5: multiple slot transfers add up.
  ApsPixel pixel;
  pixel.expose(30.0F);
  pixel.transfer();
  pixel.expose(50.0F);
  pixel.transfer();
  EXPECT_FLOAT_EQ(pixel.fd_electrons(), 80.0F);
}

TEST(ApsPixelTest, PdResetDiscardsUntransferredCharge) {
  // Unexposed-slot light accumulates on the PD but a later pattern reset
  // (M1) clears it before the next coded exposure — the core CE mechanism.
  ApsPixel pixel;
  pixel.expose(70.0F);  // slot with CE bit 0: integrates but never transfers
  pixel.reset_pd();     // CE bit 1 at next slot start
  pixel.expose(40.0F);
  pixel.transfer();
  EXPECT_FLOAT_EQ(pixel.fd_electrons(), 40.0F);
}

TEST(ApsPixelTest, FullWellSaturation) {
  ApsPixel pixel(sensor::PixelParams{.full_well_electrons = 100.0F, .conversion_gain = 1.0F});
  pixel.expose(250.0F);
  EXPECT_FLOAT_EQ(pixel.pd_electrons(), 100.0F);
  pixel.transfer();
  pixel.expose(250.0F);
  pixel.transfer();
  EXPECT_FLOAT_EQ(pixel.fd_electrons(), 100.0F);  // FD also saturates
}

TEST(ApsPixelTest, NegativeLightClamped) {
  ApsPixel pixel;
  pixel.expose(-5.0F);
  EXPECT_FLOAT_EQ(pixel.pd_electrons(), 0.0F);
}

TEST(DffChainTest, LoadSlotPlacesBitsAtPixelPositions) {
  DffShiftChain chain(4);
  chain.load_slot({1, 0, 1, 1});
  EXPECT_EQ(chain.bit_at(0), 1);
  EXPECT_EQ(chain.bit_at(1), 0);
  EXPECT_EQ(chain.bit_at(2), 1);
  EXPECT_EQ(chain.bit_at(3), 1);
}

TEST(DffChainTest, CostsExactlyLengthCyclesPerLoad) {
  DffShiftChain chain(16);
  chain.load_slot(std::vector<std::uint8_t>(16, 1));
  EXPECT_EQ(chain.cycles(), 16U);
  chain.load_slot(std::vector<std::uint8_t>(16, 0));
  EXPECT_EQ(chain.cycles(), 32U);
}

TEST(DffChainTest, PowerGatingBlocksShifts) {
  DffShiftChain chain(2);
  chain.power_gate();
  EXPECT_TRUE(chain.power_gated());
  EXPECT_THROW(chain.shift_in(1), std::runtime_error);
  chain.wake();
  chain.shift_in(1);
  EXPECT_EQ(chain.bit_at(0), 1);
}

TEST(DffChainTest, LoadSlotWakesChain) {
  DffShiftChain chain(2);
  chain.power_gate();
  chain.load_slot({1, 0});  // must wake implicitly (start of each slot)
  EXPECT_EQ(chain.bit_at(0), 1);
}

TEST(DffChainTest, WrongBitCountThrows) {
  DffShiftChain chain(4);
  EXPECT_THROW(chain.load_slot({1, 0}), std::runtime_error);
}

TEST(AdcTest, QuantizesFullScale) {
  ColumnAdc adc(AdcConfig{.bits = 8, .full_scale = 256.0F, .cycles_per_conversion = 8});
  EXPECT_EQ(adc.convert(0.0F), 0U);
  EXPECT_EQ(adc.convert(256.0F), 255U);
  EXPECT_EQ(adc.convert(128.0F), 128U);
  EXPECT_EQ(adc.convert(1000.0F), 255U);  // clamps
  EXPECT_EQ(adc.convert(-10.0F), 0U);
  EXPECT_EQ(adc.conversions(), 5U);
  EXPECT_EQ(adc.cycles(), 40U);
}

TEST(AdcTest, BitDepthControlsCodes) {
  ColumnAdc adc10(AdcConfig{.bits = 10, .full_scale = 1.0F, .cycles_per_conversion = 10});
  EXPECT_EQ(adc10.convert(1.0F), 1023U);
  EXPECT_THROW(ColumnAdc(AdcConfig{.bits = 0, .full_scale = 1.0F, .cycles_per_conversion = 1}),
               std::runtime_error);
}

TEST(MipiTest, PacketOverheadAccounting) {
  MipiCsi2Link link(MipiConfig{.lanes = 1, .byte_clock_hz = 1e6});
  link.send_line(100);
  EXPECT_EQ(link.total_bytes(), 106U);
  EXPECT_EQ(link.payload_bytes(), 100U);
  EXPECT_EQ(link.packets(), 1U);
  link.send_line(100);
  EXPECT_EQ(link.total_bytes(), 212U);
  EXPECT_NEAR(link.transmit_seconds(), 212e-6, 1e-9);
}

TEST(MipiTest, LanesDivideTimeOnLaneAlignedPackets) {
  // 994 payload + 6 overhead = 1000 wire bytes: divisible by 4, so four lanes
  // really do cut the time by exactly 4.
  MipiCsi2Link one(MipiConfig{.lanes = 1, .byte_clock_hz = 1e6});
  MipiCsi2Link four(MipiConfig{.lanes = 4, .byte_clock_hz = 1e6});
  one.send_line(994);
  four.send_line(994);
  EXPECT_NEAR(one.transmit_seconds() / four.transmit_seconds(), 4.0, 1e-9);
}

// Regression: wire time must follow the MOST-LOADED lane. 1000 payload + 6
// overhead = 1006 bytes on 4 lanes puts 252 bytes on lanes 0-1 and 251 on
// lanes 2-3 — the packet takes 252 byte-times, not the 251.5 that
// total_bytes / lanes used to claim.
TEST(MipiTest, TransmitTimeFollowsMostLoadedLane) {
  MipiCsi2Link four(MipiConfig{.lanes = 4, .byte_clock_hz = 1e6});
  four.send_line(1000);
  EXPECT_EQ(four.lane_bytes(0), 252U);
  EXPECT_EQ(four.lane_bytes(1), 252U);
  EXPECT_EQ(four.lane_bytes(2), 251U);
  EXPECT_EQ(four.lane_bytes(3), 251U);
  EXPECT_NEAR(four.transmit_seconds(), 252e-6, 1e-12);
  // Ceilings accumulate per packet: two 1006-byte packets cost 2 x 252
  // byte-times, not ceil(2012 / 4) = 503 — each packet waits for its own
  // slowest lane before the next begins.
  four.send_line(1000);
  EXPECT_NEAR(four.transmit_seconds(), 504e-6, 1e-12);
  // The framed-transport entry point shares the accounting.
  MipiCsi2Link framed(MipiConfig{.lanes = 2, .byte_clock_hz = 1e6});
  framed.send_packet(7, 1);  // 7 bytes on 2 lanes: 4 + 3, time = 4 byte-times
  EXPECT_EQ(framed.lane_bytes(0), 4U);
  EXPECT_EQ(framed.lane_bytes(1), 3U);
  EXPECT_NEAR(framed.transmit_seconds(), 4e-6, 1e-12);
  EXPECT_EQ(framed.total_bytes(), 7U);
  EXPECT_EQ(framed.payload_bytes(), 1U);
}

TEST(NoiseTest, DisabledIsIdentity) {
  NoiseModel noise(NoiseConfig{}, 16);
  Rng rng(1);
  EXPECT_FLOAT_EQ(noise.apply_exposure(0, 123.0F, 0.01, rng), 123.0F);
  EXPECT_FLOAT_EQ(noise.apply_read(0, 45.0F, rng), 45.0F);
}

TEST(NoiseTest, ShotNoiseHasPoissonScaling) {
  NoiseConfig cfg;
  cfg.enabled = true;
  cfg.read_noise_electrons = 0.0F;
  cfg.dark_current_e_per_s = 0.0F;
  cfg.fpn_gain_sigma = 0.0F;
  cfg.fpn_offset_electrons = 0.0F;
  NoiseModel noise(cfg, 1);
  Rng rng(2);
  const float mean_e = 400.0F;
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    const double v = noise.apply_exposure(0, mean_e, 0.0, rng);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, mean_e, 2.0);          // unbiased
  EXPECT_NEAR(var, mean_e, mean_e * 0.2);  // variance ~= mean (Poisson)
}

TEST(NoiseTest, FixedPatternNoiseIsDeterministicPerPixel) {
  NoiseConfig cfg;
  cfg.enabled = true;
  cfg.shot_noise = false;
  cfg.read_noise_electrons = 0.0F;
  cfg.dark_current_e_per_s = 0.0F;
  NoiseModel noise(cfg, 8);
  Rng rng(3);
  const float a1 = noise.apply_exposure(3, 100.0F, 0.0, rng);
  const float a2 = noise.apply_exposure(3, 100.0F, 0.0, rng);
  EXPECT_FLOAT_EQ(a1, a2);  // same pixel, same gain
}

// --- full sensor ------------------------------------------------------------

SensorConfig small_sensor_config(int image, int slots) {
  SensorConfig cfg;
  cfg.height = image;
  cfg.width = image;
  cfg.electrons_per_unit = 200.0F;
  cfg.adc.full_scale = 200.0F * static_cast<float>(slots);
  cfg.pixel.full_well_electrons = cfg.adc.full_scale;
  return cfg;
}

TEST(StackedSensorTest, NoiselessCaptureMatchesEquationOne) {
  Rng scene_rng(4);
  Rng cap_rng(5);
  const CePattern pattern = CePattern::random(8, 4, scene_rng, 0.5F);
  StackedSensor sensor(small_sensor_config(16, 8), pattern);
  const Tensor scene = Tensor::rand_uniform(Shape{8, 16, 16}, scene_rng);
  const Tensor captured = sensor.capture(scene, cap_rng);
  const Tensor ideal = sensor.ideal_codes(scene);
  // Protocol result must match the mathematical model to within 1 LSB.
  for (std::size_t i = 0; i < captured.data().size(); ++i) {
    EXPECT_NEAR(captured.data()[i], ideal.data()[i], 1.0F) << "pixel " << i;
  }
}

TEST(StackedSensorTest, LongExposureSaturatesBrightScene) {
  Rng rng(6);
  SensorConfig cfg = small_sensor_config(8, 4);
  cfg.adc.full_scale = 200.0F;  // one slot's worth of range
  cfg.pixel.full_well_electrons = 200.0F;
  StackedSensor sensor(cfg, CePattern::long_exposure(4, 2));
  const Tensor scene = Tensor::ones(Shape{4, 8, 8});
  const Tensor captured = sensor.capture(scene, rng);
  for (const float v : captured.data()) {
    EXPECT_FLOAT_EQ(v, 255.0F);  // full-well + ADC clamp
  }
}

TEST(StackedSensorTest, PatternStreamingCycleAccounting) {
  Rng rng(7);
  const int tile = 4;
  const int slots = 8;
  const CePattern pattern = CePattern::random(slots, tile, rng, 0.5F);
  StackedSensor sensor(small_sensor_config(16, slots), pattern);
  const Tensor scene = Tensor::rand_uniform(Shape{slots, 16, 16}, rng);
  (void)sensor.capture(scene, rng);
  const auto& stats = sensor.stats();
  // Two streams (reset + transfer) of P bits per slot, per chain.
  const std::uint64_t chains = 16 / tile * (16 / tile);
  EXPECT_EQ(stats.pattern_bits_streamed,
            2ULL * slots * tile * tile * chains);
  EXPECT_EQ(stats.pattern_clk_cycles, 2ULL * slots * tile * tile);
  EXPECT_EQ(stats.adc_conversions, 16ULL * 16ULL);
  // MIPI: 16 rows of 16 payload bytes + 6 bytes packet overhead each.
  EXPECT_EQ(stats.mipi_bytes, 16ULL * (16 + 6));
}

TEST(StackedSensorTest, ResetAndTransferCountsMatchPattern) {
  Rng rng(8);
  const CePattern pattern = CePattern::sparse_random(8, 4, rng);
  StackedSensor sensor(small_sensor_config(16, 8), pattern);
  const Tensor scene = Tensor::rand_uniform(Shape{8, 16, 16}, rng);
  (void)sensor.capture(scene, rng);
  // Sparse random: each pixel exposed exactly once -> one reset+transfer per
  // pixel over the whole frame.
  EXPECT_EQ(sensor.stats().pd_resets, 16ULL * 16ULL);
  EXPECT_EQ(sensor.stats().charge_transfers, 16ULL * 16ULL);
}

TEST(StackedSensorTest, FrameTimeComposition) {
  Rng rng(9);
  const CePattern pattern = CePattern::long_exposure(4, 2);
  StackedSensor sensor(small_sensor_config(8, 4), pattern);
  const Tensor scene = Tensor::rand_uniform(Shape{4, 8, 8}, rng);
  (void)sensor.capture(scene, rng);
  const auto& stats = sensor.stats();
  EXPECT_GT(stats.pattern_time_s, 0.0);
  EXPECT_GT(stats.exposure_time_s, 0.0);
  EXPECT_GT(stats.readout_time_s, 0.0);
  EXPECT_GT(stats.mipi_time_s, 0.0);
  EXPECT_NEAR(stats.frame_time_s,
              stats.pattern_time_s + stats.exposure_time_s + stats.readout_time_s +
                  stats.mipi_time_s,
              1e-12);
  // Exposure dominates at 480 Hz slots.
  EXPECT_GT(stats.exposure_time_s, stats.pattern_time_s);
}

TEST(StackedSensorTest, NoisyCaptureStaysCloseToIdeal) {
  Rng rng(10);
  SensorConfig cfg = small_sensor_config(16, 8);
  cfg.noise.enabled = true;
  const CePattern pattern = CePattern::random(8, 4, rng, 0.5F);
  StackedSensor sensor(cfg, pattern);
  const Tensor scene = Tensor::rand_uniform(Shape{8, 16, 16}, rng, 0.3F, 0.9F);
  const Tensor captured = sensor.capture(scene, rng);
  const Tensor ideal = sensor.ideal_codes(scene);
  double err = 0.0;
  for (std::size_t i = 0; i < captured.data().size(); ++i) {
    err += std::fabs(captured.data()[i] - ideal.data()[i]);
  }
  err /= static_cast<double>(captured.data().size());
  EXPECT_GT(err, 0.0);   // noise did something
  EXPECT_LT(err, 10.0);  // but within a few LSBs on average
}

TEST(StackedSensorTest, MismatchedSceneThrows) {
  Rng rng(11);
  StackedSensor sensor(small_sensor_config(16, 8), CePattern::long_exposure(8, 4));
  EXPECT_THROW(sensor.capture(Tensor::zeros(Shape{4, 16, 16}), rng), std::runtime_error);
  EXPECT_THROW(sensor.capture(Tensor::zeros(Shape{8, 8, 8}), rng), std::runtime_error);
}

TEST(StackedSensorTest, IndivisibleTileThrows) {
  SensorConfig cfg = small_sensor_config(10, 4);
  EXPECT_THROW(StackedSensor(cfg, CePattern::long_exposure(4, 4)), std::runtime_error);
}

// --- conventional capture mode ------------------------------------------------

TEST(ConventionalCapture, MatchesSceneFrames) {
  Rng rng(5);
  SensorConfig cfg;
  cfg.height = 8;
  cfg.width = 8;
  cfg.adc.full_scale = cfg.electrons_per_unit;  // one slot spans the range
  cfg.pixel.full_well_electrons = cfg.adc.full_scale;
  StackedSensor sensor(cfg, CePattern::long_exposure(4, 2));
  const Tensor scene = Tensor::rand_uniform(Shape{4, 8, 8}, rng);
  const Tensor frames = sensor.capture_conventional(scene, rng);
  EXPECT_EQ(frames.shape(), (Shape{4, 8, 8}));
  // Each frame should be the quantized scene frame.
  for (std::size_t i = 0; i < frames.data().size(); ++i) {
    const float expected = std::round(scene.data()[i] * 255.0F);
    EXPECT_NEAR(frames.data()[i], expected, 1.0F);
  }
}

TEST(ConventionalCapture, ReadoutCostIsTTimesCodedCapture) {
  // The crux of the paper: conventional capture pays T read-outs and T
  // frame transmissions; CE capture pays exactly one.
  Rng rng(6);
  SensorConfig cfg;
  cfg.height = 16;
  cfg.width = 16;
  cfg.adc.full_scale = cfg.electrons_per_unit * 8;
  cfg.pixel.full_well_electrons = cfg.adc.full_scale;
  StackedSensor sensor(cfg, CePattern::long_exposure(8, 4));
  const Tensor scene = Tensor::rand_uniform(Shape{8, 16, 16}, rng);

  (void)sensor.capture(scene, rng);
  const auto coded_adc = sensor.stats().adc_conversions;
  const auto coded_bytes = sensor.stats().mipi_bytes;

  (void)sensor.capture_conventional(scene, rng);
  const auto conv_adc = sensor.stats().adc_conversions;
  const auto conv_bytes = sensor.stats().mipi_bytes;

  EXPECT_EQ(conv_adc, 8U * coded_adc);
  EXPECT_EQ(conv_bytes, 8U * coded_bytes);
}

TEST(ConventionalCapture, WrongGeometryThrows) {
  Rng rng(7);
  SensorConfig cfg;
  cfg.height = 8;
  cfg.width = 8;
  StackedSensor sensor(cfg, CePattern::long_exposure(4, 2));
  EXPECT_THROW(sensor.capture_conventional(Tensor::zeros(Shape{4, 4, 4}), rng),
               std::runtime_error);
}

// Property sweep: protocol == Eqn. 1 across pattern families and geometries.
struct SensorCase {
  int image;
  int slots;
  int tile;
  int pattern_kind;  // 0 long, 1 short, 2 random, 3 sparse
};

class SensorEquivalenceTest : public ::testing::TestWithParam<SensorCase> {};

TEST_P(SensorEquivalenceTest, ProtocolMatchesMath) {
  const auto param = GetParam();
  Rng rng(static_cast<std::uint64_t>(param.image * 1000 + param.slots * 10 + param.tile));
  CePattern pattern = [&] {
    switch (param.pattern_kind) {
      case 0:
        return CePattern::long_exposure(param.slots, param.tile);
      case 1:
        return CePattern::short_exposure(param.slots, param.tile, 4);
      case 2:
        return CePattern::random(param.slots, param.tile, rng, 0.5F);
      default:
        return CePattern::sparse_random(param.slots, param.tile, rng);
    }
  }();
  StackedSensor sensor(small_sensor_config(param.image, param.slots), pattern);
  const Tensor scene =
      Tensor::rand_uniform(Shape{param.slots, param.image, param.image}, rng);
  Rng cap_rng(99);
  const Tensor captured = sensor.capture(scene, cap_rng);
  const Tensor ideal = sensor.ideal_codes(scene);
  for (std::size_t i = 0; i < captured.data().size(); ++i) {
    ASSERT_NEAR(captured.data()[i], ideal.data()[i], 1.0F);
  }
}

INSTANTIATE_TEST_SUITE_P(SensorGrid, SensorEquivalenceTest,
                         ::testing::Values(SensorCase{8, 4, 2, 0}, SensorCase{8, 4, 2, 1},
                                           SensorCase{16, 8, 4, 2}, SensorCase{16, 8, 4, 3},
                                           SensorCase{16, 16, 8, 2}, SensorCase{32, 16, 8, 2},
                                           SensorCase{16, 2, 1, 2}, SensorCase{8, 16, 2, 3}));

}  // namespace
}  // namespace snappix

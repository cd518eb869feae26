// Edge-sensing energy model (paper Sec. VI-D), seeded with the paper's
// CamJ-calibrated constants:
//  - 220 pJ/pixel total sensing energy at 8 bits, 95.6% of it ADC + MIPI,
//  - 9 pJ/pixel CE pattern-streaming overhead per slot (20 MHz pattern clk),
//  - passive Wi-Fi 43.04 pJ/pixel (short range, ~10 m),
//  - LoRa backscatter 7.4 uJ/pixel (long range, >100 m).
#pragma once

#include <cstdint>
#include <string>

namespace snappix::energy {

struct SensorEnergyParams {
  double sensing_pj_per_pixel = 220.0;  // conventional 8-bit read-out
  double adc_mipi_fraction = 0.956;     // read-out share of sensing energy
  double adc_fraction = 0.66;           // ADC share of a sensor's energy (survey)
  double ce_overhead_pj_per_pixel_slot = 9.0;
};

struct WirelessParams {
  double passive_wifi_pj_per_pixel = 43.04;
  double lora_backscatter_pj_per_pixel = 7.4e6;  // 7.4 uJ
};

enum class WirelessTech { kPassiveWifi, kLoraBackscatter };

const char* wireless_tech_name(WirelessTech tech);

class EnergyModel {
 public:
  EnergyModel() = default;
  EnergyModel(const SensorEnergyParams& sensor, const WirelessParams& wireless)
      : sensor_(sensor), wireless_(wireless) {}

  // --- per-pixel component energies (picojoules) ---------------------------
  // Read-out (ADC + MIPI) share of the sensing energy; paid per pixel READ.
  double readout_pj_per_pixel() const {
    return sensor_.sensing_pj_per_pixel * sensor_.adc_mipi_fraction;
  }
  // Analog front-end (exposure, amplification); paid per pixel per FRAME/slot
  // integrated, whether or not the value is read out.
  double analog_pj_per_pixel() const {
    return sensor_.sensing_pj_per_pixel * (1.0 - sensor_.adc_mipi_fraction);
  }
  double ce_pj_per_pixel_slot() const { return sensor_.ce_overhead_pj_per_pixel_slot; }
  double wireless_pj_per_pixel(WirelessTech tech) const;

  // --- composed energies (joules) ------------------------------------------
  // Conventional sensor: T frames exposed, read out, and transmitted.
  double conventional_edge_energy_j(std::int64_t pixels_per_frame, int frames,
                                    WirelessTech tech) const;
  // SNAPPIX: T slots exposed (analog + CE streaming each slot), one coded
  // frame read out and transmitted.
  double snappix_edge_energy_j(std::int64_t pixels_per_frame, int slots,
                               WirelessTech tech) const;

 private:
  SensorEnergyParams sensor_;
  WirelessParams wireless_;
};

// --- mobile-GPU scenario (Sec. VI-D, Jetson Xavier) --------------------------
// Energy of running a model on the edge GPU at batch 1, modeled as a fixed
// per-inference cost (kernel launches, memory traffic, loading 16 frames vs
// 1 coded image) plus workload-dependent energy per GFLOP (conv3d utilizes
// the mobile GPU far worse than dense transformer matmuls). Calibrated
// against the paper's measured Jetson Xavier ratios: SNAPPIX-S saves 1.4x vs
// VideoMAEv2-ST and 4.5x vs C3D.
struct GpuModelParams {
  double fixed_j_per_inference = 5.52;  // batch-1 overhead (static power x latency floor)
  double dense_j_per_gflop = 0.10;      // transformer/dense workloads
  double conv3d_j_per_gflop = 0.607;    // conv3d workloads (poor mobile-GPU utilization)
};

struct GpuInference {
  std::string name;
  double gflops = 0.0;
  bool conv3d_bound = false;  // true for C3D-style workloads
};

double gpu_inference_energy_j(const GpuInference& inference, const GpuModelParams& params);

// Analytic FLOP counts (multiply-accumulate pairs counted as 2 FLOPs) of the
// paper-scale model variants at 112x112, T = 16, patch 8.
double vit_gflops(std::int64_t tokens, std::int64_t dim, int depth, std::int64_t patch_in);
double paper_snappix_s_gflops();
double paper_snappix_b_gflops();
double paper_videomae_st_gflops();
double paper_c3d_gflops();

}  // namespace snappix::energy

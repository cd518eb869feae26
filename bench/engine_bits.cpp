// Fingerprints every serving output bit: the tape forward, the fp32
// BatchedVitEngine, the calibrated QuantSpec and the int8 QuantizedVitEngine,
// for both heads at 16x16 (4 tokens) and 32x32 (16 tokens). One line per
// (geometry, model seed, output) with an FNV-1a hash of the raw float bits,
// so two builds — a parent commit and a change that claims to move no bit —
// compare with a plain diff:
//
//   diff <(parent/build/bench_engine_bits) <(build/bench_engine_bits)
//
// Exits non-zero if, within this build, an fp32 engine output differs from
// the tape's. `--pair-kernel` pins the int8 GEMM to its pair kernel (the
// engines otherwise run AMX tiles where the host grants them), so both int8
// kernels diff against one golden file; stderr names the kernel that ran.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <vector>

#include "core/snappix.h"
#include "runtime/engine.h"
#include "runtime/quant.h"
#include "tensor/gemm_s8.h"
#include "util/rng.h"

namespace {

using namespace snappix;

std::uint64_t fnv1a(const std::vector<float>& values) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const float v : values) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int byte = 0; byte < 4; ++byte) {
      hash = (hash ^ ((bits >> (8 * byte)) & 0xffU)) * 1099511628211ULL;
    }
  }
  return hash;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.data().size() == b.data().size() &&
         std::memcmp(a.data().data(), b.data().data(), a.data().size() * sizeof(float)) == 0;
}

void print_hash(std::int64_t image, std::uint64_t seed, const char* name,
                const std::vector<float>& values) {
  std::printf("%lldx%lld seed %llu %-14s %016llx\n", static_cast<long long>(image),
              static_cast<long long>(image), static_cast<unsigned long long>(seed), name,
              static_cast<unsigned long long>(fnv1a(values)));
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<detail::ScopedS8PairKernel> pair_kernel;
  if (argc > 1 && std::strcmp(argv[1], "--pair-kernel") == 0) {
    pair_kernel.emplace();
  }
  std::fprintf(stderr, "int8 GEMM kernel: %s\n",
               detail::gemm_s8_amx_enabled()   ? "AMX-INT8 tiles"
               : detail::gemm_s8_simd_enabled() ? "AVX2 pairs"
                                                : "scalar pairs");
  NoGradGuard guard;
  bool fp32_matches_tape = true;
  for (const std::int64_t image : {16, 32}) {
    for (const std::uint64_t seed : {1ULL, 7ULL}) {
      core::SnapPixConfig cfg;
      cfg.image = image;
      cfg.frames = image == 16 ? 8 : 16;
      cfg.seed = seed;
      core::SnapPixSystem system(cfg);
      Rng rng(100 + seed);
      // 37 frames through max_batch 16: two full chunks and a ragged one.
      const Tensor coded = Tensor::rand_uniform(Shape{37, image, image}, rng);

      const Tensor tape_logits = system.classify_logits_coded(coded);
      const Tensor tape_video = system.reconstruct_coded(coded);
      const runtime::BatchedVitEngine fp32(*system.classifier(), *system.reconstructor(), 16);
      const Tensor fp32_logits = fp32.classify_logits(coded);
      const Tensor fp32_video = fp32.reconstruct(coded);
      fp32_matches_tape = fp32_matches_tape && same_bits(fp32_logits, tape_logits) &&
                          same_bits(fp32_video, tape_video);

      const runtime::QuantSpec spec = runtime::calibrate(
          *system.classifier(), *system.reconstructor(),
          runtime::make_calibration_frames(system.pattern(), image, image, {}));
      std::vector<float> scales = {spec.embed_in, spec.head_in, spec.rec_in};
      for (const runtime::QuantBlockScales& b : spec.blocks) {
        scales.insert(scales.end(), {b.qkv_in, b.proj_in, b.fc1_in, b.gelu_in, b.fc2_in});
      }
      const runtime::QuantizedVitEngine int8(*system.classifier(), *system.reconstructor(),
                                             spec, 16);

      print_hash(image, seed, "tape_logits", tape_logits.data());
      print_hash(image, seed, "tape_video", tape_video.data());
      print_hash(image, seed, "fp32_logits", fp32_logits.data());
      print_hash(image, seed, "fp32_video", fp32_video.data());
      print_hash(image, seed, "quant_spec", scales);
      print_hash(image, seed, "int8_logits", int8.classify_logits(coded).data());
      print_hash(image, seed, "int8_video", int8.reconstruct(coded).data());
    }
  }
  std::printf("fp32 engine bit-identical to the tape: %s\n", fp32_matches_tape ? "yes" : "NO");
  return fp32_matches_tape ? 0 : 1;
}

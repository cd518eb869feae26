// Coded-exposure encoding (paper Eqn. 1): X(i,j) = sum_t M(i,j,t) * Y(i,j,t).
//
// Two paths are provided:
//  - the tape-free encode (ce_encode, encode_normalized, encode_frame) for
//    inference, serving and data preparation: one kernel over a per-pattern
//    EncodeTable;
//  - ce_encode_diff: differentiable encoding through continuous mask weights
//    with a straight-through estimator, used to *learn* patterns (Sec. III).
#pragma once

#include <cstdint>
#include <vector>

#include "ce/pattern.h"
#include "tensor/tensor.h"

namespace snappix::ce {

// A pattern's encode tables, built once per pattern (a camera builds its own
// when it is constructed) so an encode does no per-frame pattern work: the
// mask as 0/1 floats, laid out (tile, T, tile) so each slot's row of a tile
// is contiguous and the kernel loads 8 pixels' values of one slot at once,
// and the (tile, tile) reciprocal exposure counts, 0 for a pixel that is
// never exposed.
class EncodeTable {
 public:
  explicit EncodeTable(const CePattern& pattern);

  int slots() const { return slots_; }
  int tile() const { return tile_; }
  // The (T, tile) mask values of within-tile row `y`: slot t's row starts
  // at t * tile.
  const float* mask(int y) const {
    return mask_.data() + static_cast<std::size_t>(y) * slots_ * tile_;
  }
  // The reciprocal exposure counts of within-tile row `y` (`tile` values).
  const float* inv_counts(int y) const {
    return inv_counts_.data() + static_cast<std::size_t>(y) * tile_;
  }

 private:
  int slots_;
  int tile_;
  std::vector<float> mask_;
  std::vector<float> inv_counts_;
};

// The CE kernel. Encodes the (T, h, w) clip at `video` into the (h, w) image
// at `dst`. Each pixel is the ascending-t chain 0 + M(0)*Y(0) + M(1)*Y(1) +
// ..., one rounding per mul and per add; unexposed slots are multiplied too,
// so a non-finite input reaches the output exactly as Eqn. 1 says. With
// `normalize` the sum is then multiplied by the pixel's reciprocal exposure
// count — the same bits as normalize_by_exposure(ce_encode(...)). Under
// AVX2 it runs 8 pixels of a tile row per vector (the rest of a row one at
// a time), each lane the same chain, so both paths give the same bits.
void encode_frame(const EncodeTable& table, const float* video, std::int64_t h,
                  std::int64_t w, bool normalize, float* dst);

// Encodes a batch of videos (B, T, H, W) into coded images (B, H, W).
// No autograd tape is recorded.
Tensor ce_encode(const Tensor& videos, const CePattern& pattern);

// Single-video convenience: (T, H, W) -> (H, W).
Tensor ce_encode_single(const Tensor& video, const CePattern& pattern);

// Encodes and exposure-normalizes in one pass: (B, T, H, W) -> (B, H, W), or
// one clip (T, H, W) -> (H, W). Bit-identical to
// normalize_by_exposure(ce_encode(videos, pattern), pattern).
Tensor encode_normalized(const Tensor& videos, const EncodeTable& table);

// Differentiable encoding for pattern learning. `weights` is a continuous
// (T, tile, tile) tensor; the binary mask is binarize_ste(weights) tiled over
// the frame, so gradients flow back into `weights` straight-through.
Tensor ce_encode_diff(const Tensor& videos, const Tensor& weights);

// Divides each coded pixel by its exposure-slot count (paper Sec. IV: "each
// pixel value is normalized by the number of exposure slots") as a multiply
// by the reciprocal count. Pixels that are never exposed are multiplied by
// 0. Input (B, H, W) or one (H, W) image, tape-free.
Tensor normalize_by_exposure(const Tensor& coded, const CePattern& pattern);
Tensor normalize_by_exposure(const Tensor& coded, const EncodeTable& table);

}  // namespace snappix::ce

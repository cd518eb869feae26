#include "ce/encode.h"

#include "util/common.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace snappix::ce {

EncodeTable::EncodeTable(const CePattern& pattern)
    : slots_(pattern.slots()), tile_(pattern.tile()) {
  const auto pixels = static_cast<std::size_t>(tile_) * static_cast<std::size_t>(tile_);
  mask_.resize(pixels * static_cast<std::size_t>(slots_));
  inv_counts_.resize(pixels);
  for (int y = 0; y < tile_; ++y) {
    for (int x = 0; x < tile_; ++x) {
      const std::size_t p = static_cast<std::size_t>(y) * tile_ + x;
      int count = 0;
      for (int t = 0; t < slots_; ++t) {
        const bool on = pattern.bit(t, y, x);
        mask_[(static_cast<std::size_t>(y) * slots_ + t) * tile_ + x] = on ? 1.0F : 0.0F;
        count += on ? 1 : 0;
      }
      inv_counts_[p] = count > 0 ? 1.0F / static_cast<float>(count) : 0.0F;
    }
  }
}

void encode_frame(const EncodeTable& table, const float* video, std::int64_t h,
                  std::int64_t w, bool normalize, float* dst) {
  const int tile = table.tile();
  const int slots = table.slots();
  SNAPPIX_CHECK(h % tile == 0 && w % tile == 0,
                "frame " << h << "x" << w << " not divisible by tile " << tile);
  const std::int64_t plane = h * w;
  for (std::int64_t y0 = 0; y0 < h; y0 += tile) {
    for (int ty = 0; ty < tile; ++ty) {
      const std::int64_t row = (y0 + ty) * w;
      const float* mask = table.mask(ty);
      const float* inv = table.inv_counts(ty);
      for (std::int64_t x0 = 0; x0 < w; x0 += tile) {
        const float* in = video + row + x0;
        float* out = dst + row + x0;
        int tx = 0;
#if defined(__AVX2__)
        for (; tx + 8 <= tile; tx += 8) {
          __m256 acc = _mm256_setzero_ps();
          for (int t = 0; t < slots; ++t) {
            const __m256 m = _mm256_loadu_ps(mask + t * tile + tx);
            acc = _mm256_add_ps(acc, _mm256_mul_ps(m, _mm256_loadu_ps(in + t * plane + tx)));
          }
          _mm256_storeu_ps(out + tx,
                           normalize ? _mm256_mul_ps(acc, _mm256_loadu_ps(inv + tx)) : acc);
        }
#endif
        for (; tx < tile; ++tx) {
          float acc = 0.0F;
          for (int t = 0; t < slots; ++t) {
            acc += mask[t * tile + tx] * in[t * plane + tx];
          }
          out[tx] = normalize ? acc * inv[tx] : acc;
        }
      }
    }
  }
}

namespace {

// (B, T, H, W) -> (B, H, W) or (T, H, W) -> (H, W) through encode_frame.
Tensor encode_clips(const Tensor& videos, const EncodeTable& table, bool normalize) {
  SNAPPIX_CHECK(videos.ndim() == 3 || videos.ndim() == 4,
                "CE encode expects (B, T, H, W) or (T, H, W), got "
                    << videos.shape().to_string());
  const bool batched = videos.ndim() == 4;
  const std::int64_t batch = batched ? videos.shape()[0] : 1;
  const std::int64_t frames = videos.shape()[-3];
  const std::int64_t h = videos.shape()[-2];
  const std::int64_t w = videos.shape()[-1];
  SNAPPIX_CHECK(frames == table.slots(), "video has " << frames << " frames but pattern has "
                                                      << table.slots() << " slots");
  std::vector<float> out(static_cast<std::size_t>(batch * h * w));
  for (std::int64_t b = 0; b < batch; ++b) {
    encode_frame(table, videos.data().data() + b * frames * h * w, h, w, normalize,
                 out.data() + b * h * w);
  }
  return Tensor::from_vector(std::move(out), batched ? Shape{batch, h, w} : Shape{h, w});
}

}  // namespace

Tensor ce_encode(const Tensor& videos, const CePattern& pattern) {
  SNAPPIX_CHECK(videos.ndim() == 4, "ce_encode expects (B, T, H, W), got "
                                        << videos.shape().to_string());
  return encode_clips(videos, EncodeTable(pattern), false);
}

Tensor ce_encode_single(const Tensor& video, const CePattern& pattern) {
  SNAPPIX_CHECK(video.ndim() == 3, "ce_encode_single expects (T, H, W), got "
                                       << video.shape().to_string());
  return encode_clips(video, EncodeTable(pattern), false);
}

Tensor encode_normalized(const Tensor& videos, const EncodeTable& table) {
  return encode_clips(videos, table, true);
}

Tensor ce_encode_diff(const Tensor& videos, const Tensor& weights) {
  SNAPPIX_CHECK(videos.ndim() == 4, "ce_encode_diff expects (B, T, H, W) videos, got "
                                        << videos.shape().to_string());
  SNAPPIX_CHECK(weights.ndim() == 3 && weights.shape()[1] == weights.shape()[2],
                "ce_encode_diff expects (T, tile, tile) weights, got "
                    << weights.shape().to_string());
  const std::int64_t frames = videos.shape()[1];
  const std::int64_t h = videos.shape()[2];
  const std::int64_t w = videos.shape()[3];
  const std::int64_t tile = weights.shape()[1];
  SNAPPIX_CHECK(weights.shape()[0] == frames, "weights slots " << weights.shape()[0]
                                                               << " != video frames " << frames);
  SNAPPIX_CHECK(h % tile == 0 && w % tile == 0,
                "frame " << h << "x" << w << " not divisible by tile " << tile);
  // Binary mask with straight-through gradients, repeated across tiles.
  const Tensor mask = binarize_ste(weights);                // (T, tile, tile)
  const Tensor full = tile_2d(mask, h / tile, w / tile);    // (T, H, W)
  const Tensor masked = mul(videos, full);                  // broadcast over batch
  return sum(masked, /*axis=*/1);                           // (B, H, W)
}

Tensor normalize_by_exposure(const Tensor& coded, const CePattern& pattern) {
  return normalize_by_exposure(coded, EncodeTable(pattern));
}

Tensor normalize_by_exposure(const Tensor& coded, const EncodeTable& table) {
  SNAPPIX_CHECK(coded.ndim() == 2 || coded.ndim() == 3,
                "normalize_by_exposure expects (B, H, W) or (H, W), got "
                    << coded.shape().to_string());
  const std::int64_t h = coded.shape()[-2];
  const std::int64_t w = coded.shape()[-1];
  const int tile = table.tile();
  SNAPPIX_CHECK(h % tile == 0 && w % tile == 0,
                "frame " << h << "x" << w << " not divisible by tile " << tile);
  const std::vector<float>& src = coded.data();
  std::vector<float> out(src.size());
  for (std::size_t base = 0; base < src.size(); base += static_cast<std::size_t>(h * w)) {
    for (std::int64_t y0 = 0; y0 < h; y0 += tile) {
      for (int ty = 0; ty < tile; ++ty) {
        const float* inv = table.inv_counts(ty);
        const std::size_t row = base + static_cast<std::size_t>((y0 + ty) * w);
        for (std::int64_t x0 = 0; x0 < w; x0 += tile) {
          for (int tx = 0; tx < tile; ++tx) {
            const std::size_t i = row + static_cast<std::size_t>(x0 + tx);
            out[i] = src[i] * inv[tx];
          }
        }
      }
    }
  }
  return Tensor::from_vector(std::move(out), coded.shape());
}

}  // namespace snappix::ce

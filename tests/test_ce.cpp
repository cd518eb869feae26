// Tests for coded-exposure patterns, encoding (Eqn. 1), and the
// decorrelation statistics of Sec. III.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>

#include "ce/encode.h"
#include "ce/pattern.h"
#include "ce/stats.h"
#include "data/synthetic.h"
#include "gradcheck.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace snappix {
namespace {

using ce::CePattern;

TEST(CePatternTest, LongExposureExposesEverything) {
  const CePattern p = CePattern::long_exposure(16, 8);
  EXPECT_EQ(p.total_exposed(), 16 * 8 * 8);
  EXPECT_FLOAT_EQ(p.exposure_fraction(), 1.0F);
  for (const int c : p.exposure_counts()) {
    EXPECT_EQ(c, 16);
  }
}

TEST(CePatternTest, ShortExposurePeriod) {
  const CePattern p = CePattern::short_exposure(16, 4, 8);
  // Slots 0 and 8 exposed -> 2 per pixel.
  for (const int c : p.exposure_counts()) {
    EXPECT_EQ(c, 2);
  }
  EXPECT_TRUE(p.bit(0, 0, 0));
  EXPECT_TRUE(p.bit(8, 2, 3));
  EXPECT_FALSE(p.bit(1, 0, 0));
}

TEST(CePatternTest, SparseRandomExposesExactlyOnce) {
  Rng rng(1);
  const CePattern p = CePattern::sparse_random(16, 8, rng);
  for (const int c : p.exposure_counts()) {
    EXPECT_EQ(c, 1);
  }
  EXPECT_EQ(p.total_exposed(), 64);
}

TEST(CePatternTest, RandomFractionNearP) {
  Rng rng(2);
  const CePattern p = CePattern::random(16, 8, rng, 0.5F);
  EXPECT_NEAR(p.exposure_fraction(), 0.5F, 0.08F);
}

TEST(CePatternTest, FromWeightsThreshold) {
  const Tensor w = Tensor::from_vector({0.2F, 0.8F, 0.5F, 0.9F}, Shape{1, 2, 2});
  const CePattern p = CePattern::from_weights(w);
  EXPECT_FALSE(p.bit(0, 0, 0));
  EXPECT_TRUE(p.bit(0, 0, 1));
  EXPECT_FALSE(p.bit(0, 1, 0));  // 0.5 is not > 0.5
  EXPECT_TRUE(p.bit(0, 1, 1));
}

TEST(CePatternTest, ToTensorAndFullMask) {
  Rng rng(3);
  const CePattern p = CePattern::random(4, 2, rng, 0.5F);
  const Tensor t = p.to_tensor();
  EXPECT_EQ(t.shape(), (Shape{4, 2, 2}));
  const Tensor full = p.full_mask(6, 8);
  EXPECT_EQ(full.shape(), (Shape{4, 6, 8}));
  for (std::int64_t s = 0; s < 4; ++s) {
    for (std::int64_t y = 0; y < 6; ++y) {
      for (std::int64_t x = 0; x < 8; ++x) {
        EXPECT_EQ(full.at({s, y, x}), t.at({s, y % 2, x % 2}));
      }
    }
  }
  EXPECT_THROW(p.full_mask(7, 8), std::runtime_error);
}

TEST(CePatternTest, SaveLoadRoundTrip) {
  Rng rng(4);
  const CePattern p = CePattern::random(16, 8, rng, 0.5F);
  const std::string path =
      (std::filesystem::temp_directory_path() / "snappix_pattern_test.bin").string();
  p.save(path);
  const CePattern q = CePattern::load(path);
  EXPECT_TRUE(p == q);
  std::remove(path.c_str());
}

TEST(CePatternTest, SlotBitsRasterOrder) {
  CePattern p(2, 2);
  p.set_bit(0, 0, 1, true);
  p.set_bit(0, 1, 0, true);
  const auto bits = p.slot_bits(0);
  ASSERT_EQ(bits.size(), 4U);
  EXPECT_EQ(bits[0], 0);
  EXPECT_EQ(bits[1], 1);
  EXPECT_EQ(bits[2], 1);
  EXPECT_EQ(bits[3], 0);
}

TEST(CePatternTest, InvalidArgumentsThrow) {
  EXPECT_THROW(CePattern(0, 8), std::runtime_error);
  EXPECT_THROW(CePattern(16, -1), std::runtime_error);
  CePattern p(4, 4);
  EXPECT_THROW(p.bit(4, 0, 0), std::runtime_error);
  EXPECT_THROW(p.bit(0, 4, 0), std::runtime_error);
}

TEST(CeEncode, MatchesEquationOne) {
  // Hand-computed: 2 slots, tile 1, so mask is per-slot global.
  CePattern p(2, 1);
  p.set_bit(0, 0, 0, true);   // slot 0 on
  p.set_bit(1, 0, 0, false);  // slot 1 off
  const Tensor video = Tensor::from_vector({1, 2, 3, 4,  // frame 0
                                            5, 6, 7, 8},
                                           Shape{1, 2, 2, 2});
  const Tensor coded = ce::ce_encode(video, p);
  EXPECT_TRUE(allclose(coded, Tensor::from_vector({1, 2, 3, 4}, Shape{1, 2, 2})));
}

TEST(CeEncode, LongExposureSumsAllFrames) {
  Rng rng(5);
  const Tensor video = Tensor::rand_uniform(Shape{2, 4, 4, 4}, rng);
  const Tensor coded = ce::ce_encode(video, CePattern::long_exposure(4, 2));
  const Tensor expected = sum(video, 1);
  EXPECT_TRUE(allclose(coded, expected, 1e-5F));
}

TEST(CeEncode, TileRepetitionAppliesSamePatternEverywhere) {
  Rng rng(6);
  CePattern p(2, 2);
  p.set_bit(0, 0, 0, true);
  p.set_bit(1, 1, 1, true);
  const Tensor video = Tensor::rand_uniform(Shape{1, 2, 6, 6}, rng);
  const Tensor coded = ce::ce_encode(video, p);
  for (std::int64_t y = 0; y < 6; ++y) {
    for (std::int64_t x = 0; x < 6; ++x) {
      float expected = 0.0F;
      if (y % 2 == 0 && x % 2 == 0) {
        expected = video.at({0, 0, y, x});
      } else if (y % 2 == 1 && x % 2 == 1) {
        expected = video.at({0, 1, y, x});
      }
      EXPECT_NEAR(coded.at({0, y, x}), expected, 1e-6F);
    }
  }
}

TEST(CeEncode, SingleMatchesBatch) {
  Rng rng(7);
  const CePattern p = CePattern::random(4, 2, rng, 0.5F);
  const Tensor video = Tensor::rand_uniform(Shape{4, 4, 4}, rng);
  const Tensor single = ce::ce_encode_single(video, p);
  const Tensor batched =
      ce::ce_encode(Tensor::from_vector(video.data(), Shape{1, 4, 4, 4}), p);
  EXPECT_TRUE(allclose(single, Tensor::from_vector(batched.data(), Shape{4, 4})));
}

TEST(CeEncode, MismatchedSlotsThrow) {
  const Tensor video = Tensor::zeros(Shape{1, 8, 4, 4});
  EXPECT_THROW(ce::ce_encode(video, CePattern::long_exposure(16, 2)), std::runtime_error);
}

TEST(CeEncode, IndivisibleTileThrows) {
  const Tensor video = Tensor::zeros(Shape{1, 4, 6, 6});
  EXPECT_THROW(ce::ce_encode(video, CePattern::long_exposure(4, 4)), std::runtime_error);
}

// Eqn. 1 straight from its definition, as the encoder was first written:
// each pixel starts at +0 and adds mask * value for t = 0, 1, ... with every
// slot multiplied, exposed or not; normalization then multiplies by the
// reciprocal exposure count (0 for a never-exposed pixel).
Tensor eqn1_reference(const Tensor& videos, const CePattern& p, bool normalize) {
  const std::int64_t batch = videos.shape()[0];
  const std::int64_t frames = videos.shape()[1];
  const std::int64_t h = videos.shape()[2];
  const std::int64_t w = videos.shape()[3];
  const std::vector<int> counts = p.exposure_counts();
  std::vector<float> out(static_cast<std::size_t>(batch * h * w), 0.0F);
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t y = 0; y < h; ++y) {
      for (std::int64_t x = 0; x < w; ++x) {
        const int ty = static_cast<int>(y % p.tile());
        const int tx = static_cast<int>(x % p.tile());
        float acc = 0.0F;
        for (std::int64_t t = 0; t < frames; ++t) {
          const float m = p.bit(static_cast<int>(t), ty, tx) ? 1.0F : 0.0F;
          acc += m * videos.data()[static_cast<std::size_t>(((b * frames + t) * h + y) * w + x)];
        }
        if (normalize) {
          const int c = counts[static_cast<std::size_t>(ty * p.tile() + tx)];
          acc *= c > 0 ? 1.0F / static_cast<float>(c) : 0.0F;
        }
        out[static_cast<std::size_t>((b * h + y) * w + x)] = acc;
      }
    }
  }
  return Tensor::from_vector(std::move(out), Shape{batch, h, w});
}

::testing::AssertionResult same_bits(const Tensor& expected, const Tensor& actual) {
  if (expected.data().size() != actual.data().size()) {
    return ::testing::AssertionFailure() << "sizes differ";
  }
  for (std::size_t i = 0; i < expected.data().size(); ++i) {
    std::uint32_t e = 0;
    std::uint32_t a = 0;
    std::memcpy(&e, &expected.data()[i], sizeof e);
    std::memcpy(&a, &actual.data()[i], sizeof a);
    if (e != a) {
      return ::testing::AssertionFailure()
             << "element " << i << ": expected bits " << std::hex << e << ", got " << a;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(CeEncode, KernelMatchesEquationOneOnSpecialValues) {
  // Signed zeros, subnormals, infinities and NaN, mixed with ordinary values.
  // The only NaN fed in is the one 0 * inf produces on this host, so every
  // NaN in play has the same bits and the comparison can stay bitwise.
  const float inf = std::numeric_limits<float>::infinity();
  volatile float zero = 0.0F;
  const float nan = zero * inf;
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float pool[] = {0.0F,  -0.0F, denorm, -denorm, 3.0F * denorm, 1e-39F,
                        inf,   -inf,  nan,    std::numeric_limits<float>::max(),
                        -std::numeric_limits<float>::max(), 0.5F, -1.25F, 7.0F};
  constexpr std::size_t kPool = sizeof(pool) / sizeof(pool[0]);
  Rng rng(29);
  // A small geometry that the kernel runs a pixel at a time, and the served
  // one (tile 8, T = 8, 16x16), whose tile rows fill an AVX2 vector.
  struct Geometry {
    int tile;
    int slots;
    std::int64_t image;
  };
  for (const Geometry g : {Geometry{4, 4, 8}, Geometry{8, 8, 16}}) {
    SCOPED_TRACE(::testing::Message() << "tile " << g.tile << ", T " << g.slots);
    const std::int64_t plane = g.image * g.image;
    CePattern p = CePattern::random(g.slots, g.tile, rng, 0.5F);
    for (int t = 0; t < g.slots; ++t) {
      p.set_bit(t, 1, 2, false);  // a never-exposed pixel: 0 * inf must still be NaN
    }
    const Shape shape{3, g.slots, g.image, g.image};
    std::vector<float> values(static_cast<std::size_t>(shape.numel()));
    for (float& v : values) {
      // Mostly ordinary values, so that pixels also come out finite.
      v = rng.bernoulli(0.3F) ? pool[rng.uniform_int(0, kPool - 1)] : rng.uniform(-2.0F, 2.0F);
    }
    // The last clip holds no positive value, so every product at the
    // never-exposed pixel is -0 or NaN: the chain from +0 must make it +0.
    const std::size_t last = values.size() / static_cast<std::size_t>(shape[0]) * 2;
    for (std::size_t i = last; i < values.size(); ++i) {
      values[i] = -std::fabs(values[i]);
    }
    const Tensor videos = Tensor::from_vector(values, shape);

    const Tensor coded = ce::ce_encode(videos, p);
    const Tensor normalized = ce::encode_normalized(videos, ce::EncodeTable(p));
    EXPECT_TRUE(same_bits(eqn1_reference(videos, p, false), coded));
    EXPECT_TRUE(same_bits(eqn1_reference(videos, p, true), normalized));
    EXPECT_TRUE(same_bits(normalized, ce::normalize_by_exposure(coded, p)));

    // The single-clip forms agree with the batch.
    for (std::int64_t b = 0; b < shape[0]; ++b) {
      const auto begin = values.begin() + b * g.slots * plane;
      const Tensor clip =
          Tensor::from_vector(std::vector<float>(begin, begin + g.slots * plane),
                              Shape{g.slots, g.image, g.image});
      const auto frame = [&](const Tensor& batch) {
        const auto first = batch.data().begin() + b * plane;
        return Tensor::from_vector(std::vector<float>(first, first + plane),
                                   Shape{g.image, g.image});
      };
      EXPECT_TRUE(same_bits(frame(coded), ce::ce_encode_single(clip, p)));
      EXPECT_TRUE(
          same_bits(frame(normalized), ce::encode_normalized(clip, ce::EncodeTable(p))));
    }

    // The never-exposed pixel multiplied every slot: any inf or NaN in its
    // clip left a NaN behind.
    std::size_t checked = 0;
    for (std::int64_t b = 0; b < shape[0]; ++b) {
      for (std::int64_t y = 1; y < g.image; y += g.tile) {
        for (std::int64_t x = 2; x < g.image; x += g.tile) {
          bool non_finite = false;
          for (std::int64_t t = 0; t < g.slots; ++t) {
            non_finite = non_finite || !std::isfinite(videos.at({b, t, y, x}));
          }
          if (non_finite) {
            EXPECT_TRUE(std::isnan(coded.at({b, y, x})));
            ++checked;
          }
        }
      }
    }
    EXPECT_GT(checked, 0U);
  }
}

TEST(CeEncodeDiff, MatchesFastPathForBinaryWeights) {
  Rng rng(8);
  const CePattern p = CePattern::random(4, 2, rng, 0.5F);
  const Tensor video = Tensor::rand_uniform(Shape{3, 4, 8, 8}, rng);
  const Tensor coded_fast = ce::ce_encode(video, p);
  const Tensor coded_diff = ce::ce_encode_diff(video, p.to_tensor());
  EXPECT_TRUE(allclose(coded_fast, coded_diff, 1e-5F));
}

TEST(CeEncodeDiff, GradientFlowsToWeights) {
  Rng rng(9);
  Tensor weights = Tensor::rand_uniform(Shape{4, 2, 2}, rng, 0.2F, 0.8F, true);
  const Tensor video = Tensor::rand_uniform(Shape{2, 4, 4, 4}, rng);
  Tensor coded = ce::ce_encode_diff(video, weights);
  sum_all(coded).backward();
  // Straight-through: gradient of sum w.r.t. each weight equals the total
  // light falling on the corresponding (slot, within-tile position).
  float total_grad = 0.0F;
  for (const float g : std::vector<float>(weights.grad().data())) {
    total_grad += g;
  }
  float total_light = 0.0F;
  for (const float v : video.data()) {
    total_light += v;
  }
  EXPECT_NEAR(total_grad, total_light, 1e-2F);
}

TEST(NormalizeByExposure, DividesByCounts) {
  CePattern p(2, 2);
  // position (0,0): 2 exposures, (0,1): 1, (1,0): 0, (1,1): 1.
  p.set_bit(0, 0, 0, true);
  p.set_bit(1, 0, 0, true);
  p.set_bit(0, 0, 1, true);
  p.set_bit(1, 1, 1, true);
  const Tensor coded = Tensor::full(Shape{1, 2, 2}, 6.0F);
  const Tensor norm = ce::normalize_by_exposure(coded, p);
  EXPECT_FLOAT_EQ(norm.at({0, 0, 0}), 3.0F);
  EXPECT_FLOAT_EQ(norm.at({0, 0, 1}), 6.0F);
  EXPECT_FLOAT_EQ(norm.at({0, 1, 0}), 0.0F);  // never exposed -> zero
  EXPECT_FLOAT_EQ(norm.at({0, 1, 1}), 6.0F);
}

TEST(CeStats, TileSamplesShape) {
  Rng rng(10);
  const Tensor coded = Tensor::rand_uniform(Shape{3, 8, 8}, rng);
  const Tensor samples = ce::tile_samples(coded, 4);
  EXPECT_EQ(samples.shape(), (Shape{12, 16}));
}

TEST(CeStats, TileSamplesGroupsPixelsCorrectly) {
  // Image whose value encodes the within-tile position.
  std::vector<float> values(4 * 4);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      values[static_cast<std::size_t>(y * 4 + x)] = static_cast<float>((y % 2) * 2 + (x % 2));
    }
  }
  const Tensor coded = Tensor::from_vector(values, Shape{1, 4, 4});
  const Tensor samples = ce::tile_samples(coded, 2);
  EXPECT_EQ(samples.shape(), (Shape{4, 4}));
  for (std::int64_t s = 0; s < 4; ++s) {
    for (std::int64_t p = 0; p < 4; ++p) {
      EXPECT_EQ(samples.at({s, p}), static_cast<float>(p));
    }
  }
}

TEST(CeStats, ZeroMeanContrastZeroesTileMeans) {
  Rng rng(11);
  const Tensor samples = Tensor::rand_uniform(Shape{6, 9}, rng);
  const Tensor z = ce::zero_mean_contrast(samples);
  const Tensor row_means = mean(z, -1);
  for (const float m : row_means.data()) {
    EXPECT_NEAR(m, 0.0F, 1e-5F);
  }
}

TEST(CeStats, PearsonOfIndependentNoiseIsNearIdentity) {
  Rng rng(12);
  const Tensor samples = Tensor::randn(Shape{4000, 4}, rng);
  const Tensor corr = ce::pearson_matrix(samples);
  EXPECT_EQ(corr.shape(), (Shape{4, 4}));
  for (std::int64_t i = 0; i < 4; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) {
      if (i == j) {
        EXPECT_NEAR(corr.at({i, j}), 1.0F, 1e-3F);
      } else {
        EXPECT_NEAR(corr.at({i, j}), 0.0F, 0.06F);
      }
    }
  }
}

TEST(CeStats, PearsonDetectsPerfectCorrelation) {
  Rng rng(13);
  // Column 1 = 2 * column 0 (perfectly correlated); column 2 = -column 0.
  std::vector<float> values;
  for (int s = 0; s < 500; ++s) {
    const float v = rng.normal();
    values.push_back(v);
    values.push_back(2.0F * v);
    values.push_back(-v);
  }
  const Tensor samples = Tensor::from_vector(std::move(values), Shape{500, 3});
  const Tensor corr = ce::pearson_matrix(samples);
  EXPECT_NEAR(corr.at({0, 1}), 1.0F, 1e-3F);
  EXPECT_NEAR(corr.at({0, 2}), -1.0F, 1e-3F);
  EXPECT_NEAR(corr.at({1, 2}), -1.0F, 1e-3F);
}

TEST(CeStats, DecorrelationLossOrdering) {
  // The paper's key observation (Fig. 6 legend): LONG EXPOSURE produces the
  // most correlated coded pixels; sparse/random patterns decorrelate more.
  Rng rng(14);
  data::SceneConfig scene;
  scene.frames = 16;
  scene.height = 32;
  scene.width = 32;
  const data::SyntheticVideoGenerator gen(scene);
  std::vector<float> all;
  const int batch = 12;
  for (int i = 0; i < batch; ++i) {
    const auto sample = gen.sample(rng);
    all.insert(all.end(), sample.video.data().begin(), sample.video.data().end());
  }
  const Tensor videos = Tensor::from_vector(std::move(all), Shape{batch, 16, 32, 32});

  Rng prng(15);
  const float corr_long =
      ce::mean_correlation(ce::ce_encode(videos, CePattern::long_exposure(16, 8)), 8);
  const float corr_random =
      ce::mean_correlation(ce::ce_encode(videos, CePattern::random(16, 8, prng, 0.5F)), 8);
  const float corr_sparse =
      ce::mean_correlation(ce::ce_encode(videos, CePattern::sparse_random(16, 8, prng)), 8);
  EXPECT_GT(corr_long, corr_random);
  EXPECT_GT(corr_random, corr_sparse);
}

TEST(CeStats, DecorrelationLossIsDifferentiable) {
  Rng rng(16);
  Tensor weights = Tensor::rand_uniform(Shape{4, 2, 2}, rng, 0.3F, 0.7F, true);
  const Tensor videos = Tensor::rand_uniform(Shape{4, 4, 8, 8}, rng);
  Tensor coded = ce::ce_encode_diff(videos, weights);
  Tensor loss = ce::decorrelation_loss(coded, 2);
  loss.backward();
  float grad_mag = 0.0F;
  for (const float g : std::vector<float>(weights.grad().data())) {
    grad_mag += std::abs(g);
  }
  EXPECT_GT(grad_mag, 0.0F);
}

// Property sweep: encode-reconstruct budget invariants across pattern types.
struct PatternCase {
  const char* name;
  int slots;
  int tile;
};

class PatternPropertyTest : public ::testing::TestWithParam<PatternCase> {};

TEST_P(PatternPropertyTest, EncodeIsLinearInInput) {
  const auto param = GetParam();
  Rng rng(17);
  const CePattern p = CePattern::random(param.slots, param.tile, rng, 0.5F);
  const std::int64_t hw = param.tile * 4;
  const Tensor a = Tensor::rand_uniform(Shape{2, param.slots, hw, hw}, rng);
  const Tensor b = Tensor::rand_uniform(Shape{2, param.slots, hw, hw}, rng);
  // CE is linear: encode(a + b) == encode(a) + encode(b).
  NoGradGuard guard;
  const Tensor lhs = ce::ce_encode(add(a, b), p);
  const Tensor rhs = add(ce::ce_encode(a, p), ce::ce_encode(b, p));
  EXPECT_TRUE(allclose(lhs, rhs, 1e-5F));
}

TEST_P(PatternPropertyTest, CodedPixelBoundedByExposureCount) {
  const auto param = GetParam();
  Rng rng(18);
  const CePattern p = CePattern::random(param.slots, param.tile, rng, 0.5F);
  const std::int64_t hw = param.tile * 2;
  const Tensor video = Tensor::ones(Shape{1, param.slots, hw, hw});
  const Tensor coded = ce::ce_encode(video, p);
  const auto counts = p.exposure_counts();
  for (std::int64_t y = 0; y < hw; ++y) {
    for (std::int64_t x = 0; x < hw; ++x) {
      const int c = counts[static_cast<std::size_t>((y % param.tile) * param.tile +
                                                    (x % param.tile))];
      EXPECT_NEAR(coded.at({0, y, x}), static_cast<float>(c), 1e-5F);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PatternGrid, PatternPropertyTest,
                         ::testing::Values(PatternCase{"t4_tile2", 4, 2},
                                           PatternCase{"t8_tile4", 8, 4},
                                           PatternCase{"t16_tile8", 16, 8},
                                           PatternCase{"t16_tile4", 16, 4},
                                           PatternCase{"t2_tile1", 2, 1}));

}  // namespace
}  // namespace snappix

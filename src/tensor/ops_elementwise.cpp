// Elementwise binary (broadcasting), scalar, and unary operations.
#include <cmath>
#include <utility>

#include "tensor/broadcast.h"
#include "tensor/exp.h"
#include "tensor/gelu.h"
#include "tensor/tensor.h"
#include "util/common.h"

namespace snappix {

namespace {

// Generic broadcasting binary op.
//   forward(a, b) -> out
//   dda(a, b) -> d out / d a        ddb(a, b) -> d out / d b
template <typename Fwd, typename Dda, typename Ddb>
Tensor binary_op(const Tensor& a, const Tensor& b, Fwd forward, Dda dda, Ddb ddb) {
  auto plan = detail::make_broadcast_plan(a.shape(), b.shape());
  std::vector<float> out(static_cast<std::size_t>(plan.out_shape.numel()));
  const auto& da = a.data();
  const auto& db = b.data();
  if (plan.same_shape) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = forward(da[i], db[i]);
    }
  } else {
    detail::for_each_broadcast(plan, [&](std::int64_t o, std::int64_t ai, std::int64_t bi) {
      out[static_cast<std::size_t>(o)] =
          forward(da[static_cast<std::size_t>(ai)], db[static_cast<std::size_t>(bi)]);
    });
  }
  auto ai = a.impl();
  auto bi = b.impl();
  return make_result(
      plan.out_shape, std::move(out), {a, b},
      [ai, bi, plan, dda, ddb](TensorImpl& self) {
        const bool need_a = ai->requires_grad;
        const bool need_b = bi->requires_grad;
        if (need_a) {
          ai->ensure_grad();
        }
        if (need_b) {
          bi->ensure_grad();
        }
        if (plan.same_shape) {
          for (std::size_t i = 0; i < self.grad.size(); ++i) {
            const float g = self.grad[i];
            if (need_a) {
              ai->grad[i] += g * dda(ai->data[i], bi->data[i]);
            }
            if (need_b) {
              bi->grad[i] += g * ddb(ai->data[i], bi->data[i]);
            }
          }
        } else {
          detail::for_each_broadcast(
              plan, [&](std::int64_t o, std::int64_t aoff, std::int64_t boff) {
                const float g = self.grad[static_cast<std::size_t>(o)];
                const float av = ai->data[static_cast<std::size_t>(aoff)];
                const float bv = bi->data[static_cast<std::size_t>(boff)];
                if (need_a) {
                  ai->grad[static_cast<std::size_t>(aoff)] += g * dda(av, bv);
                }
                if (need_b) {
                  bi->grad[static_cast<std::size_t>(boff)] += g * ddb(av, bv);
                }
              });
        }
      });
}

// Unary op over precomputed forward values `out` (same shape as a), with the
// derivative expressed from (x, y).
template <typename Dd>
Tensor unary_result(const Tensor& a, std::vector<float> out, Dd derivative) {
  auto ai = a.impl();
  return make_result(a.shape(), std::move(out), {a}, [ai, derivative](TensorImpl& self) {
    ai->ensure_grad();
    for (std::size_t i = 0; i < self.grad.size(); ++i) {
      ai->grad[i] += self.grad[i] * derivative(ai->data[i], self.data[i]);
    }
  });
}

// Generic unary op: forward(x) and derivative expressed from (x, y).
template <typename Fwd, typename Dd>
Tensor unary_op(const Tensor& a, Fwd forward, Dd derivative) {
  std::vector<float> out(a.data().size());
  const auto& da = a.data();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = forward(da[i]);
  }
  return unary_result(a, std::move(out), derivative);
}

// Unary op whose forward runs as one array kernel over the whole tensor.
template <typename Dd>
Tensor unary_array_op(const Tensor& a, void (*forward)(const float*, std::int64_t, float*),
                      Dd derivative) {
  std::vector<float> out(a.data().size());
  forward(a.data().data(), static_cast<std::int64_t>(out.size()), out.data());
  return unary_result(a, std::move(out), derivative);
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_op(
      a, b, [](float x, float y) { return x + y; }, [](float, float) { return 1.0F; },
      [](float, float) { return 1.0F; });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_op(
      a, b, [](float x, float y) { return x - y; }, [](float, float) { return 1.0F; },
      [](float, float) { return -1.0F; });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_op(
      a, b, [](float x, float y) { return x * y; }, [](float, float y) { return y; },
      [](float x, float) { return x; });
}

Tensor div(const Tensor& a, const Tensor& b) {
  return binary_op(
      a, b, [](float x, float y) { return x / y; }, [](float, float y) { return 1.0F / y; },
      [](float x, float y) { return -x / (y * y); });
}

Tensor add_scalar(const Tensor& a, float s) {
  return unary_op(
      a, [s](float x) { return x + s; }, [](float, float) { return 1.0F; });
}

Tensor mul_scalar(const Tensor& a, float s) {
  return unary_op(
      a, [s](float x) { return x * s; }, [s](float, float) { return s; });
}

Tensor pow_scalar(const Tensor& a, float exponent) {
  return unary_op(
      a, [exponent](float x) { return std::pow(x, exponent); },
      [exponent](float x, float) { return exponent * std::pow(x, exponent - 1.0F); });
}

Tensor neg(const Tensor& a) { return mul_scalar(a, -1.0F); }

Tensor exp(const Tensor& a) {
  // The shared kernel the fp32 engine's softmax runs (tensor/exp.h).
  return unary_array_op(a, detail::exp_array, [](float, float y) { return y; });
}

Tensor log(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::log(x); }, [](float x, float) { return 1.0F / x; });
}

Tensor sqrt(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::sqrt(x); },
      [](float, float y) { return y > 0.0F ? 0.5F / y : 0.0F; });
}

Tensor relu(const Tensor& a) {
  return unary_op(
      a, [](float x) { return x > 0.0F ? x : 0.0F; },
      [](float x, float) { return x > 0.0F ? 1.0F : 0.0F; });
}

Tensor gelu(const Tensor& a) {
  // tanh approximation of GELU, matching common DNN framework defaults. The
  // forward and the derivative are the shared kernel's (tensor/gelu.h),
  // which the serving engines run.
  return unary_array_op(a, detail::gelu_array,
                        [](float x, float) { return detail::gelu_grad_ref(x); });
}

Tensor sigmoid(const Tensor& a) {
  return unary_op(
      a, [](float x) { return 1.0F / (1.0F + detail::exp_ref(-x)); },
      [](float, float y) { return y * (1.0F - y); });
}

Tensor square(const Tensor& a) {
  return unary_op(
      a, [](float x) { return x * x; }, [](float x, float) { return 2.0F * x; });
}

Tensor abs(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::fabs(x); },
      [](float x, float) { return x >= 0.0F ? 1.0F : -1.0F; });
}

Tensor clamp(const Tensor& a, float lo, float hi) {
  SNAPPIX_CHECK(lo <= hi, "clamp: lo " << lo << " > hi " << hi);
  return unary_op(
      a, [lo, hi](float x) { return x < lo ? lo : (x > hi ? hi : x); },
      [lo, hi](float x, float) { return (x >= lo && x <= hi) ? 1.0F : 0.0F; });
}

Tensor binarize_ste(const Tensor& a, float threshold, float pass_lo, float pass_hi) {
  return unary_op(
      a, [threshold](float x) { return x > threshold ? 1.0F : 0.0F; },
      [pass_lo, pass_hi](float x, float) {
        // Clipped straight-through estimator: identity inside the pass band.
        return (x >= pass_lo && x <= pass_hi) ? 1.0F : 0.0F;
      });
}

Tensor dropout(const Tensor& a, float p, Rng& rng, bool training) {
  SNAPPIX_CHECK(p >= 0.0F && p < 1.0F, "dropout probability " << p << " out of [0,1)");
  if (!training || p == 0.0F) {
    // Identity that still participates in the tape.
    return add_scalar(a, 0.0F);
  }
  const float scale = 1.0F / (1.0F - p);
  std::vector<float> mask(a.data().size());
  for (auto& m : mask) {
    m = rng.bernoulli(p) ? 0.0F : scale;
  }
  std::vector<float> out(a.data().size());
  const auto& da = a.data();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = da[i] * mask[i];
  }
  auto ai = a.impl();
  return make_result(a.shape(), std::move(out), {a},
                     [ai, mask = std::move(mask)](TensorImpl& self) {
                       ai->ensure_grad();
                       for (std::size_t i = 0; i < self.grad.size(); ++i) {
                         ai->grad[i] += self.grad[i] * mask[i];
                       }
                     });
}

}  // namespace snappix

// Reductions, softmax family, and loss functions.
#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "tensor/exp.h"
#include "tensor/tensor.h"
#include "util/common.h"

namespace snappix {

namespace {

int normalize_axis(int axis, int ndim) {
  if (axis < 0) {
    axis += ndim;
  }
  SNAPPIX_CHECK(axis >= 0 && axis < ndim, "axis " << axis << " out of range for rank " << ndim);
  return axis;
}

// Decomposes a shape around `axis` into (outer, d, inner) extents so that the
// linear offset of element (o, i, r) is o*d*inner + i*inner + r.
struct AxisPlan {
  std::int64_t outer = 1;
  std::int64_t d = 1;
  std::int64_t inner = 1;
};

AxisPlan make_axis_plan(const Shape& shape, int axis) {
  AxisPlan plan;
  for (int i = 0; i < axis; ++i) {
    plan.outer *= shape[i];
  }
  plan.d = shape[axis];
  for (int i = axis + 1; i < shape.ndim(); ++i) {
    plan.inner *= shape[i];
  }
  return plan;
}

Shape reduced_shape(const Shape& shape, int axis, bool keepdim) {
  std::vector<std::int64_t> dims;
  for (int i = 0; i < shape.ndim(); ++i) {
    if (i == axis) {
      if (keepdim) {
        dims.push_back(1);
      }
      continue;
    }
    dims.push_back(shape[i]);
  }
  if (dims.empty()) {
    dims.push_back(1);
  }
  return Shape(dims);
}

}  // namespace

Tensor sum_all(const Tensor& a) {
  float acc = 0.0F;
  for (const float v : a.data()) {
    acc += v;
  }
  auto ai = a.impl();
  return make_result(Shape{1}, {acc}, {a}, [ai](TensorImpl& self) {
    ai->ensure_grad();
    const float g = self.grad[0];
    for (auto& gv : ai->grad) {
      gv += g;
    }
  });
}

Tensor mean_all(const Tensor& a) {
  SNAPPIX_CHECK(a.numel() > 0, "mean_all of empty tensor");
  return mul_scalar(sum_all(a), 1.0F / static_cast<float>(a.numel()));
}

Tensor sum(const Tensor& a, int axis, bool keepdim) {
  axis = normalize_axis(axis, a.ndim());
  const AxisPlan plan = make_axis_plan(a.shape(), axis);
  const Shape out_shape = reduced_shape(a.shape(), axis, keepdim);
  std::vector<float> out(static_cast<std::size_t>(plan.outer * plan.inner), 0.0F);
  const auto& da = a.data();
  for (std::int64_t o = 0; o < plan.outer; ++o) {
    for (std::int64_t i = 0; i < plan.d; ++i) {
      const std::int64_t base = o * plan.d * plan.inner + i * plan.inner;
      for (std::int64_t r = 0; r < plan.inner; ++r) {
        out[static_cast<std::size_t>(o * plan.inner + r)] += da[static_cast<std::size_t>(base + r)];
      }
    }
  }
  auto ai = a.impl();
  return make_result(out_shape, std::move(out), {a}, [ai, plan](TensorImpl& self) {
    ai->ensure_grad();
    for (std::int64_t o = 0; o < plan.outer; ++o) {
      for (std::int64_t i = 0; i < plan.d; ++i) {
        const std::int64_t base = o * plan.d * plan.inner + i * plan.inner;
        for (std::int64_t r = 0; r < plan.inner; ++r) {
          ai->grad[static_cast<std::size_t>(base + r)] +=
              self.grad[static_cast<std::size_t>(o * plan.inner + r)];
        }
      }
    }
  });
}

Tensor mean(const Tensor& a, int axis, bool keepdim) {
  const int ax = normalize_axis(axis, a.ndim());
  const std::int64_t d = a.shape()[ax];
  SNAPPIX_CHECK(d > 0, "mean over empty axis");
  return mul_scalar(sum(a, ax, keepdim), 1.0F / static_cast<float>(d));
}

Tensor max_values(const Tensor& a, int axis, bool keepdim) {
  axis = normalize_axis(axis, a.ndim());
  const AxisPlan plan = make_axis_plan(a.shape(), axis);
  SNAPPIX_CHECK(plan.d > 0, "max over empty axis");
  const Shape out_shape = reduced_shape(a.shape(), axis, keepdim);
  std::vector<float> out(static_cast<std::size_t>(plan.outer * plan.inner),
                         -std::numeric_limits<float>::infinity());
  std::vector<std::int64_t> arg(out.size(), 0);
  const auto& da = a.data();
  for (std::int64_t o = 0; o < plan.outer; ++o) {
    for (std::int64_t i = 0; i < plan.d; ++i) {
      const std::int64_t base = o * plan.d * plan.inner + i * plan.inner;
      for (std::int64_t r = 0; r < plan.inner; ++r) {
        const auto oi = static_cast<std::size_t>(o * plan.inner + r);
        const float v = da[static_cast<std::size_t>(base + r)];
        if (v > out[oi]) {
          out[oi] = v;
          arg[oi] = base + r;
        }
      }
    }
  }
  auto ai = a.impl();
  return make_result(out_shape, std::move(out), {a},
                     [ai, arg = std::move(arg)](TensorImpl& self) {
                       ai->ensure_grad();
                       for (std::size_t oi = 0; oi < self.grad.size(); ++oi) {
                         ai->grad[static_cast<std::size_t>(arg[oi])] += self.grad[oi];
                       }
                     });
}

std::vector<std::int64_t> argmax_last_axis(const Tensor& a) {
  SNAPPIX_CHECK(a.ndim() >= 1, "argmax on scalar tensor");
  const std::int64_t d = a.shape()[a.ndim() - 1];
  SNAPPIX_CHECK(d > 0, "argmax over empty axis");
  const std::int64_t rows = a.numel() / d;
  std::vector<std::int64_t> result(static_cast<std::size_t>(rows));
  const auto& da = a.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = da.data() + r * d;
    result[static_cast<std::size_t>(r)] =
        std::max_element(row, row + d) - row;
  }
  return result;
}

Tensor softmax(const Tensor& a, int axis) {
  axis = normalize_axis(axis, a.ndim());
  const AxisPlan plan = make_axis_plan(a.shape(), axis);
  std::vector<float> out(a.data().size());
  const auto& da = a.data();
  for (std::int64_t o = 0; o < plan.outer; ++o) {
    for (std::int64_t r = 0; r < plan.inner; ++r) {
      const std::int64_t base = o * plan.d * plan.inner + r;
      float mx = -std::numeric_limits<float>::infinity();
      for (std::int64_t i = 0; i < plan.d; ++i) {
        mx = std::max(mx, da[static_cast<std::size_t>(base + i * plan.inner)]);
      }
      float denom = 0.0F;
      for (std::int64_t i = 0; i < plan.d; ++i) {
        const auto idx = static_cast<std::size_t>(base + i * plan.inner);
        out[idx] = detail::exp_ref(da[idx] - mx);
        denom += out[idx];
      }
      for (std::int64_t i = 0; i < plan.d; ++i) {
        out[static_cast<std::size_t>(base + i * plan.inner)] /= denom;
      }
    }
  }
  auto ai = a.impl();
  return make_result(a.shape(), std::move(out), {a}, [ai, plan](TensorImpl& self) {
    ai->ensure_grad();
    for (std::int64_t o = 0; o < plan.outer; ++o) {
      for (std::int64_t r = 0; r < plan.inner; ++r) {
        const std::int64_t base = o * plan.d * plan.inner + r;
        float dot = 0.0F;
        for (std::int64_t i = 0; i < plan.d; ++i) {
          const auto idx = static_cast<std::size_t>(base + i * plan.inner);
          dot += self.grad[idx] * self.data[idx];
        }
        for (std::int64_t i = 0; i < plan.d; ++i) {
          const auto idx = static_cast<std::size_t>(base + i * plan.inner);
          ai->grad[idx] += self.data[idx] * (self.grad[idx] - dot);
        }
      }
    }
  });
}

Tensor log_softmax(const Tensor& a, int axis) {
  axis = normalize_axis(axis, a.ndim());
  const AxisPlan plan = make_axis_plan(a.shape(), axis);
  std::vector<float> out(a.data().size());
  const auto& da = a.data();
  for (std::int64_t o = 0; o < plan.outer; ++o) {
    for (std::int64_t r = 0; r < plan.inner; ++r) {
      const std::int64_t base = o * plan.d * plan.inner + r;
      float mx = -std::numeric_limits<float>::infinity();
      for (std::int64_t i = 0; i < plan.d; ++i) {
        mx = std::max(mx, da[static_cast<std::size_t>(base + i * plan.inner)]);
      }
      float denom = 0.0F;
      for (std::int64_t i = 0; i < plan.d; ++i) {
        denom += detail::exp_ref(da[static_cast<std::size_t>(base + i * plan.inner)] - mx);
      }
      const float lse = mx + std::log(denom);
      for (std::int64_t i = 0; i < plan.d; ++i) {
        const auto idx = static_cast<std::size_t>(base + i * plan.inner);
        out[idx] = da[idx] - lse;
      }
    }
  }
  auto ai = a.impl();
  return make_result(a.shape(), std::move(out), {a}, [ai, plan](TensorImpl& self) {
    ai->ensure_grad();
    for (std::int64_t o = 0; o < plan.outer; ++o) {
      for (std::int64_t r = 0; r < plan.inner; ++r) {
        const std::int64_t base = o * plan.d * plan.inner + r;
        float gsum = 0.0F;
        for (std::int64_t i = 0; i < plan.d; ++i) {
          gsum += self.grad[static_cast<std::size_t>(base + i * plan.inner)];
        }
        for (std::int64_t i = 0; i < plan.d; ++i) {
          const auto idx = static_cast<std::size_t>(base + i * plan.inner);
          ai->grad[idx] += self.grad[idx] - detail::exp_ref(self.data[idx]) * gsum;
        }
      }
    }
  });
}

Tensor cross_entropy(const Tensor& logits, const std::vector<std::int64_t>& labels) {
  SNAPPIX_CHECK(logits.ndim() == 2, "cross_entropy expects (B, C) logits, got "
                                        << logits.shape().to_string());
  const std::int64_t batch = logits.shape()[0];
  const std::int64_t classes = logits.shape()[1];
  SNAPPIX_CHECK(static_cast<std::int64_t>(labels.size()) == batch,
                "cross_entropy: " << labels.size() << " labels for batch " << batch);
  const auto& dl = logits.data();
  std::vector<float> probs(dl.size());
  float loss = 0.0F;
  for (std::int64_t b = 0; b < batch; ++b) {
    const std::int64_t label = labels[static_cast<std::size_t>(b)];
    SNAPPIX_CHECK(label >= 0 && label < classes, "label " << label << " out of range [0, "
                                                          << classes << ")");
    const float* row = dl.data() + b * classes;
    float* prow = probs.data() + b * classes;
    const float mx = *std::max_element(row, row + classes);
    float denom = 0.0F;
    for (std::int64_t c = 0; c < classes; ++c) {
      prow[c] = detail::exp_ref(row[c] - mx);
      denom += prow[c];
    }
    for (std::int64_t c = 0; c < classes; ++c) {
      prow[c] /= denom;
    }
    loss -= std::log(std::max(prow[label], 1e-12F));
  }
  loss /= static_cast<float>(batch);
  auto li = logits.impl();
  return make_result(Shape{1}, {loss}, {logits},
                     [li, labels, probs = std::move(probs), batch, classes](TensorImpl& self) {
                       li->ensure_grad();
                       const float g = self.grad[0] / static_cast<float>(batch);
                       for (std::int64_t b = 0; b < batch; ++b) {
                         const std::int64_t label = labels[static_cast<std::size_t>(b)];
                         for (std::int64_t c = 0; c < classes; ++c) {
                           const auto idx = static_cast<std::size_t>(b * classes + c);
                           const float onehot = c == label ? 1.0F : 0.0F;
                           li->grad[idx] += g * (probs[idx] - onehot);
                         }
                       }
                     });
}

Tensor mse_loss(const Tensor& prediction, const Tensor& target) {
  SNAPPIX_CHECK(prediction.shape() == target.shape(),
                "mse_loss shape mismatch: " << prediction.shape().to_string() << " vs "
                                            << target.shape().to_string());
  const auto& dp = prediction.data();
  const auto& dt = target.data();
  const auto n = static_cast<float>(prediction.numel());
  float loss = 0.0F;
  for (std::size_t i = 0; i < dp.size(); ++i) {
    const float diff = dp[i] - dt[i];
    loss += diff * diff;
  }
  loss /= n;
  auto pi = prediction.impl();
  auto ti = target.impl();
  return make_result(Shape{1}, {loss}, {prediction, target}, [pi, ti, n](TensorImpl& self) {
    const float g = self.grad[0] * 2.0F / n;
    if (pi->requires_grad) {
      pi->ensure_grad();
      for (std::size_t i = 0; i < pi->data.size(); ++i) {
        pi->grad[i] += g * (pi->data[i] - ti->data[i]);
      }
    }
    if (ti->requires_grad) {
      ti->ensure_grad();
      for (std::size_t i = 0; i < ti->data.size(); ++i) {
        ti->grad[i] -= g * (pi->data[i] - ti->data[i]);
      }
    }
  });
}

Tensor masked_mse_loss(const Tensor& prediction, const Tensor& target, const Tensor& mask) {
  SNAPPIX_CHECK(prediction.shape() == target.shape() && prediction.shape() == mask.shape(),
                "masked_mse_loss requires equal shapes");
  const auto& dp = prediction.data();
  const auto& dt = target.data();
  const auto& dm = mask.data();
  float loss = 0.0F;
  float count = 0.0F;
  for (std::size_t i = 0; i < dp.size(); ++i) {
    const float diff = dp[i] - dt[i];
    loss += dm[i] * diff * diff;
    count += dm[i];
  }
  const float denom = std::max(count, 1.0F);
  loss /= denom;
  auto pi = prediction.impl();
  auto ti = target.impl();
  auto mi = mask.impl();
  return make_result(Shape{1}, {loss}, {prediction, target},
                     [pi, ti, mi, denom](TensorImpl& self) {
                       const float g = self.grad[0] * 2.0F / denom;
                       if (pi->requires_grad) {
                         pi->ensure_grad();
                         for (std::size_t i = 0; i < pi->data.size(); ++i) {
                           pi->grad[i] += g * mi->data[i] * (pi->data[i] - ti->data[i]);
                         }
                       }
                       if (ti->requires_grad) {
                         ti->ensure_grad();
                         for (std::size_t i = 0; i < ti->data.size(); ++i) {
                           ti->grad[i] -= g * mi->data[i] * (pi->data[i] - ti->data[i]);
                         }
                       }
                     });
}

}  // namespace snappix

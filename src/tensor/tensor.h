// Tensor: a dynamically shaped float tensor with reverse-mode autodiff.
//
// Tensor is a cheap-to-copy handle (shared_ptr to TensorImpl). Operations are
// free functions that build a tape: each result remembers its parents and a
// backward closure. Calling backward() on a scalar runs reverse-mode
// accumulation through the tape.
//
// Autograd is define-by-run and can be disabled with NoGradGuard (used for
// inference and for plain numeric work such as the sensor simulator).
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <vector>

#include "tensor/shape.h"
#include "util/rng.h"

namespace snappix {

struct TensorImpl;
class Tensor;

// Thread-local switch controlling whether new ops record the autograd tape.
namespace grad_mode {
bool enabled();
void set_enabled(bool value);
}  // namespace grad_mode

// RAII guard that disables gradient recording within a scope.
class NoGradGuard {
 public:
  NoGradGuard() : previous_(grad_mode::enabled()) { grad_mode::set_enabled(false); }
  ~NoGradGuard() { grad_mode::set_enabled(previous_); }
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

struct TensorImpl {
  Shape shape;
  std::vector<float> data;
  bool requires_grad = false;
  std::vector<float> grad;  // same size as data once touched by backward
  // Backward closure: reads this->grad and accumulates into parents' grads.
  std::function<void(TensorImpl&)> backward_fn;
  std::vector<std::shared_ptr<TensorImpl>> parents;

  void ensure_grad() {
    if (grad.size() != data.size()) {
      grad.assign(data.size(), 0.0F);
    }
  }
};

class Tensor {
 public:
  Tensor() = default;

  // --- factories ------------------------------------------------------------
  static Tensor zeros(const Shape& shape, bool requires_grad = false);
  static Tensor ones(const Shape& shape, bool requires_grad = false);
  static Tensor full(const Shape& shape, float value, bool requires_grad = false);
  static Tensor from_vector(std::vector<float> values, const Shape& shape,
                            bool requires_grad = false);
  static Tensor scalar(float value, bool requires_grad = false);
  static Tensor randn(const Shape& shape, Rng& rng, float stddev = 1.0F,
                      bool requires_grad = false);
  static Tensor rand_uniform(const Shape& shape, Rng& rng, float lo = 0.0F, float hi = 1.0F,
                             bool requires_grad = false);

  // --- structure ------------------------------------------------------------
  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const;
  int ndim() const { return shape().ndim(); }
  std::int64_t numel() const { return shape().numel(); }

  // --- data access ----------------------------------------------------------
  std::vector<float>& data();
  const std::vector<float>& data() const;
  float item() const;  // requires numel() == 1
  float at(std::initializer_list<std::int64_t> index) const;
  void set_at(std::initializer_list<std::int64_t> index, float value);

  // --- autograd -------------------------------------------------------------
  bool requires_grad() const;
  Tensor& set_requires_grad(bool value);
  // Gradient accumulated by the last backward(); zeros-shaped if untouched.
  Tensor grad() const;
  void zero_grad();
  // Runs reverse-mode accumulation from this scalar tensor.
  void backward();
  // Value copy detached from the tape.
  Tensor detach() const;
  // In-place value copy from another tensor of the same shape (no tape).
  void copy_from(const Tensor& other);

  std::shared_ptr<TensorImpl>& impl() { return impl_; }
  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }

 private:
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}
  static Tensor make(const Shape& shape, std::vector<float> values, bool requires_grad);

  std::shared_ptr<TensorImpl> impl_;

  friend Tensor make_result(const Shape& shape, std::vector<float> values,
                            std::vector<Tensor> parents,
                            std::function<void(TensorImpl&)> backward_fn);
};

// Internal helper for op implementations: wraps forward results and attaches
// the backward closure when grad mode is on and any parent requires grad.
Tensor make_result(const Shape& shape, std::vector<float> values, std::vector<Tensor> parents,
                   std::function<void(TensorImpl&)> backward_fn);

// Accumulates `values` into impl's grad buffer (resizing it on first touch).
void accumulate_grad(TensorImpl& impl, const std::vector<float>& values);

// --- elementwise binary (broadcasting) --------------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

// --- scalar variants --------------------------------------------------------
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);
Tensor pow_scalar(const Tensor& a, float exponent);

// --- elementwise unary ------------------------------------------------------
Tensor neg(const Tensor& a);
Tensor exp(const Tensor& a);
Tensor log(const Tensor& a);
Tensor sqrt(const Tensor& a);
Tensor relu(const Tensor& a);
Tensor gelu(const Tensor& a);  // tanh approximation
Tensor sigmoid(const Tensor& a);
Tensor square(const Tensor& a);
Tensor abs(const Tensor& a);
Tensor clamp(const Tensor& a, float lo, float hi);
// Straight-through binarization: forward 1[x > threshold], backward identity
// for x within [pass_lo, pass_hi] and zero outside (clipped STE).
Tensor binarize_ste(const Tensor& a, float threshold = 0.5F, float pass_lo = 0.0F,
                    float pass_hi = 1.0F);
// Dropout with inverted scaling; identity when `training` is false.
Tensor dropout(const Tensor& a, float p, Rng& rng, bool training);

// --- matmul -----------------------------------------------------------------
// Supports (m,k)x(k,n), (b,m,k)x(b,k,n) and (b,m,k)x(k,n).
Tensor matmul(const Tensor& a, const Tensor& b);

// --- reductions -------------------------------------------------------------
Tensor sum_all(const Tensor& a);
Tensor mean_all(const Tensor& a);
Tensor sum(const Tensor& a, int axis, bool keepdim = false);
Tensor mean(const Tensor& a, int axis, bool keepdim = false);
Tensor max_values(const Tensor& a, int axis, bool keepdim = false);
// Argmax along the last axis (no gradient). Returns int indices.
std::vector<std::int64_t> argmax_last_axis(const Tensor& a);

// --- softmax & losses -------------------------------------------------------
Tensor softmax(const Tensor& a, int axis);
Tensor log_softmax(const Tensor& a, int axis);
// Mean cross-entropy over the batch; logits (B, C), labels in [0, C).
Tensor cross_entropy(const Tensor& logits, const std::vector<std::int64_t>& labels);
Tensor mse_loss(const Tensor& prediction, const Tensor& target);
// MSE restricted to entries where mask == 1 (mask broadcastable to pred).
Tensor masked_mse_loss(const Tensor& prediction, const Tensor& target, const Tensor& mask);

// --- shape ops ----------------------------------------------------------------
Tensor reshape(const Tensor& a, const Shape& shape);
Tensor transpose(const Tensor& a, int dim0, int dim1);
Tensor permute(const Tensor& a, const std::vector<int>& order);
Tensor concat(const std::vector<Tensor>& tensors, int axis);
Tensor slice(const Tensor& a, int axis, std::int64_t start, std::int64_t end);
Tensor index_select(const Tensor& a, int axis, const std::vector<std::int64_t>& indices);
// Tiles the last two dims: input (..., th, tw) -> (..., th*reps_h, tw*reps_w).
// Backward sums gradients over the repetitions (used for tile-repetitive CE).
Tensor tile_2d(const Tensor& a, std::int64_t reps_h, std::int64_t reps_w);

// --- convolution & pooling ----------------------------------------------------
// x: (B, C, H, W), w: (O, C, kh, kw), optional bias (O).
Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& bias, int stride, int padding);
// x: (B, C, T, H, W), w: (O, C, kt, kh, kw), optional bias (O).
Tensor conv3d(const Tensor& x, const Tensor& w, const Tensor& bias, int stride_t, int stride_hw,
              int pad_t, int pad_hw);
Tensor avg_pool2d(const Tensor& x, int kernel, int stride);
Tensor max_pool2d(const Tensor& x, int kernel, int stride);
Tensor avg_pool3d(const Tensor& x, int kernel_t, int kernel_hw, int stride_t, int stride_hw);

// --- numeric helpers (no autograd) --------------------------------------------
bool allclose(const Tensor& a, const Tensor& b, float atol = 1e-5F, float rtol = 1e-4F);

}  // namespace snappix

// The tanh-approximate GELU: ONE kernel shared by the autograd op
// (ops_elementwise.cpp), the fp32 serving engine and the int8 tier's GELU
// table (runtime/engine.cpp), so the fp32 engine's bit-exactness against the
// tape holds by construction.
//
// gelu(x) = 0.5 x (1 + tanh(u)) with u = sqrt(2/pi) (x + 0.044715 x^3).
// Because tanh(u) = 2 sigmoid(2u) - 1, that is x sigmoid(2u), evaluated as
// x / (1 + exp(-2u)) with the shared exp kernel (tensor/exp.h). Every other
// step is one IEEE mul, add or div (no FMA: the library builds with
// -ffp-contract=off), so the bits are the same on every host and at every
// vector width. Special values: gelu(+-0) = +-0, gelu(+inf) = +inf;
// where exp(-2u) overflows (x below about -10.05) the quotient is -0, within
// 1e-37 of the exact value; gelu(-inf) is NaN, as the tanh form's -inf * 0
// is.
#pragma once

#include <cstdint>

namespace snappix::detail {

// x / (1 + exp_ref(-2 sqrt(2/pi) * (x + ((0.044715 * x) * x) * x))). Always
// scalar.
float gelu_ref(float x);

// y[i] = gelu_ref(x[i]) for i < n, bit-identical: the exps run through
// exp_array over chunks, the rest 8 lanes wide under AVX2. `y` may be `x`
// (in place).
void gelu_array(const float* x, std::int64_t n, float* y);

// d gelu / dx = s + x s (1 - s) 2u', with s = 1 / (1 + exp(-2u)) and
// u' = sqrt(2/pi) (1 + 3 * 0.044715 x^2): the tape's gelu backward.
float gelu_grad_ref(float x);

}  // namespace snappix::detail

// The tanh-approximate GELU and the tanh under it: ONE kernel shared by the
// autograd ops (ops_elementwise.cpp) and both serving engines
// (runtime/engine.cpp), so the fp32 engine's bit-exactness against the tape
// holds by construction instead of by two call sites agreeing on a libm.
//
// tanh_ref is a straight port of glibc 2.36's fdlibm tanhf and the expm1f
// under it (the 5-coefficient Q1..Q5 polynomial, scaling by adding k << 23 to
// the exponent bits). On glibc 2.36 it equals std::tanh on every one of the
// 2^32 float inputs; on any other libm it still equals itself, which is all
// the tape-vs-engine contract needs.
//
// The array forms run 8 lanes at a time under AVX2 with the reference's exact
// operation sequence: every fdlibm branch is evaluated on every lane and the
// lane's own branch is blended in, with separate mul and add (no FMA, the
// library builds with -ffp-contract=off). Results are bit-identical to the
// scalar references on every input, pinned by tests/test_tensor.cpp.
#pragma once

#include <cstdint>

namespace snappix::detail {

// fdlibm expm1f (glibc 2.36), always scalar. tanh_ref's building block.
float expm1_ref(float x);

// fdlibm tanhf (glibc 2.36), always scalar.
float tanh_ref(float x);

// gelu(x) = 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))), evaluated as
// (0.5 * x) * (1 + tanh_ref(c * (x + ((0.044715 * x) * x) * x))). Always scalar.
float gelu_ref(float x);

// y[i] = tanh_ref(x[i]) / gelu_ref(x[i]) for i < n, AVX2-wide when compiled
// in, bit-identical either way. `y` may be `x` (in place).
void tanh_array(const float* x, std::int64_t n, float* y);
void gelu_array(const float* x, std::int64_t n, float* y);

}  // namespace snappix::detail

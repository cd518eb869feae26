// exp: ONE kernel shared by the autograd ops (ops_elementwise.cpp,
// ops_reduce.cpp), the GELU (tensor/gelu.h) and the fp32 serving engine's
// softmax (runtime/engine.cpp), so the engine's bit-exactness against the
// tape holds by construction and neither depends on which expf the host's
// libm dispatches to.
//
// exp_ref is a straight port of glibc 2.36's expf built without FMA (the
// optimized-routines algorithm: x * 32/ln2 rounded to k + r, a 32-entry
// 2^(i/32) table, a cubic in r, all in double precision, rounded to float
// once). On glibc 2.36 it equals std::exp(float) on every one of the 2^32
// inputs when the FMA build is masked (GLIBC_TUNABLES=
// glibc.cpu.hwcaps=-AVX2,-FMA); the FMA build differs from it at exactly two
// inputs (0x4202422f and 0xc27c65d9, by 1 ulp each).
//
// exp_array runs 8 lanes at a time under AVX2 as two 4-double halves with
// the reference's exact operation sequence (separate mul and add, no FMA:
// the library builds with -ffp-contract=off). It is bit-identical to exp_ref
// on every input, pinned by tests/test_tensor.cpp.
#pragma once

#include <cstdint>

namespace snappix::detail {

// glibc 2.36 non-FMA expf, always scalar.
float exp_ref(float x);

// y[i] = exp_ref(x[i]) for i < n, AVX2-wide when compiled in, bit-identical
// either way. `y` may be `x` (in place).
void exp_array(const float* x, std::int64_t n, float* y);

}  // namespace snappix::detail

// Explicit fused multiply-add matching the seed elementwise kernels.
//
// The build uses -O3 -march=native, where GCC's default -ffp-contract=fast
// contracts an elementwise `yp[i] += a * xp[i]` into a packed vfmadd.
// Contraction is a PER-LOOP compiler decision, though — a fused kernel
// written with the identical statement shape is not guaranteed to contract,
// and an uncontracted replay differs in the last bit. So Vector::axpy and
// Vector::dot spell their multiply-add with pt_muladd, and so does every
// fused loop that must replay them bitwise (the Chebyshev sweep, mgs_sweep).
// (CSR products are a different story: CsrMatrix::mult's row sum is a
// reduction whose contraction the compiler picks, so no second loop
// replays it; every CSR apply calls CsrMatrix::mult itself.)
//
// On targets without hardware FMA the seed loops cannot contract either, so
// the plain mul+add form is the matching choice there.
#pragma once

#include <cmath>

#include "common/types.hpp"

namespace ptatin {

#if defined(__FMA__)
inline Real pt_muladd(Real a, Real b, Real c) { return std::fma(a, b, c); }
#else
inline Real pt_muladd(Real a, Real b, Real c) { return a * b + c; }
#endif

} // namespace ptatin

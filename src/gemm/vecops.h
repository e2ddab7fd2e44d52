// Element-wise vector primitives with ISA dispatch.
//
// The optimized STP variants spend most FLOPs in mini-GEMM, but the Taylor
// accumulation (qavg += coeff * p) and similar sweeps over whole cell tensors
// also vectorize over the padded leading dimension (paper Sec. III-A). Like
// the GEMM microkernels these are compiled once per ISA from one schedule so
// the AVX2/AVX-512 comparison exercises genuinely different code paths.
//
// All entry points report their FLOPs to FlopCounter with the packing class
// of the selected ISA path (remainder elements count as scalar), and their
// operand ranges to an installed access recorder (perf/access_recorder.h).
#pragma once

#include "exastp/common/simd.h"

namespace exastp {

/// y[i] += a * x[i]
void vec_axpy(Isa isa, long n, double a, const double* x, double* y);

/// y[i] = a * x[i]
void vec_scale(Isa isa, long n, double a, const double* x, double* y);

/// y[i] += x[i]
void vec_add(Isa isa, long n, const double* x, double* y);

/// y[i] = 0   (no FLOPs counted)
void vec_zero(long n, double* y);

/// y[i] = x[i] (no FLOPs counted)
void vec_copy(long n, const double* x, double* y);

/// Float overloads for the fp32 kernel path. FLOP reporting matches the
/// double overloads (classified at the double lane width — see gemm.h).
void vec_axpy(Isa isa, long n, float a, const float* x, float* y);
void vec_scale(Isa isa, long n, float a, const float* x, float* y);
void vec_add(Isa isa, long n, const float* x, float* y);
void vec_zero(long n, float* y);
void vec_copy(long n, const float* x, float* y);

/// Precision boundary conversions of the fp32 path: widen at kernel exit
/// (the outputs back to the engine's double buffers), narrow at kernel entry
/// (q into float scratch). Conversions are data movement, not FLOPs, and
/// are not counted, like copies.
void vec_widen(long n, const float* x, double* y);
void vec_narrow(long n, const double* x, float* y);

}  // namespace exastp

// mini-GEMM: small dense matrix multiplication on tensor slices.
//
// Substitute for LIBXSMM (paper Sec. III-B). The kernels compute
//
//     C (M x N)  =/+=  A (M x K) * B (K x N)
//
// with independent leading dimensions lda/ldb/ldc, so a "matrix" may be a
// strided slice of a tensor: the paper's trick of interpreting the slice
// stride as the padded leading dimension (Fig. 3) maps 1:1 onto these
// arguments. The N (column) dimension is the unit-stride one and is the
// vectorized axis; callers arrange their layouts so that N is the padded
// quantity dimension (AoS) or the padded x-line / fused dimensions (AoSoA).
//
// Three ISA paths are compiled into the library from one shared schedule
// (see gemm_impl.h): a baseline path (no -m flags: GCC emits SSE2,
// mirroring "compiler heuristics" 128-bit packing), an AVX2 path and an
// AVX-512 path. Dispatch is explicit via the Isa argument so benchmarks can
// compare code paths on one machine (Fig. 4: LoG AVX-512 vs LoG AVX2).
//
// The schedule is LIBXSMM-style register blocking: MB x JB tiles of C
// whose accumulators stay in vector registers across the k-loop, each B
// row segment loaded once per tile and shared by its MB rows. The tile
// shape follows each path's register file (16 vector registers on baseline
// and AVX2, 32 on AVX-512). Every C element is computed by the same
// operation sequence whatever tile, row count or column window it falls
// in, so results are bit-identical across tile shapes: splitting a GEMM
// into row or column pieces (AoSoA row masking, autotuned slab sizes,
// thread and shard splits) never changes a bit.
//
// Every call reports its FLOPs (2*M*N*K, padding included) to FlopCounter,
// classified by the packing width of the selected path.
#pragma once

#include "exastp/common/simd.h"
#include "exastp/perf/flop_count.h"

namespace exastp {

/// C = A*B (overwrite). N columns of C/B must be unit-stride.
void gemm_set(Isa isa, int m, int n, int k, const double* a, int lda,
              const double* b, int ldb, double* c, int ldc);

/// C += A*B (accumulate).
void gemm_acc(Isa isa, int m, int n, int k, const double* a, int lda,
              const double* b, int ldb, double* c, int ldc);

/// C += alpha * A*B. Used for derivative operators carrying the 1/h mesh
/// scaling so no separate scaling pass over C is needed.
void gemm_acc_scaled(Isa isa, double alpha, int m, int n, int k,
                     const double* a, int lda, const double* b, int ldb,
                     double* c, int ldc);

/// C = alpha * A*B (overwrite).
void gemm_set_scaled(Isa isa, double alpha, int m, int n, int k,
                     const double* a, int lda, const double* b, int ldb,
                     double* c, int ldc);

/// Float overloads of the four entry points: same schedule, same per-call
/// FLOP reporting. FLOPs are classified at the double packing width of the
/// ISA (conservative: an AVX-512 register holds 16 floats, reported as 8
/// lanes), so fp32/fp64 runs of one kernel report identical counts and the
/// trace-model twins stay precision-agnostic.
void gemm_set(Isa isa, int m, int n, int k, const float* a, int lda,
              const float* b, int ldb, float* c, int ldc);
void gemm_acc(Isa isa, int m, int n, int k, const float* a, int lda,
              const float* b, int ldb, float* c, int ldc);
void gemm_acc_scaled(Isa isa, float alpha, int m, int n, int k,
                     const float* a, int lda, const float* b, int ldb,
                     float* c, int ldc);
void gemm_set_scaled(Isa isa, float alpha, int m, int n, int k,
                     const float* a, int lda, const float* b, int ldb,
                     float* c, int ldc);

/// Reference triple loop without any vectorization pragmas; ground truth for
/// the unit tests and the "naive" side of the bench_gemm comparison. Does
/// not touch the FLOP counter.
void gemm_reference(bool accumulate, double alpha, int m, int n, int k,
                    const double* a, int lda, const double* b, int ldb,
                    double* c, int ldc);

/// WidthClass that `isa`'s code path reports to the FLOP counter.
WidthClass gemm_width_class(Isa isa);

}  // namespace exastp

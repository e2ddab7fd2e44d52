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
// into row or column pieces (AoSoA row masking, thread and shard splits)
// never changes a bit.
//
// The one entry per precision is a strided batch, modelled on LIBXSMM's
// strided-batch GEMM: `batch` independent GEMMs whose operands sit at
// fixed strides, run in order,
//
//     for b in [0, batch):
//       C_b  =/+=  alpha * A_b * B_b,   X_b = x + b * stride_x,
//
// so a derivative sweep is one call per cell instead of one per x-line,
// slice or pencil. A stride of 0 shares the operand (the derivative matrix
// of every slice). C blocks may interleave, each row of one block falling
// between rows of the others, as long as no two blocks share an element:
// the masked z sweeps batch their pencils that way. A batch is the loop of
// single calls bit for bit (each C element keeps its one operation
// sequence), so batching changes no result.
//
// Dispatch, argument checks and the FLOP booking happen once per batch:
// batch * 2*M*N*K FLOPs (padding included), classified by the packing
// width of the selected path exactly as `batch` single calls would be.
// An installed access recorder (perf/access_recorder.h) gets the batch's
// row accesses there too.
#pragma once

#include "exastp/common/simd.h"
#include "exastp/perf/flop_count.h"

namespace exastp {

/// C_b (+)= alpha * A_b * B_b for b in [0, batch), X_b = x + b * stride_x
/// (see the header comment). `accumulate` false overwrites C. The N
/// columns of B and C must be unit-stride; batch >= 0.
void gemm_batch(Isa isa, bool accumulate, double alpha, int m, int n, int k,
                const double* a, int lda, long stride_a, const double* b,
                int ldb, long stride_b, double* c, int ldc, long stride_c,
                int batch);

/// The fp32 entry: same schedule, same FLOP booking. FLOPs are classified
/// at the double packing width of the ISA (conservative: an AVX-512
/// register holds 16 floats, reported as 8 lanes), so fp32/fp64 runs of one
/// kernel report identical counts.
void gemm_batch(Isa isa, bool accumulate, float alpha, int m, int n, int k,
                const float* a, int lda, long stride_a, const float* b,
                int ldb, long stride_b, float* c, int ldc, long stride_c,
                int batch);

/// Reference triple loop without any vectorization pragmas; ground truth for
/// the unit tests and the "naive" side of the bench_gemm comparison. Does
/// not touch the FLOP counter.
void gemm_reference(bool accumulate, double alpha, int m, int n, int k,
                    const double* a, int lda, const double* b, int ldb,
                    double* c, int ldc);

/// WidthClass that `isa`'s code path reports to the FLOP counter.
WidthClass gemm_width_class(Isa isa);

}  // namespace exastp

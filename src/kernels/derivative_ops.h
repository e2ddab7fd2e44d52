// Discrete derivative operators as Loop-over-GEMM (paper Sec. III-B).
//
// Every tensor contraction of the STP reduces to mini-GEMMs on matrix
// slices of the cell tensor (Fig. 3): the slice stride becomes the leading
// dimension. Three shapes appear per layout, and each is ONE strided-batch
// call (gemm.h) over the whole cell, the derivative operator shared at
// stride 0:
//
//   AoS,   x:  (k3,k2) slices  out' = D * Q'  (n x n)(n x mPad), batched
//              over the n^2 slices
//   AoS,   y:  per k3 plane, fuse (k1,s):  D * (n x n*mPad), batched over
//              the n planes
//   AoS,   z:  one GEMM, fuse (k2,k1,s):  D * (n x n^2*mPad)
//   AoSoA, x:  (k3,k2) lines, transposed product  Q' * D^T  (Sec. V-B
//              case 1: C^T = B^T A^T), vectorizing over the padded x-line,
//              batched over the n^2 lines
//   AoSoA, y:  per k3 plane, fuse (s,k1):  D * (n x m*nPad)  (Fig. 7),
//              batched over the n planes
//   AoSoA, z:  one GEMM, fuse (k2,s,k1):  D * (n x n*m*nPad)
//
// The 1/h mesh scaling rides along as the GEMM alpha so no separate scaling
// pass over the output is needed.
//
// Zero-block masking (`cover`) serves the SplitCK kernels: the PDE declares
// the past-the-end index of its possibly-nonzero flux rows per direction
// (pde_base.h traits). Quantity rows >= cover of the flux tensor are
// exactly zero, so their derivative columns are skipped. Skipping is
// bitwise-exact for accumulate mode (adding signed zeros to a zeroed target
// yields +0 either way) but changes reported FLOPs. The default cover masks
// nothing.
//
// Masking rules. AoS masked widths are rounded UP to the ISA vector width
// — the masked columns stay full SIMD lanes (no scalar remainder loop) and
// the extra columns within the last vector multiply zeros, which
// accumulate-mode absorbs bitwise-exactly:
//
//   ncols = min(pad_to(cover, vector_width(isa)), mPad)
//   AoS  dir 0: skip when cover == 0; each slice's GEMM has N = ncols.
//   AoS  dir 1: skip when cover == 0; when ncols < mPad: (k3,k1) GEMMs of
//               N = ncols, one batch per k3 plane (the blocks are mPad
//               apart within a plane, a plane apart across planes); else
//               the fused GEMM of each plane.
//   AoS  dir 2: skip when cover == 0; when ncols < mPad: (k2,k1) GEMMs of
//               N = ncols, one batch whose blocks interleave mPad apart;
//               else one GEMM over the cell's fused columns.
//
// AoSoA columns fuse (s, k1) with s outer, so a row mask keeps whole
// padded x-lines — already vector-width multiples, no rounding needed:
//
//   AoSoA dir 0: nrows = min(cover, m); skip when 0 (M shrinks, N stays
//               the padded line — classification unchanged, total shrinks).
//   AoSoA dir 1: when cover < m: N = cover*nPad (contiguous prefix).
//   AoSoA dir 2: when cover < m: per-k2 GEMMs of N = cover*nPad, one batch
//               whose blocks interleave m*nPad apart; else one GEMM over
//               the cell's fused columns.
#pragma once

#include <algorithm>
#include <limits>

#include "exastp/common/aligned.h"
#include "exastp/common/check.h"
#include "exastp/common/simd.h"
#include "exastp/gemm/gemm.h"
#include "exastp/tensor/layout.h"

namespace exastp {

/// The default `cover`: every quantity row, no masking.
inline constexpr int kAllRows = std::numeric_limits<int>::max();

/// Masked AoS column count: cover rounded up to full vectors, capped at
/// the padded row width.
inline int aos_masked_cols(const AosLayout& aos, Isa isa, int cover) {
  return std::min(pad_to(std::min(cover, aos.m_pad), vector_width(isa)),
                  aos.m_pad);
}

/// dst (+)= inv_h * d(src)/dxi_dir over the whole cell, skipping quantity
/// rows >= cover (see the header comment). `diff` is the n x n derivative
/// operator, row-major, lda = n.
template <class Real>
inline void aos_derivative(Isa isa, const AosLayout& aos, const Real* diff,
                           Real inv_h, int dir, const Real* src, Real* dst,
                           bool accumulate, int cover = kAllRows) {
  const int n = aos.n;
  const int ld = aos.m_pad;
  if (cover <= 0) return;
  const int ncols = aos_masked_cols(aos, isa, cover);
  const bool masked = ncols < ld;
  // `batch` GEMMs D * B_b of N columns, the B/C blocks `stride` apart.
  const auto run = [&](int N, std::size_t off, int ldx, long stride,
                       int batch) {
    gemm_batch(isa, accumulate, inv_h, n, N, n, diff, n, 0, src + off, ldx,
               stride, dst + off, ldx, stride, batch);
  };
  const long slice = static_cast<long>(n) * ld;
  switch (dir) {
    case 0:
      run(ncols, 0, ld, slice, n * n);
      break;
    case 1:
      if (masked) {
        for (int k3 = 0; k3 < n; ++k3)
          run(ncols, aos.node_offset(k3, 0, 0), n * ld, ld, n);
      } else {
        run(n * ld, 0, n * ld, n * slice, n);
      }
      break;
    case 2:
      if (masked)
        run(ncols, 0, n * n * ld, ld, n * n);
      else
        run(n * n * ld, 0, n * n * ld, 0, 1);
      break;
    default:
      EXASTP_CHECK_MSG(false, "dir must be 0, 1 or 2");
  }
}

/// AoSoA counterpart of aos_derivative. `diff` as above; `diff_t_padded`
/// is D^T with rows padded to aosoa.n_pad (basis_tables' padded_diff_t),
/// required for dir == 0.
template <class Real>
inline void aosoa_derivative(Isa isa, const AosoaLayout& aosoa,
                             const Real* diff, const Real* diff_t_padded,
                             Real inv_h, int dir, const Real* src, Real* dst,
                             bool accumulate, int cover = kAllRows) {
  const int n = aosoa.n;
  const int m = aosoa.m;
  const int np = aosoa.n_pad;
  if (cover <= 0) return;
  const bool masked = cover < m;
  const long line = static_cast<long>(m) * np;
  const int ld = n * m * np;  // k3 stride, the y/z GEMMs' leading dimension
  // `batch` GEMMs D * B_b of N columns, the B/C blocks `stride` apart.
  const auto run = [&](int N, int ldx, long stride, int batch) {
    gemm_batch(isa, accumulate, inv_h, n, N, n, diff, n, 0, src, ldx, stride,
               dst, ldx, stride, batch);
  };
  switch (dir) {
    case 0:
      // out[s][i] = sum_l src[s][l] * Dt[l][i]; unit stride over the padded
      // x-line in both B and C, Dt shared. Masking shrinks the row count.
      gemm_batch(isa, accumulate, inv_h, masked ? cover : m, np, n, src, np,
                 line, diff_t_padded, np, 0, dst, np, line, n * n);
      break;
    case 1:
      // Fuse (s, i): out[j][si] = sum_l D[j][l] src[l][si] (Fig. 7). The s
      // index is outermost in the fused columns, so masking keeps the
      // contiguous prefix of cover*np columns.
      run((masked ? cover : m) * np, m * np, ld, n);
      break;
    case 2:
      // Fuse (k2, s, i). Unmasked: one GEMM over the whole cell. Masked:
      // k2 is outermost in the fused columns, so each k2 keeps its own
      // cover*np prefix — one GEMM per k2, batched.
      if (masked)
        run(cover * np, ld, line, n);
      else
        run(n * m * np, ld, 0, 1);
      break;
    default:
      EXASTP_CHECK_MSG(false, "dir must be 0, 1 or 2");
  }
}

}  // namespace exastp

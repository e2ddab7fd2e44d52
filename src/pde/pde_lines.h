// Vectorized PDE user functions ("line functions", paper Sec. V-C /
// Fig. 8): flux and non-conservative product on one SoA chunk, where
// quantity s of lane i lives at q[s * stride + i] for i in [0, len).
//
//   flux_line(isa, pde, q, dir, f, len, stride)
//       f = F_dir(q) lane by lane, all kQuants rows written;
//   ncp_line(isa, pde, q, grad, dir, out, len, stride)
//       out = B_dir(q) * grad lane by lane, all kQuants rows written.
//
// Zero-padded lanes (rho = 0, eps = 0, ...) are valid inputs and produce
// finite output. Both precisions share one body per PDE (templated on the
// scalar type, literals cast to it), so the fp32 kernels stay
// conversion-free.
//
// One mechanism serves every PDE: the bodies live in pde_lines_impl.h and
// are compiled once per ISA translation unit (pde_lines_baseline.cpp,
// pde_lines_avx2.cpp, pde_lines_avx512.cpp), each with its own -m flags,
// the same pattern as gemm_impl.h. The functions below dispatch on `isa`
// to that TU's entry point, so an AVX-512 run executes 512-bit packed user
// functions, and count the FLOPs (kFluxFlops / kNcpFlops per lane) at the
// dispatched packing width; fp32 lanes count at the double packing width,
// as in gemm.h, so both precisions report one instruction mix. A PDE gains
// line functions by adding its two bodies to pde_lines_impl.h and its name
// to EXASTP_FOR_EACH_LINE_PDE.
#pragma once

#include "exastp/common/simd.h"
#include "exastp/perf/flop_count.h"

namespace exastp {
namespace detail {

// Per-ISA entry points, defined and instantiated in pde_lines_<isa>.cpp.
template <class Pde, class Real>
void flux_line_baseline(const Pde& pde, const Real* q, int dir, Real* f,
                        int len, int stride);
template <class Pde, class Real>
void flux_line_avx2(const Pde& pde, const Real* q, int dir, Real* f,
                    int len, int stride);
template <class Pde, class Real>
void flux_line_avx512(const Pde& pde, const Real* q, int dir, Real* f,
                      int len, int stride);
template <class Pde, class Real>
void ncp_line_baseline(const Pde& pde, const Real* q, const Real* grad,
                       int dir, Real* out, int len, int stride);
template <class Pde, class Real>
void ncp_line_avx2(const Pde& pde, const Real* q, const Real* grad, int dir,
                   Real* out, int len, int stride);
template <class Pde, class Real>
void ncp_line_avx512(const Pde& pde, const Real* q, const Real* grad,
                     int dir, Real* out, int len, int stride);

}  // namespace detail

template <class Pde, class Real>
void flux_line(Isa isa, const Pde& pde, const Real* q, int dir, Real* f,
               int len, int stride) {
  switch (isa) {
    case Isa::kScalar:
      detail::flux_line_baseline(pde, q, dir, f, len, stride);
      break;
    case Isa::kAvx2:
      detail::flux_line_avx2(pde, q, dir, f, len, stride);
      break;
    case Isa::kAvx512:
      detail::flux_line_avx512(pde, q, dir, f, len, stride);
      break;
  }
  count_packed_flops(isa, len, Pde::kFluxFlops);
}

template <class Pde, class Real>
void ncp_line(Isa isa, const Pde& pde, const Real* q, const Real* grad,
              int dir, Real* out, int len, int stride) {
  switch (isa) {
    case Isa::kScalar:
      detail::ncp_line_baseline(pde, q, grad, dir, out, len, stride);
      break;
    case Isa::kAvx2:
      detail::ncp_line_avx2(pde, q, grad, dir, out, len, stride);
      break;
    case Isa::kAvx512:
      detail::ncp_line_avx512(pde, q, grad, dir, out, len, stride);
      break;
  }
  count_packed_flops(isa, len, Pde::kNcpFlops);
}

}  // namespace exastp

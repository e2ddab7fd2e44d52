// Vectorized PDE user functions ("line functions", paper Sec. V-C /
// Fig. 8): flux and non-conservative product on SoA chunks, where quantity
// s of lane i of line l lives at q[l * line_stride + s * stride + i] for i
// in [0, len) and l in [0, lines).
//
//   flux_line(isa, pde, q, dir, f, len, stride, lines, line_stride)
//       f = F_dir(q) lane by lane, all kQuants rows of every line written;
//   ncp_line(isa, pde, q, grad, dir, out, len, stride, lines, line_stride)
//       out = B_dir(q) * grad lane by lane, likewise.
//
// q, grad and the output share the one line stride. A kernel hands over a
// whole cell of equally spaced lines (AoSoA: the n^2 (k3,k2) x-lines,
// line_stride = m * n_pad) in one call; SoA-UF passes its one line of all
// n^3 nodes (lines = 1). The lines are independent, so a call is the loop
// of single-line calls bit for bit.
//
// Zero-padded lanes (rho = 0, eps = 0, ...) are valid inputs and produce
// finite output. Both precisions share one body per PDE (templated on the
// scalar type, literals cast to it), so the fp32 kernels stay
// conversion-free.
//
// One mechanism serves every PDE: the bodies live in pde_lines_impl.h and
// are compiled once per ISA translation unit (pde_lines_baseline.cpp,
// pde_lines_avx2.cpp, pde_lines_avx512.cpp), each with its own -m flags,
// the same pattern as gemm_impl.h, and the loop over lines runs inside
// that TU. There a call switches on `dir` once and runs each line as full
// chunks of W lanes, W the TU's double vector width (8 on AVX-512, 4 on
// AVX2, 2 in the SSE2 baseline; the same in both precisions), with W and
// the direction compile-time constants, and ends a line whose length is
// not a multiple of W in one tail chunk of len % W lanes; any len >= 0 is
// valid. Full chunks and the tail run the same body, one per PDE and
// operator, which writes every output row once.
//
// The functions below check `dir` and `lines` (so the ISA TUs, compiled
// with their -m flags, need no check of their own), dispatch on `isa` once
// per call and book the call's FLOPs once: kFluxFlops / kNcpFlops per lane
// of every line, at the dispatched packing width (each line's remainder
// lanes as scalar, as `lines` single-line calls would). They also report
// each line of every operand to an installed access recorder
// (perf/access_recorder.h). fp32 lanes count at the double packing width,
// as in gemm.h, so both precisions report one instruction mix. A PDE gains
// line functions by adding its two bodies to pde_lines_impl.h and its name
// to EXASTP_FOR_EACH_PDE (pde_list.h).
#pragma once

#include <cstdint>

#include "exastp/common/check.h"
#include "exastp/common/simd.h"
#include "exastp/perf/access_recorder.h"
#include "exastp/perf/flop_count.h"

namespace exastp {
namespace detail {

/// Reports a line-function call to an installed recorder: line by line,
/// each operand's kQuants rows (`in` may be null).
template <class Pde, class Real>
void record_lines(const Real* q, const Real* in, const Real* out, int len,
                  int stride, int lines, long line_stride) {
  AccessRecorder* rec = AccessRecorder::thread_instance();
  if (rec == nullptr) return;
  const std::size_t extent =
      static_cast<std::size_t>(Pde::kQuants - 1) * stride + len;
  for (long l = 0; l < lines; ++l) {
    rec->range(q + l * line_stride, extent);
    if (in != nullptr) rec->range(in + l * line_stride, extent);
    rec->range(out + l * line_stride, extent);
  }
}

// Per-ISA entry points, defined and instantiated in pde_lines_<isa>.cpp.
#define EXASTP_DECLARE_PDE_LINES(SUFFIX)                                     \
  template <class Pde, class Real>                                           \
  void flux_line_##SUFFIX(const Pde& pde, const Real* q, int dir, Real* f,   \
                          int len, int stride, int lines, long line_stride); \
  template <class Pde, class Real>                                           \
  void ncp_line_##SUFFIX(const Pde& pde, const Real* q, const Real* grad,    \
                         int dir, Real* out, int len, int stride, int lines, \
                         long line_stride);

EXASTP_DECLARE_PDE_LINES(baseline)
EXASTP_DECLARE_PDE_LINES(avx2)
EXASTP_DECLARE_PDE_LINES(avx512)

#undef EXASTP_DECLARE_PDE_LINES

}  // namespace detail

template <class Pde, class Real>
void flux_line(Isa isa, const Pde& pde, const Real* q, int dir, Real* f,
               int len, int stride, int lines, long line_stride) {
  EXASTP_CHECK(lines >= 0);
  EXASTP_CHECK_MSG(dir >= 0 && dir < 3, "direction must be 0, 1 or 2");
  detail::record_lines<Pde, Real>(q, nullptr, f, len, stride, lines,
                                  line_stride);
  switch (isa) {
    case Isa::kScalar:
      detail::flux_line_baseline(pde, q, dir, f, len, stride, lines,
                                 line_stride);
      break;
    case Isa::kAvx2:
      detail::flux_line_avx2(pde, q, dir, f, len, stride, lines, line_stride);
      break;
    case Isa::kAvx512:
      detail::flux_line_avx512(pde, q, dir, f, len, stride, lines,
                               line_stride);
      break;
  }
  count_packed_flops(isa, len,
                     static_cast<std::uint64_t>(lines) * Pde::kFluxFlops);
}

template <class Pde, class Real>
void ncp_line(Isa isa, const Pde& pde, const Real* q, const Real* grad,
              int dir, Real* out, int len, int stride, int lines,
              long line_stride) {
  EXASTP_CHECK(lines >= 0);
  EXASTP_CHECK_MSG(dir >= 0 && dir < 3, "direction must be 0, 1 or 2");
  detail::record_lines<Pde, Real>(q, grad, out, len, stride, lines,
                                  line_stride);
  switch (isa) {
    case Isa::kScalar:
      detail::ncp_line_baseline(pde, q, grad, dir, out, len, stride, lines,
                                line_stride);
      break;
    case Isa::kAvx2:
      detail::ncp_line_avx2(pde, q, grad, dir, out, len, stride, lines,
                            line_stride);
      break;
    case Isa::kAvx512:
      detail::ncp_line_avx512(pde, q, grad, dir, out, len, stride, lines,
                              line_stride);
      break;
  }
  count_packed_flops(isa, len,
                     static_cast<std::uint64_t>(lines) * Pde::kNcpFlops);
}

}  // namespace exastp

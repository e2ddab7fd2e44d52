// LoG STP kernel — Loop-over-GEMM variant (paper Sec. III).
//
// The generic kernel's algorithm and space-time storage (the whole
// predictor p[o] and its fluctuations dF[o][d] stay live, the footprint
// that overflows L2 from order ~6, Sec. IV-A): both run on SpacetimeStp
// (spacetime_stp.h), which also runs the element-wise Taylor sweeps
// through the ISA-dispatched vecops. This file holds what is LoG's own:
//  * padded, aligned AoS data layout (quantity dimension padded to the SIMD
//    width),
//  * the derivative contractions lowered to batched mini-GEMM calls on
//    tensor slices (derivative_ops.h),
//  * PDE user functions inlined via the CRTP template parameter, but still
//    evaluated pointwise per quadrature node (scalar — the ~10% scalar tail
//    of Fig. 9 that only the AoSoA variant removes).
//
// The Isa parameter selects the microkernel family and the padding width,
// which is how one binary hosts the Fig. 4 comparison of the AVX-512 and
// AVX2 ("Haswell") code paths.
#pragma once

#include <cstdint>
#include <utility>

#include "exastp/kernels/derivative_ops.h"
#include "exastp/kernels/spacetime_stp.h"

namespace exastp {

/// LoG's user functions: the CRTP PDE's pointwise calls, inlined.
template <class Pde>
class InlineUserFns {
 public:
  explicit InlineUserFns(Pde pde) : pde_(std::move(pde)) {}

  void flux(const double* q, int d, double* f) const { pde_.flux(q, d, f); }
  void ncp(const double* q, const double* grad, int d, double* out) const {
    pde_.ncp(q, grad, d, out);
  }
  static constexpr std::uint64_t flux_flops() { return Pde::kFluxFlops; }
  static constexpr std::uint64_t ncp_flops() { return Pde::kNcpFlops; }
  static constexpr int vars() { return Pde::kVars; }
  static constexpr int quants() { return Pde::kQuants; }

 private:
  Pde pde_;
};

/// LoG's derivative: one Loop-over-GEMM call each for dF and gradQ.
struct GemmDerivative {
  static void apply(Isa isa, const AosLayout& aos, const double* diff,
                    double inv_h, int d, const double* flux, const double* p,
                    double* df, double* gradq) {
    aos_derivative(isa, aos, diff, inv_h, d, flux, df, /*accumulate=*/false);
    aos_derivative(isa, aos, diff, inv_h, d, p, gradq, /*accumulate=*/false);
  }
};

template <class Pde>
using LogStp = SpacetimeStp<InlineUserFns<Pde>, GemmDerivative>;

}  // namespace exastp

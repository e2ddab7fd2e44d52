// SplitCK STP kernel — dimension-split Cauchy-Kowalewsky scheme (paper
// Sec. IV). The recursion, its fp32 boundary and the favg recomputation
// are SplitCkDriver's (splitck_driver.h); this file holds what is SplitCK's
// own: the engine's padded AoS as working layout, and a volume sweep of
// pointwise user functions and masked derivative GEMMs. Each dimension is
// swept over the whole cell, as in the paper's Fig. 5: one pointwise flux
// pass, one derivative GEMM batch, one NCP stage. The driver's half-window
// average (StpOutputs::qavg_half) serves clustered LTS, so the coarse side
// of a cluster boundary needs no second predictor run.
//
// Two extensions over the paper's Fig. 5 rendition:
//  * Zero-block skipping: flux derivative GEMMs mask quantity rows past
//    the PDE-declared pde_flux_rows_end bound, and PDEs with kNcpIsZero
//    skip the gradQ + NCP stage entirely. Both are bitwise-exact.
//  * Precision templating: Real=float stores every internal tensor in
//    fp32 (half the DOF bytes — the memory-bound win) and converts exactly
//    once at the kernel boundary; the PDE user functions are templated on
//    the scalar type, so the hot sweeps run conversion-free in both
//    precisions. The engine-side buffers and all solver reductions stay
//    fp64.
#pragma once

#include "exastp/basis/basis_tables.h"
#include "exastp/common/check.h"
#include "exastp/kernels/derivative_ops.h"
#include "exastp/kernels/splitck_driver.h"
#include "exastp/pde/pde_base.h"
#include "exastp/perf/flop_count.h"

namespace exastp {

template <class Pde, class Real = double>
class SplitCkStpT {
 public:
  static constexpr int kQuants = Pde::kQuants;

  SplitCkStpT(Pde pde, int order, Isa isa,
              NodeFamily family = NodeFamily::kGaussLegendre)
      : pde_(std::move(pde)),
        isa_(isa),
        aos_(order, kQuants, isa),
        driver_(aos_, Pde::kVars, isa, basis_tables(order, family)) {
    EXASTP_CHECK_MSG(order >= 2, "STP needs at least 2 nodes per dimension");
    const AlignedVector& diff = basis_tables(order, family).diff;
    diff_.assign(diff.begin(), diff.end());
    sweep_.assign(aos_.size(), Real(0));
    // The fp64 average's own cell (InPlaceBoundary); fp32 averages in float.
    if constexpr (std::is_same_v<Real, double>) avg_.assign(aos_.size(), 0.0);
  }

  const AosLayout& layout() const { return aos_; }

  std::size_t workspace_bytes() const {
    return driver_.workspace_bytes() + sweep_.size() * sizeof(Real) +
           avg_.size() * sizeof(double);
  }

  void compute(const double* q, double dt,
               const std::array<double, 3>& inv_dx, const SourceTerm* source,
               const StpOutputs& out) {
    driver_.run(*this,
                InPlaceBoundary{avg_.empty() ? nullptr : avg_.data(),
                                avg_.size()},
                q, dt, inv_dx, source, out);
  }

 private:
  friend class SplitCkDriver<Real, AosLayout>;

  /// The driver's sweep: dst += inv_h * D_d F_d(src) + B_d(src, inv_h *
  /// D_d src), each stage over the whole cell. The PDE pointwise functions
  /// are templated on the scalar type, so both precisions call them on the
  /// working tensors directly. One scratch cell holds the flux, then, once
  /// the flux GEMM has consumed it, gradQ.
  void volume(int d, Real inv_h, const Real* src, Real* dst) {
    const int mp = aos_.m_pad;
    const int cover = pde_flux_rows_end<Pde>(d);
    const std::size_t nodes = static_cast<std::size_t>(aos_.n) * aos_.n *
                              aos_.n;
    FlopCounter& fc = FlopCounter::instance();
    if (cover > 0) {
      // flux = F_d(src) — pointwise user function, scalar.
      for (std::size_t k = 0; k < nodes; ++k)
        pde_.flux(src + k * mp, d, sweep_.data() + k * mp);
      fc.add(WidthClass::kScalar, nodes * Pde::kFluxFlops);
      record_ranges(aos_.size(), src, sweep_.data());
      // dst += inv_h * D_d flux, masked past the PDE's flux rows.
      aos_derivative(isa_, aos_, diff_.data(), inv_h, d, sweep_.data(), dst,
                     /*accumulate=*/true, cover);
    }
    if constexpr (!pde_ncp_is_zero<Pde>()) {
      // gradQ = inv_h * D_d src; dst += B_d(src) gradQ (pointwise).
      aos_derivative(isa_, aos_, diff_.data(), inv_h, d, src, sweep_.data(),
                     /*accumulate=*/false);
      for (std::size_t k = 0; k < nodes; ++k) {
        pde_.ncp(src + k * mp, sweep_.data() + k * mp, d, ncp_tmp_);
        for (int s = 0; s < kQuants; ++s) dst[k * mp + s] += ncp_tmp_[s];
      }
      fc.add(WidthClass::kScalar, nodes * (Pde::kNcpFlops + kQuants));
      record_ranges(aos_.size(), src, sweep_.data(), dst);
    }
  }

  Pde pde_;
  Isa isa_;
  AosLayout aos_;
  SplitCkDriver<Real, AosLayout> driver_;
  AlignedVectorT<Real> diff_;  // the derivative operator in Real
  AlignedVectorT<Real> sweep_;  // flux, then gradQ
  AlignedVector avg_;           // fp64 only: qavg
  Real ncp_tmp_[kQuants] = {};
};

/// The paper's fp64 SplitCK kernel (the default precision).
template <class Pde>
using SplitCkStp = SplitCkStpT<Pde>;

}  // namespace exastp

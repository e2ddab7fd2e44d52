// SoA-transposed-user-function STP kernel — the alternative the paper
// evaluated and REJECTED for linear PDEs (Sec. V-A):
//
//   "One way to get around this issue is to transpose the tensors
//    on-the-fly to switch the data layout from AoS to SoA and back before
//    and after calling the user functions. [...] It proved effective for
//    complex non-linear scenarios [...] However, the linear PDE systems in
//    the targeted seismic applications have too simple (and inexpensive)
//    user functions for such a solution to be effective."
//
// Implemented here as a fifth variant so the trade-off is *measured* rather
// than estimated: SplitCK's recursion (SplitCkDriver, splitck_driver.h) on
// AoS storage, but every user-function sweep transposes the full cell AoS
// -> SoA, calls the vectorized line functions once over all n^3 nodes, and
// transposes back. Numerically identical to all other variants (covered by
// the equivalence tests); performance-wise it pays 4 full-cell transposes
// per Taylor order and dimension. It skips the zero blocks SplitCK skips:
// the flux derivative GEMM is masked past pde_flux_rows_end, and PDEs with
// kNcpIsZero skip the NCP stage and get no SoA gradQ cell.
#pragma once

#include "exastp/basis/basis_tables.h"
#include "exastp/common/check.h"
#include "exastp/kernels/derivative_ops.h"
#include "exastp/kernels/splitck_driver.h"
#include "exastp/pde/pde_base.h"
#include "exastp/pde/pde_lines.h"
#include "exastp/tensor/transpose.h"

namespace exastp {

template <class Pde>
class SoaUfStp {
 public:
  static constexpr int kQuants = Pde::kQuants;

  SoaUfStp(Pde pde, int order, Isa isa,
           NodeFamily family = NodeFamily::kGaussLegendre)
      : pde_(std::move(pde)),
        basis_(basis_tables(order, family)),
        isa_(isa),
        aos_(order, kQuants, isa),
        soa_(order, kQuants, isa),
        driver_(aos_, Pde::kVars, isa, basis_) {
    EXASTP_CHECK_MSG(order >= 2, "STP needs at least 2 nodes per dimension");
    sweep_.assign(aos_.size(), 0.0);
    avg_.assign(aos_.size(), 0.0);
    soa_in_.assign(soa_.size(), 0.0);
    if constexpr (!pde_ncp_is_zero<Pde>()) soa_aux_.assign(soa_.size(), 0.0);
    soa_out_.assign(soa_.size(), 0.0);
  }

  const AosLayout& layout() const { return aos_; }

  std::size_t workspace_bytes() const {
    return driver_.workspace_bytes() +
           (sweep_.size() + avg_.size() + soa_in_.size() + soa_aux_.size() +
            soa_out_.size()) *
               sizeof(double);
  }

  void compute(const double* q, double dt,
               const std::array<double, 3>& inv_dx, const SourceTerm* source,
               const StpOutputs& out) {
    driver_.run(*this, InPlaceBoundary{avg_.data(), avg_.size()}, q, dt,
                inv_dx, source, out);
  }

 private:
  friend class SplitCkDriver<double, AosLayout>;

  /// The driver's sweep, through the rejected scheme: every user-function
  /// call is wrapped in whole-cell AoS <-> SoA transposes. One AoS scratch
  /// cell holds the flux, then, once the flux GEMM has consumed it, gradQ
  /// and the NCP term.
  void volume(int d, double inv_h, const double* src, double* dst) {
    const double* diff = basis_.diff.data();
    const int np = soa_.n_pad;
    const int cover = pde_flux_rows_end<Pde>(d);

    // src in SoA, which both user functions read.
    aos_to_soa(src, aos_, soa_in_.data(), soa_);
    if (cover > 0) {
      // flux = F_d(src): one vectorized sweep over all n^3 nodes, SoA ->
      // AoS; dst += inv_h * D_d flux, masked past the PDE's flux rows.
      flux_line(isa_, pde_, soa_in_.data(), d, soa_out_.data(), np, np,
                /*lines=*/1, 0);
      soa_to_aos(soa_out_.data(), soa_, sweep_.data(), aos_);
      aos_derivative(isa_, aos_, diff, inv_h, d, sweep_.data(), dst,
                     /*accumulate=*/true, cover);
    }
    if constexpr (!pde_ncp_is_zero<Pde>()) {
      // gradQ = inv_h * D_d src; NCP through the same transpose dance.
      aos_derivative(isa_, aos_, diff, inv_h, d, src, sweep_.data(),
                     /*accumulate=*/false);
      aos_to_soa(sweep_.data(), aos_, soa_aux_.data(), soa_);
      ncp_line(isa_, pde_, soa_in_.data(), soa_aux_.data(), d,
               soa_out_.data(), np, np, /*lines=*/1, 0);
      soa_to_aos(soa_out_.data(), soa_, sweep_.data(), aos_);
      vec_add(isa_, static_cast<long>(aos_.size()), sweep_.data(), dst);
    }
  }

  Pde pde_;
  const BasisTables& basis_;
  Isa isa_;
  AosLayout aos_;
  SoaLayout soa_;
  SplitCkDriver<double, AosLayout> driver_;

  AlignedVector sweep_;  // flux, then gradQ and the NCP term
  AlignedVector avg_;    // qavg (InPlaceBoundary)
  // src, gradQ (PDEs with an NCP only) and a user function's output, SoA.
  AlignedVector soa_in_, soa_aux_, soa_out_;
};

}  // namespace exastp

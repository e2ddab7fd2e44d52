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
// per Taylor order and dimension.
#pragma once

#include "exastp/basis/basis_tables.h"
#include "exastp/common/check.h"
#include "exastp/kernels/derivative_ops.h"
#include "exastp/kernels/splitck_driver.h"
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
        driver_(aos_, Pde::kVars, isa) {
    EXASTP_CHECK_MSG(order >= 2, "STP needs at least 2 nodes per dimension");
    flux_.assign(aos_.size(), 0.0);
    gradq_.assign(aos_.size(), 0.0);
    soa_in_.assign(soa_.size(), 0.0);
    soa_aux_.assign(soa_.size(), 0.0);
    soa_out_.assign(soa_.size(), 0.0);
  }

  const AosLayout& layout() const { return aos_; }

  std::size_t workspace_bytes() const {
    return driver_.workspace_bytes() +
           (flux_.size() + gradq_.size() + soa_in_.size() + soa_aux_.size() +
            soa_out_.size()) *
               sizeof(double);
  }

  void compute(const double* q, double dt,
               const std::array<double, 3>& inv_dx, const SourceTerm* source,
               const StpOutputs& out) {
    driver_.run(*this, InPlaceBoundary{}, q, dt, inv_dx, source, out);
  }

 private:
  friend class SplitCkDriver<double, AosLayout>;

  /// The driver's sweep, through the rejected scheme: every user-function
  /// call is wrapped in whole-cell AoS <-> SoA transposes.
  void volume(int d, double inv_h, const double* src, double* dst) {
    const double* diff = basis_.diff.data();
    const int np = soa_.n_pad;

    // flux = F_d(src): AoS -> SoA, one vectorized sweep over all n^3
    // nodes, SoA -> AoS.
    aos_to_soa(src, aos_, soa_in_.data(), soa_);
    flux_line(isa_, pde_, soa_in_.data(), d, soa_out_.data(), np, np,
              /*lines=*/1, 0);
    soa_to_aos(soa_out_.data(), soa_, flux_.data(), aos_);
    aos_derivative(isa_, aos_, diff, inv_h, d, flux_.data(), dst,
                   /*accumulate=*/true);

    // gradQ = inv_h * D_d src; NCP through the same transpose dance.
    aos_derivative(isa_, aos_, diff, inv_h, d, src, gradq_.data(),
                   /*accumulate=*/false);
    aos_to_soa(gradq_.data(), aos_, soa_aux_.data(), soa_);
    ncp_line(isa_, pde_, soa_in_.data(), soa_aux_.data(), d, soa_out_.data(),
             np, np, /*lines=*/1, 0);
    soa_to_aos(soa_out_.data(), soa_, gradq_.data(), aos_);
    vec_add(isa_, static_cast<long>(aos_.size()), gradq_.data(), dst);
  }

  Pde pde_;
  const BasisTables& basis_;
  Isa isa_;
  AosLayout aos_;
  SoaLayout soa_;
  SplitCkDriver<double, AosLayout> driver_;

  AlignedVector flux_, gradq_;
  AlignedVector soa_in_, soa_aux_, soa_out_;
};

}  // namespace exastp

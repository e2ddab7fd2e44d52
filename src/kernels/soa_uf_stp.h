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
// than estimated: the SplitCK algorithm and AoS storage of SplitCkStp, but
// every user-function sweep transposes the full cell AoS -> SoA, calls the
// vectorized line functions once over all n^3 nodes, and transposes back.
// Numerically identical to all other variants (covered by the equivalence
// tests); performance-wise it pays 4 full-cell transposes per Taylor order
// and dimension.
#pragma once

#include <cstring>

#include "exastp/basis/basis_tables.h"
#include "exastp/common/check.h"
#include "exastp/common/taylor.h"
#include "exastp/gemm/vecops.h"
#include "exastp/kernels/derivative_ops.h"
#include "exastp/kernels/stp_common.h"
#include "exastp/pde/pde_lines.h"
#include "exastp/perf/flop_count.h"
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
        n_(order),
        aos_(order, kQuants, isa),
        soa_(order, kQuants, isa),
        cell_(aos_.size()) {
    EXASTP_CHECK_MSG(order >= 2, "STP needs at least 2 nodes per dimension");
    p_.assign(cell_, 0.0);
    ptemp_.assign(cell_, 0.0);
    flux_.assign(cell_, 0.0);
    gradq_.assign(cell_, 0.0);
    soa_in_.assign(soa_.size(), 0.0);
    soa_aux_.assign(soa_.size(), 0.0);
    soa_out_.assign(soa_.size(), 0.0);
  }

  const AosLayout& layout() const { return aos_; }

  std::size_t workspace_bytes() const {
    return (p_.size() + ptemp_.size() + flux_.size() + gradq_.size() +
            soa_in_.size() + soa_aux_.size() + soa_out_.size()) *
           sizeof(double);
  }

  void compute(const double* q, double dt,
               const std::array<double, 3>& inv_dx, const SourceTerm* source,
               const StpOutputs& out) {
    const int n = n_;
    const auto coeff = time_average_coefficients(dt, n);
    const auto half = time_average_coefficients(0.5 * dt, n);
    FlopCounter& fc = FlopCounter::instance();

    vec_copy(static_cast<long>(cell_), q, p_.data());
    vec_scale(isa_, static_cast<long>(cell_), coeff[0], q, out.qavg);
    if (out.qavg_half != nullptr)
      vec_scale(isa_, static_cast<long>(cell_), half[0], q, out.qavg_half);

    for (int o = 0; o + 1 < n; ++o) {
      vec_zero(static_cast<long>(cell_), ptemp_.data());
      for (int d = 0; d < 3; ++d)
        apply_volume_dimension(d, inv_dx[d], p_.data(), ptemp_.data());
      if (source != nullptr) apply_source(ptemp_.data(), source, o, fc);
      vec_axpy(isa_, static_cast<long>(cell_), coeff[o + 1], ptemp_.data(),
               out.qavg);
      if (out.qavg_half != nullptr)
        vec_axpy(isa_, static_cast<long>(cell_), half[o + 1], ptemp_.data(),
                 out.qavg_half);
      p_.swap(ptemp_);
      refresh_aos_param_rows(aos_, Pde::kVars, q, p_.data());
    }

    refresh_aos_param_rows(aos_, Pde::kVars, q, out.qavg);
    if (out.qavg_half != nullptr)
      refresh_aos_param_rows(aos_, Pde::kVars, q, out.qavg_half);
    for (int d = 0; d < 3; ++d) {
      vec_zero(static_cast<long>(cell_), out.favg[d]);
      apply_volume_dimension(d, inv_dx[d], out.qavg, out.favg[d]);
    }
  }

 private:
  void apply_volume_dimension(int d, double inv_h, const double* src,
                              double* dst) {
    const std::size_t nodes = static_cast<std::size_t>(n_) * n_ * n_;
    const double* diff = basis_.diff.data();

    // flux = F_d(src), via the rejected scheme: AoS -> SoA, one vectorized
    // sweep over all n^3 nodes, SoA -> AoS.
    aos_to_soa(src, aos_, soa_in_.data(), soa_);
    flux_line(isa_, pde_, soa_in_.data(), d, soa_out_.data(), soa_.n_pad,
              soa_.n_pad);
    soa_to_aos(soa_out_.data(), soa_, flux_.data(), aos_);
    (void)nodes;
    aos_derivative(isa_, aos_, diff, inv_h, d, flux_.data(), dst,
                   /*accumulate=*/true);

    // gradQ = inv_h * D_d src; NCP through the same transpose dance.
    aos_derivative(isa_, aos_, diff, inv_h, d, src, gradq_.data(),
                   /*accumulate=*/false);
    aos_to_soa(gradq_.data(), aos_, soa_aux_.data(), soa_);
    ncp_line(isa_, pde_, soa_in_.data(), soa_aux_.data(), d, soa_out_.data(),
             soa_.n_pad, soa_.n_pad);
    soa_to_aos(soa_out_.data(), soa_, gradq_.data(), aos_);
    vec_add(isa_, static_cast<long>(cell_), gradq_.data(), dst);
  }

  void apply_source(double* dst, const SourceTerm* source, int o,
                    FlopCounter& fc) {
    const int mp = aos_.m_pad;
    const double sdo = source->dt_derivatives[o];
    const std::size_t nodes = static_cast<std::size_t>(n_) * n_ * n_;
    for (std::size_t k = 0; k < nodes; ++k)
      dst[k * mp + source->quantity] += source->psi[k] * sdo;
    fc.add(WidthClass::kScalar, 2 * nodes);
  }

  Pde pde_;
  const BasisTables& basis_;
  Isa isa_;
  int n_;
  AosLayout aos_;
  SoaLayout soa_;
  std::size_t cell_;

  AlignedVector p_, ptemp_, flux_, gradq_;
  AlignedVector soa_in_, soa_aux_, soa_out_;
};

}  // namespace exastp

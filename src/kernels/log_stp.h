// LoG STP kernel — Loop-over-GEMM variant (paper Sec. III).
//
// Same algorithm and space-time storage as the generic kernel (the whole
// predictor p[o] and its fluctuations dF[o][d] stay live — the footprint
// that overflows L2 from order ~6, Sec. IV-A), but:
//  * padded, aligned AoS data layout (quantity dimension padded to the SIMD
//    width),
//  * all tensor contractions lowered to batched mini-GEMM calls on tensor
//    slices (derivative_ops.h),
//  * element-wise Taylor sweeps through the ISA-dispatched vecops,
//  * PDE user functions inlined via the CRTP template parameter, but still
//    evaluated pointwise per quadrature node (scalar — the ~10% scalar tail
//    of Fig. 9 that only the AoSoA variant removes).
//
// The Isa parameter selects the microkernel family and the padding width,
// which is how one binary hosts the Fig. 4 comparison of the AVX-512 and
// AVX2 ("Haswell") code paths.
#pragma once

#include <cstring>
#include <vector>

#include "exastp/basis/basis_tables.h"
#include "exastp/common/check.h"
#include "exastp/common/taylor.h"
#include "exastp/gemm/vecops.h"
#include "exastp/kernels/derivative_ops.h"
#include "exastp/kernels/face.h"
#include "exastp/kernels/stp_common.h"
#include "exastp/perf/flop_count.h"

namespace exastp {

template <class Pde>
class LogStp {
 public:
  static constexpr int kQuants = Pde::kQuants;

  LogStp(Pde pde, int order, Isa isa,
         NodeFamily family = NodeFamily::kGaussLegendre)
      : pde_(std::move(pde)),
        basis_(basis_tables(order, family)),
        isa_(isa),
        n_(order),
        aos_(order, kQuants, isa),
        cell_(aos_.size()) {
    EXASTP_CHECK_MSG(order >= 2, "STP needs at least 2 nodes per dimension");
    p_.assign((static_cast<std::size_t>(n_) + 1) * cell_, 0.0);
    flux_.assign(static_cast<std::size_t>(n_) * 3 * cell_, 0.0);
    df_.assign(static_cast<std::size_t>(n_) * 3 * cell_, 0.0);
    gradq_.assign(static_cast<std::size_t>(n_) * 3 * cell_, 0.0);
  }

  const AosLayout& layout() const { return aos_; }

  std::size_t workspace_bytes() const {
    return (p_.size() + flux_.size() + df_.size() + gradq_.size()) *
           sizeof(double);
  }

  void compute(const double* q, double dt,
               const std::array<double, 3>& inv_dx, const SourceTerm* source,
               const StpOutputs& out) {
    const int n = n_;
    const int mp = aos_.m_pad;
    const std::size_t nodes = static_cast<std::size_t>(n) * n * n;
    const double* diff = basis_.diff.data();
    FlopCounter& fc = FlopCounter::instance();

    vec_copy(static_cast<long>(cell_), q, p_.data());

    for (int o = 0; o < n; ++o) {
      const double* po = p_.data() + p_index(o);

      // Pointwise user functions (scalar, inlined).
      for (int d = 0; d < 3; ++d) {
        double* fo = flux_.data() + od_index(o, d);
        for (std::size_t k = 0; k < nodes; ++k)
          pde_.flux(po + k * mp, d, fo + k * mp);
        record_ranges(cell_, po, fo);
      }
      fc.add(WidthClass::kScalar, 3 * nodes * Pde::kFluxFlops);

      // Loop-over-GEMM contractions.
      for (int d = 0; d < 3; ++d) {
        aos_derivative(isa_, aos_, diff, inv_dx[d], d,
                       flux_.data() + od_index(o, d),
                       df_.data() + od_index(o, d), /*accumulate=*/false);
        aos_derivative(isa_, aos_, diff, inv_dx[d], d, po,
                       gradq_.data() + od_index(o, d), /*accumulate=*/false);
      }

      // Pointwise NCP (scalar, inlined).
      for (int d = 0; d < 3; ++d) {
        double* dfo = df_.data() + od_index(o, d);
        const double* go = gradq_.data() + od_index(o, d);
        for (std::size_t k = 0; k < nodes; ++k) {
          pde_.ncp(po + k * mp, go + k * mp, d, ncp_tmp_);
          for (int s = 0; s < kQuants; ++s) dfo[k * mp + s] += ncp_tmp_[s];
        }
        record_ranges(cell_, po, go, dfo);
      }
      fc.add(WidthClass::kScalar, 3 * nodes * (Pde::kNcpFlops + kQuants));

      // p[o+1] = sum_d dF[o][d] (+ source derivative).
      double* pn = p_.data() + p_index(o + 1);
      vec_zero(static_cast<long>(cell_), pn);
      for (int d = 0; d < 3; ++d)
        vec_add(isa_, static_cast<long>(cell_),
                df_.data() + od_index(o, d), pn);
      if (source != nullptr) add_source_derivative(aos_, *source, o, pn);
      refresh_param_rows(aos_, Pde::kVars, q, pn);
    }

    // Taylor accumulation of the time-averaged outputs. An favg[d], qavg or
    // qavg_half the caller does not read is summed into flux[0][d],
    // flux[1][0] or flux[1][1], which the recursion is done with.
    const auto coeff = time_average_coefficients(dt, n);
    std::array<double*, 3> favg;
    for (int d = 0; d < 3; ++d)
      favg[d] = out.favg[d] != nullptr ? out.favg[d]
                                       : flux_.data() + od_index(0, d);
    double* qavg =
        out.qavg != nullptr ? out.qavg : flux_.data() + od_index(1, 0);
    vec_zero(static_cast<long>(cell_), qavg);
    for (int d = 0; d < 3; ++d) vec_zero(static_cast<long>(cell_), favg[d]);
    for (int o = 0; o < n; ++o) {
      vec_axpy(isa_, static_cast<long>(cell_), coeff[o],
               p_.data() + p_index(o), qavg);
      for (int d = 0; d < 3; ++d)
        vec_axpy(isa_, static_cast<long>(cell_), coeff[o],
                 df_.data() + od_index(o, d), favg[d]);
    }
    if (out.qnew != nullptr) {
      for (int d = 0; d < 3; ++d)
        add_volume_update(cell_, dt, d == 0 ? q : out.qnew, favg[d],
                          out.qnew);
      if (source != nullptr)
        add_source_integral(aos_, dt, *source, out.qnew);
    }
    refresh_param_rows(aos_, Pde::kVars, q, qavg);
    if (out.traces != nullptr)
      project_faces(isa_, aos_, basis_, qavg, out.traces);

    // Half-window average: the same p[o] with the dt/2 weights.
    if (out.qavg_half != nullptr || out.traces_half != nullptr) {
      double* qavg_half = out.qavg_half != nullptr
                              ? out.qavg_half
                              : flux_.data() + od_index(1, 1);
      const auto half = time_average_coefficients(0.5 * dt, n);
      vec_zero(static_cast<long>(cell_), qavg_half);
      for (int o = 0; o < n; ++o)
        vec_axpy(isa_, static_cast<long>(cell_), half[o],
                 p_.data() + p_index(o), qavg_half);
      refresh_param_rows(aos_, Pde::kVars, q, qavg_half);
      if (out.traces_half != nullptr)
        project_faces(isa_, aos_, basis_, qavg_half, out.traces_half);
    }
  }

 private:
  std::size_t p_index(int o) const {
    return static_cast<std::size_t>(o) * cell_;
  }
  std::size_t od_index(int o, int d) const {
    return (static_cast<std::size_t>(o) * 3 + d) * cell_;
  }

  Pde pde_;
  const BasisTables& basis_;
  Isa isa_;
  int n_;
  AosLayout aos_;
  std::size_t cell_;  // padded cell tensor size

  AlignedVector p_, flux_, df_, gradq_;
  double ncp_tmp_[kQuants] = {};
};

}  // namespace exastp

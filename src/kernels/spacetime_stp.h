// The full space-time storage Cauchy-Kowalewsky driver (paper Sec. II-III)
// shared by the generic kernel (Sec. II-B, Fig. 1) and LoG (Sec. III). The
// two differ only in how they call the PDE's user functions and how they
// differentiate; the recursion is stated here once:
//
//  * the Taylor loop keeps the whole space-time predictor alive: p[o],
//    flux[o][d], dF[o][d] and gradQ[o][d] for every Taylor order o, the
//    O(N^{d+1} m d) footprint whose L2 overflow from order ~6 Sec. IV-A
//    analyses. Each order evaluates the flux node by node, takes the flux
//    and state derivatives, adds the node-wise NCP into dF, sums the three
//    dF[o][d] and the point source's o-th time derivative into p[o+1], and
//    restores the parameter rows the next order's user functions read;
//  * the output tail: qavg = sum_o c[o] p[o] and favg[d] = sum_o c[o]
//    dF[o][d] with c[o] = dt^o/(o+1)!, in ascending o. An favg[d], qavg or
//    qavg_half the caller does not read is summed into flux[0][d],
//    flux[1][0] or flux[1][1], which the recursion is done with. qnew adds
//    the three favg[d] and the point source's time integral; the traces
//    are projected from qavg after its parameter rows are restored; the
//    half window folds the same p[o] with the dt/2 weights.
//
// Every element-wise sweep runs through the ISA-dispatched vecops, and the
// face projection, at the kernel's ISA.
//
// A variant reaches the driver as two compile-time policies:
//
//   UserFns, built from the kernel's PDE argument:
//       flux(q, d, f), ncp(q, grad, d, out)   one node each;
//       flux_flops(), ncp_flops()             FLOPs of one call, booked
//                                             scalar once per sweep;
//       vars(), quants()                      evolved and stored quantities
//                                             per node;
//   Derivative::apply(isa, aos, diff, inv_h, d, flux, p, df, gradq)
//       df = inv_h D_d flux and gradq = inv_h D_d p over the whole cell,
//       booking its own FLOPs and reporting its own accesses to an
//       installed recorder.
//
// LoG (log_stp.h) inlines the CRTP PDE's user functions and differentiates
// with two Loop-over-GEMM calls on the padded layout; the generic kernel
// (generic_stp.h) calls the runtime PDE it owns through the virtual
// interface, differentiates with naive strided dot products and runs at
// Isa::kScalar on the unpadded layout.
#pragma once

#include <array>
#include <utility>

#include "exastp/basis/basis_tables.h"
#include "exastp/common/check.h"
#include "exastp/common/taylor.h"
#include "exastp/gemm/vecops.h"
#include "exastp/kernels/face.h"
#include "exastp/kernels/stp_common.h"
#include "exastp/perf/flop_count.h"

namespace exastp {

template <class UserFns, class Derivative>
class SpacetimeStp {
 public:
  /// `pde` is what UserFns is built from (see the header comment).
  template <class Pde>
  SpacetimeStp(Pde pde, int order, Isa isa,
               NodeFamily family = NodeFamily::kGaussLegendre)
      : fns_(std::move(pde)),
        basis_(basis_tables(order, family)),
        isa_(isa),
        aos_(order, fns_.quants(), isa),
        cell_(aos_.size()) {
    EXASTP_CHECK_MSG(order >= 2, "STP needs at least 2 nodes per dimension");
    const std::size_t n = static_cast<std::size_t>(order);
    p_.assign((n + 1) * cell_, 0.0);
    flux_.assign(n * 3 * cell_, 0.0);
    df_.assign(n * 3 * cell_, 0.0);
    gradq_.assign(n * 3 * cell_, 0.0);
    ncp_.assign(static_cast<std::size_t>(aos_.m), 0.0);
  }

  const AosLayout& layout() const { return aos_; }

  /// Bytes of the space-time tensors (footprint metric of Sec. IV-A).
  std::size_t workspace_bytes() const {
    return (p_.size() + flux_.size() + df_.size() + gradq_.size()) *
           sizeof(double);
  }

  void compute(const double* q, double dt,
               const std::array<double, 3>& inv_dx, const SourceTerm* source,
               const StpOutputs& out) {
    const int n = aos_.n;
    const int mp = aos_.m_pad;
    const int m = fns_.quants();
    const long cell = static_cast<long>(cell_);
    const std::size_t nodes = static_cast<std::size_t>(n) * n * n;
    const double* diff = basis_.diff.data();
    FlopCounter& fc = FlopCounter::instance();

    // p[0] = q(t_n).
    vec_copy(cell, q, p_.data());

    for (int o = 0; o < n; ++o) {
      const double* po = p_.data() + p_index(o);

      // flux[o][d] = F_d(p[o]), node by node.
      for (int d = 0; d < 3; ++d) {
        double* fo = flux_.data() + od_index(o, d);
        for (std::size_t k = 0; k < nodes; ++k)
          fns_.flux(po + k * mp, d, fo + k * mp);
        record_ranges(cell_, po, fo);
      }
      fc.add(WidthClass::kScalar, 3 * nodes * fns_.flux_flops());

      // dF[o][d] = D_d flux[o][d]; gradQ[o][d] = D_d p[o].
      for (int d = 0; d < 3; ++d)
        Derivative::apply(isa_, aos_, diff, inv_dx[d], d,
                          flux_.data() + od_index(o, d), po,
                          df_.data() + od_index(o, d),
                          gradq_.data() + od_index(o, d));

      // dF[o][d] += B_d(p[o]) gradQ[o][d], node by node.
      for (int d = 0; d < 3; ++d) {
        double* dfo = df_.data() + od_index(o, d);
        const double* go = gradq_.data() + od_index(o, d);
        for (std::size_t k = 0; k < nodes; ++k) {
          fns_.ncp(po + k * mp, go + k * mp, d, ncp_.data());
          for (int s = 0; s < m; ++s) dfo[k * mp + s] += ncp_[s];
        }
        record_ranges(cell_, po, go, dfo);
      }
      fc.add(WidthClass::kScalar, 3 * nodes * (fns_.ncp_flops() + m));

      // p[o+1] = sum_d dF[o][d] (+ source derivative).
      double* pn = p_.data() + p_index(o + 1);
      vec_zero(cell, pn);
      for (int d = 0; d < 3; ++d)
        vec_add(isa_, cell, df_.data() + od_index(o, d), pn);
      if (source != nullptr) add_source_derivative(aos_, *source, o, pn);
      refresh_param_rows(aos_, fns_.vars(), q, pn);
    }

    // Taylor accumulation of the time-averaged outputs.
    const auto coeff = time_average_coefficients(dt, n);
    std::array<double*, 3> favg;
    for (int d = 0; d < 3; ++d)
      favg[d] = out.favg[d] != nullptr ? out.favg[d]
                                       : flux_.data() + od_index(0, d);
    double* qavg =
        out.qavg != nullptr ? out.qavg : flux_.data() + od_index(1, 0);
    vec_zero(cell, qavg);
    for (int d = 0; d < 3; ++d) vec_zero(cell, favg[d]);
    for (int o = 0; o < n; ++o) {
      vec_axpy(isa_, cell, coeff[o], p_.data() + p_index(o), qavg);
      for (int d = 0; d < 3; ++d)
        vec_axpy(isa_, cell, coeff[o], df_.data() + od_index(o, d),
                 favg[d]);
    }
    if (out.qnew != nullptr) {
      for (int d = 0; d < 3; ++d)
        add_volume_update(cell_, dt, d == 0 ? q : out.qnew, favg[d],
                          out.qnew);
      if (source != nullptr) add_source_integral(aos_, dt, *source, out.qnew);
    }
    refresh_param_rows(aos_, fns_.vars(), q, qavg);
    if (out.traces != nullptr)
      project_faces(isa_, aos_, basis_, qavg, out.traces);

    // Half-window average: the same p[o] with the dt/2 weights.
    if (out.qavg_half != nullptr || out.traces_half != nullptr) {
      double* qavg_half = out.qavg_half != nullptr
                              ? out.qavg_half
                              : flux_.data() + od_index(1, 1);
      const auto half = time_average_coefficients(0.5 * dt, n);
      vec_zero(cell, qavg_half);
      for (int o = 0; o < n; ++o)
        vec_axpy(isa_, cell, half[o], p_.data() + p_index(o), qavg_half);
      refresh_param_rows(aos_, fns_.vars(), q, qavg_half);
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

  UserFns fns_;
  const BasisTables& basis_;
  Isa isa_;
  AosLayout aos_;
  std::size_t cell_;  // padded cell tensor size

  AlignedVector p_;      // (n+1) * cell_ : Taylor derivatives of q
  AlignedVector flux_;   // n * 3 * cell_ : flux per order and dimension
  AlignedVector df_;     // n * 3 * cell_ : derived flux + ncp
  AlignedVector gradq_;  // n * 3 * cell_ : spatial gradients
  AlignedVector ncp_;    // one node's NCP term
};

}  // namespace exastp

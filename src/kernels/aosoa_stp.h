// AoSoA SplitCK STP kernel — hybrid data layout + vectorized user functions
// (paper Sec. V).
//
// Same dimension-split Cauchy-Kowalewsky recursion as SplitCkStpT (both
// run on SplitCkDriver, splitck_driver.h), but the working tensors live in
// the hybrid A[k3][k2][s][k1] layout:
//  * GEMMs keep a unit-stride leading dimension (the zero-padded x-line;
//    x-derivatives become transposed products C^T = B^T A^T, y/z-derivatives
//    fuse the quantity and x dimensions — Sec. V-B),
//  * every (k3,k2) line is a ready-made SoA chunk, so the PDE user functions
//    are called once per line on VECTLENGTH = n_pad lanes and vectorize at
//    the full SIMD width (Sec. V-C / Fig. 8) — this removes the ~10% scalar
//    tail the AoS variants keep.
//
// The rest of the engine speaks AoS, so inputs are transposed to AoSoA on
// entry and outputs back on exit, as the paper does ("the performance impact
// of these transpositions is minimal compared to the cost of the kernel").
//
// Shares the SplitCK extensions (see splitck_stp.h): fused cache-blocked
// dimension sweeps (slab size from FusionTuneTable), PDE-declared zero-block
// masking of the flux derivative GEMMs and NCP-stage skipping, and Real
// templating — the templated PDE line functions keep the hot sweeps
// conversion-free in both precisions.
#pragma once

#include <algorithm>

#include "exastp/basis/basis_tables.h"
#include "exastp/common/check.h"
#include "exastp/kernels/derivative_ops.h"
#include "exastp/kernels/fusion_autotune.h"
#include "exastp/kernels/splitck_driver.h"
#include "exastp/pde/pde_base.h"
#include "exastp/pde/pde_lines.h"
#include "exastp/tensor/transpose.h"

namespace exastp {

/// The AoS engine boundary of the AoSoA kernel: the state is transposed in
/// on entry; the outputs are staged in double AoSoA tensors and transposed
/// out on exit. The half-window average borrows the first favg tensor.
class AosoaBoundary {
 public:
  AosoaBoundary(const AosLayout& aos, const AosoaLayout& aosoa)
      : aos_(aos), aosoa_(aosoa) {
    q_.assign(aosoa.size(), 0.0);
    qavg_.assign(aosoa.size(), 0.0);
    for (auto& f : favg_) f.assign(aosoa.size(), 0.0);
  }

  std::size_t workspace_bytes() const {
    return 5 * aosoa_.size() * sizeof(double);
  }

  const double* enter(const double* q) {
    aos_to_aosoa(q, aos_, q_.data(), aosoa_);
    return q_.data();
  }
  StpOutputs stage(const StpOutputs& out) {
    return {qavg_.data(),
            {favg_[0].data(), favg_[1].data(), favg_[2].data()},
            out.qavg_half != nullptr ? favg_[0].data() : nullptr};
  }
  void leave(const double* staged, double* out) const {
    aosoa_to_aos(staged, aosoa_, out, aos_);
  }

 private:
  AosLayout aos_;
  AosoaLayout aosoa_;
  AlignedVector q_, qavg_;
  std::array<AlignedVector, 3> favg_;
};

template <class Pde, class Real = double>
class AosoaStpT {
 public:
  static constexpr int kQuants = Pde::kQuants;

  AosoaStpT(Pde pde, int order, Isa isa,
            NodeFamily family = NodeFamily::kGaussLegendre)
      : pde_(std::move(pde)),
        isa_(isa),
        n_(order),
        aos_(order, kQuants, isa),
        aosoa_(order, kQuants, isa),
        boundary_(aos_, aosoa_),
        driver_(aosoa_, Pde::kVars, isa),
        block_(FusionTuneTable::instance().block_planes(
            Pde::kName, order, kQuants, isa, precision_of<Real>())) {
    EXASTP_CHECK_MSG(order >= 2, "STP needs at least 2 nodes per dimension");
    const BasisTables& basis = basis_tables(order, family);
    const AlignedVector diff_t = basis.padded_diff_t(aosoa_.n_pad);
    diff_.assign(basis.diff.begin(), basis.diff.end());
    diff_t_.assign(diff_t.begin(), diff_t.end());
    flux_.assign(aosoa_.size(), Real(0));
    gradq_.assign(aosoa_.size(), Real(0));
    line_buf_.assign(static_cast<std::size_t>(kQuants) * aosoa_.n_pad,
                     Real(0));
  }

  const AosLayout& layout() const { return aos_; }
  const AosoaLayout& internal_layout() const { return aosoa_; }

  std::size_t workspace_bytes() const {
    return boundary_.workspace_bytes() + driver_.workspace_bytes() +
           (flux_.size() + gradq_.size() + line_buf_.size()) * sizeof(Real);
  }

  void compute(const double* q, double dt,
               const std::array<double, 3>& inv_dx, const SourceTerm* source,
               const StpOutputs& out) {
    driver_.run(*this, boundary_, q, dt, inv_dx, source, out);
  }

  /// Extension (paper Sec. V-B: the boundary transposes "could be avoided
  /// altogether by switching the whole engine to an AoSoA data layout"):
  /// runs the predictor directly on AoSoA buffers with no transposes.
  /// All pointers use this kernel's internal_layout(); q_aosoa must have
  /// zeroed padding lanes. For Real=float the AoSoA boundary stays double;
  /// the driver narrows and widens as in compute().
  void compute_native(const double* q_aosoa, double dt,
                      const std::array<double, 3>& inv_dx,
                      const SourceTerm* source, double* qavg_aosoa,
                      const std::array<double*, 3>& favg_aosoa) {
    driver_.run(*this, InPlaceBoundary{}, q_aosoa, dt, inv_dx, source,
                StpOutputs{qavg_aosoa, favg_aosoa});
  }

 private:
  friend class SplitCkDriver<Real, AosoaLayout>;

  /// Iterates `fn(line_offset)` over the slab's (k3,k2) lines: k3 planes
  /// for the x/y sweeps, k2 pencils (all k3) for the z sweep.
  template <class Fn>
  void for_slab_lines(int d, int lo, int hi, Fn&& fn) const {
    if (d < 2) {
      for (int k3 = lo; k3 < hi; ++k3)
        for (int k2 = 0; k2 < n_; ++k2) fn(aosoa_.line_offset(k3, k2));
    } else {
      for (int k3 = 0; k3 < n_; ++k3)
        for (int k2 = lo; k2 < hi; ++k2) fn(aosoa_.line_offset(k3, k2));
    }
  }

  /// The driver's sweep: dst += inv_h * D_d F_d(src) + B_d(src, inv_h *
  /// D_d src), all AoSoA, fused slab by slab (see splitck_stp.h). The PDE
  /// line functions run at the kernel's ISA in the kernel's scalar type.
  void volume(int d, Real inv_h, const Real* src, Real* dst) {
    const int np = aosoa_.n_pad;
    const int cover = pde_flux_rows_end<Pde>(d);
    for (int lo = 0; lo < n_; lo += block_) {
      const int hi = std::min(n_, lo + block_);
      if (cover > 0) {
        // Vectorized user function: one call per (k3,k2) line, operating
        // on the full padded x-line (zero lanes are valid inputs by PDE
        // contract).
        for_slab_lines(d, lo, hi, [&](std::size_t off) {
          flux_line(isa_, pde_, src + off, d, flux_.data() + off, np, np);
        });
        aosoa_derivative_slab(isa_, aosoa_, diff_.data(), diff_t_.data(),
                              inv_h, d, lo, hi, cover, flux_.data(), dst,
                              /*accumulate=*/true);
      }
      if constexpr (!pde_ncp_is_zero<Pde>()) {
        aosoa_derivative_slab(isa_, aosoa_, diff_.data(), diff_t_.data(),
                              inv_h, d, lo, hi, aosoa_.m, src, gradq_.data(),
                              /*accumulate=*/false);
        for_slab_lines(d, lo, hi, [&](std::size_t off) {
          ncp_line(isa_, pde_, src + off, gradq_.data() + off, d,
                   line_buf_.data(), np, np);
          vec_add(isa_, static_cast<long>(line_buf_.size()),
                  line_buf_.data(), dst + off);
        });
      }
    }
  }

  Pde pde_;
  Isa isa_;
  int n_;
  AosLayout aos_;
  AosoaLayout aosoa_;
  AosoaBoundary boundary_;
  SplitCkDriver<Real, AosoaLayout> driver_;
  int block_;
  // The derivative operator and its zero-padded transpose, in Real.
  AlignedVectorT<Real> diff_, diff_t_;
  AlignedVectorT<Real> flux_, gradq_, line_buf_;
};

/// The paper's fp64 AoSoA kernel (the default precision).
template <class Pde>
using AosoaStp = AosoaStpT<Pde>;

}  // namespace exastp

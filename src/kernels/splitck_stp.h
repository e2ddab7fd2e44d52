// SplitCK STP kernel — dimension-split Cauchy-Kowalewsky scheme
// (paper Sec. IV, Fig. 5 pseudocode with the typos fixed per DESIGN.md).
//
// The reformulation that removes the L2-cache bottleneck: instead of keeping
// the entire space-time predictor alive, only four cell-sized tensors exist
// (p, ptemp, flux/scratch, gradQ) — O(N^d m) instead of O(N^{d+1} m d). The
// time integration happens on the fly (qavg accumulates each Taylor term as
// soon as it is produced), every dimension reuses the same scratch tensors,
// and the time-averaged fluctuations favg[d] are recomputed at the end from
// the time-averaged state (legal because the scheme is linear and the
// parameter rows of the averaged state are exact). A clustered-LTS caller
// can ask for the half-window average as well (StpOutputs::qavg_half): it
// is a second accumulator over the same derivative tensors, so the coarse
// side of a cluster boundary needs no second predictor run.
//
// Costs one extra flux+derivative sweep after the time loop (the paper's
// "almost one iteration"), which vanishes relative to the N-order loop at
// high order.
//
// Three extensions over the paper's Fig. 5 rendition:
//  * Fused cache blocking: each dimension sweep runs slab by slab (k3
//    planes for x/y, k2 pencils for z) — pointwise flux, its derivative
//    GEMM, and the NCP stage of one slab complete before the next starts,
//    so the flux block is consumed while cache-resident. The slab size
//    comes from FusionTuneTable (autotunable; bitwise- and FLOP-neutral).
//  * Zero-block skipping: flux derivative GEMMs mask quantity rows past
//    the PDE-declared pde_flux_rows_end bound, and PDEs with kNcpIsZero
//    skip the gradQ + NCP stage entirely. Both are bitwise-exact; the
//    trace-model twins mirror the same rules so FLOP ledgers still match.
//  * Precision templating: Real=float stores every internal tensor in
//    fp32 (half the DOF bytes — the memory-bound win) and converts exactly
//    once at the kernel boundary; the PDE user functions are templated on
//    the scalar type, so the hot sweeps run conversion-free in both
//    precisions. The engine-side buffers and all solver reductions stay
//    fp64.
#pragma once

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "exastp/basis/basis_tables.h"
#include "exastp/common/check.h"
#include "exastp/common/taylor.h"
#include "exastp/gemm/vecops.h"
#include "exastp/kernels/derivative_ops.h"
#include "exastp/kernels/fusion_autotune.h"
#include "exastp/kernels/stp_common.h"
#include "exastp/pde/pde_base.h"
#include "exastp/perf/flop_count.h"

namespace exastp {

template <class Pde, class Real = double>
class SplitCkStpT {
 public:
  static constexpr int kQuants = Pde::kQuants;
  static constexpr bool kF32 = !std::is_same_v<Real, double>;

  SplitCkStpT(Pde pde, int order, Isa isa,
              NodeFamily family = NodeFamily::kGaussLegendre)
      : pde_(std::move(pde)),
        basis_(basis_tables(order, family)),
        isa_(isa),
        n_(order),
        aos_(order, kQuants, isa),
        cell_(aos_.size()),
        block_(FusionTuneTable::instance().block_planes(
            Pde::kName, order, kQuants, isa,
            kF32 ? Precision::kF32 : Precision::kF64)) {
    EXASTP_CHECK_MSG(order >= 2, "STP needs at least 2 nodes per dimension");
    p_.assign(cell_, Real(0));
    ptemp_.assign(cell_, Real(0));
    flux_.assign(cell_, Real(0));
    gradq_.assign(cell_, Real(0));
    if constexpr (kF32) {
      qr_.assign(cell_, Real(0));
      qavg_r_.assign(cell_, Real(0));
      for (auto& f : favg_r_) f.assign(cell_, Real(0));
      diff_r_.resize(static_cast<std::size_t>(n_) * n_);
      vec_narrow(static_cast<long>(diff_r_.size()), basis_.diff.data(),
                 diff_r_.data());
    }
  }

  const AosLayout& layout() const { return aos_; }
  int fused_block_planes() const { return block_; }

  std::size_t workspace_bytes() const {
    std::size_t bytes = (p_.size() + ptemp_.size() + flux_.size() +
                         gradq_.size()) * sizeof(Real);
    if constexpr (kF32) {
      bytes += (qr_.size() + qavg_r_.size() + 3 * favg_r_[0].size()) *
               sizeof(Real);
    }
    return bytes;
  }

  void compute(const double* q, double dt,
               const std::array<double, 3>& inv_dx, const SourceTerm* source,
               const StpOutputs& out) {
    if constexpr (kF32) {
      // fp32 boundary: narrow the state once, run the whole scheme on
      // float tensors, widen the averaged outputs once. The float
      // half-window accumulator borrows favg_r_[0], which the favg stage
      // overwrites only after the half window has been widened out.
      vec_narrow(static_cast<long>(cell_), q, qr_.data());
      Real* half_r = out.qavg_half != nullptr ? favg_r_[0].data() : nullptr;
      taylor_stage(qr_.data(), dt, inv_dx, source, qavg_r_.data(), half_r);
      if (half_r != nullptr)
        vec_widen(static_cast<long>(cell_), half_r, out.qavg_half);
      favg_stage(inv_dx, qavg_r_.data(),
                 {favg_r_[0].data(), favg_r_[1].data(), favg_r_[2].data()});
      vec_widen(static_cast<long>(cell_), qavg_r_.data(), out.qavg);
      for (int d = 0; d < 3; ++d)
        vec_widen(static_cast<long>(cell_), favg_r_[d].data(), out.favg[d]);
    } else {
      taylor_stage(q, dt, inv_dx, source, out.qavg, out.qavg_half);
      favg_stage(inv_dx, out.qavg, out.favg);
    }
  }

 private:
  /// The CK time loop: qavg (and qavg_half when non-null) accumulate each
  /// time derivative as soon as it is produced.
  void taylor_stage(const Real* q, double dt,
                    const std::array<double, 3>& inv_dx,
                    const SourceTerm* source, Real* qavg, Real* qavg_half) {
    const int n = n_;
    const auto coeff = time_average_coefficients(dt, n);
    const auto half = time_average_coefficients(0.5 * dt, n);
    FlopCounter& fc = FlopCounter::instance();

    // qavg starts with the o = 0 term: coeff[0] * q = q.
    vec_copy(static_cast<long>(cell_), q, p_.data());
    vec_scale(isa_, static_cast<long>(cell_), Real(coeff[0]), q, qavg);
    if (qavg_half != nullptr)
      vec_scale(isa_, static_cast<long>(cell_), Real(half[0]), q, qavg_half);

    // Time loop: each iteration turns p = d^o q/dt^o into d^{o+1} q/dt^{o+1}
    // and folds it into qavg immediately.
    for (int o = 0; o + 1 < n; ++o) {
      vec_zero(static_cast<long>(cell_), ptemp_.data());
      for (int d = 0; d < 3; ++d) {
        apply_volume_dimension(d, Real(inv_dx[d]), p_.data(), ptemp_.data(),
                               fc);
      }
      if (source != nullptr) apply_source(ptemp_.data(), source, o, fc);
      vec_axpy(isa_, static_cast<long>(cell_), Real(coeff[o + 1]),
               ptemp_.data(), qavg);
      if (qavg_half != nullptr)
        vec_axpy(isa_, static_cast<long>(cell_), Real(half[o + 1]),
                 ptemp_.data(), qavg_half);
      p_.swap(ptemp_);
      // The new derivative tensor has zero parameter rows; user functions
      // in the next iteration need the real parameters.
      refresh_aos_param_rows(aos_, Pde::kVars, q, p_.data());
    }

    // Restore the constant parameter rows of the averaged states.
    refresh_aos_param_rows(aos_, Pde::kVars, q, qavg);
    if (qavg_half != nullptr)
      refresh_aos_param_rows(aos_, Pde::kVars, q, qavg_half);
  }

  /// Recomputes favg[d] from the averaged state (exploiting linearity):
  /// favg[d] = D_d F_d(qavg) + B_d(qavg) D_d qavg.
  void favg_stage(const std::array<double, 3>& inv_dx, const Real* qavg,
                  const std::array<Real*, 3>& favg) {
    FlopCounter& fc = FlopCounter::instance();
    for (int d = 0; d < 3; ++d) {
      vec_zero(static_cast<long>(cell_), favg[d]);
      apply_volume_dimension(d, Real(inv_dx[d]), qavg, favg[d], fc);
    }
  }

  const Real* diff_ptr() const {
    if constexpr (kF32) {
      return diff_r_.data();
    } else {
      return basis_.diff.data();
    }
  }

  /// First linear node index of slab plane `j` for sweep direction d: k3
  /// planes are contiguous; a k2 pencil repeats once per k3.
  /// Iterates `fn(node)` over the slab's nodes.
  template <class Fn>
  void for_slab_nodes(int d, int lo, int hi, Fn&& fn) const {
    const std::size_t nn = static_cast<std::size_t>(n_) * n_;
    if (d < 2) {
      for (std::size_t k = lo * nn; k < hi * nn; ++k) fn(k);
    } else {
      for (int k3 = 0; k3 < n_; ++k3)
        for (std::size_t k = k3 * nn + static_cast<std::size_t>(lo) * n_;
             k < k3 * nn + static_cast<std::size_t>(hi) * n_; ++k)
          fn(k);
    }
  }

  // The PDE pointwise functions are templated on the scalar type, so both
  // precisions call them directly on the working tensors — the fp32 path
  // performs zero conversions inside the hot sweeps.
  void eval_flux_node(int d, const Real* src, std::size_t k) {
    const int mp = aos_.m_pad;
    pde_.flux(src + k * mp, d, flux_.data() + k * mp);
  }

  void eval_ncp_node(int d, const Real* src, Real* dst, std::size_t k) {
    const int mp = aos_.m_pad;
    pde_.ncp(src + k * mp, gradq_.data() + k * mp, d, ncp_tmp_);
    for (int s = 0; s < kQuants; ++s) dst[k * mp + s] += ncp_tmp_[s];
  }

  /// dst += inv_h * D_d F_d(src) + B_d(src, inv_h * D_d src), fused slab
  /// by slab so the flux block is still cache-resident at its GEMM.
  void apply_volume_dimension(int d, Real inv_h, const Real* src, Real* dst,
                              FlopCounter& fc) {
    const Real* diff = diff_ptr();
    const int cover = pde_flux_rows_end<Pde>(d);
    constexpr bool kNcpZero = pde_ncp_is_zero<Pde>();
    const std::size_t nn = static_cast<std::size_t>(n_) * n_;
    for (int lo = 0; lo < n_; lo += block_) {
      const int hi = std::min(n_, lo + block_);
      const std::size_t slab_nodes = static_cast<std::size_t>(hi - lo) * nn;
      if (cover > 0) {
        // flux = F_d(src) — pointwise user function, scalar.
        for_slab_nodes(d, lo, hi,
                       [&](std::size_t k) { eval_flux_node(d, src, k); });
        fc.add(WidthClass::kScalar, slab_nodes * Pde::kFluxFlops);
        // dst += inv_h * D_d flux, masked past the PDE's flux rows.
        aos_derivative_slab(isa_, aos_, diff, inv_h, d, lo, hi, cover,
                            flux_.data(), dst, /*accumulate=*/true);
      }
      if constexpr (!kNcpZero) {
        // gradQ = inv_h * D_d src; dst += B_d(src) gradQ (pointwise).
        aos_derivative_slab(isa_, aos_, diff, inv_h, d, lo, hi, aos_.m_pad,
                            src, gradq_.data(), /*accumulate=*/false);
        for_slab_nodes(d, lo, hi,
                       [&](std::size_t k) { eval_ncp_node(d, src, dst, k); });
        fc.add(WidthClass::kScalar,
               slab_nodes * (Pde::kNcpFlops + kQuants));
      }
    }
  }

  void apply_source(Real* dst, const SourceTerm* source, int o,
                    FlopCounter& fc) {
    const int mp = aos_.m_pad;
    const double sdo = source->dt_derivatives[o];
    const std::size_t nodes = static_cast<std::size_t>(n_) * n_ * n_;
    for (std::size_t k = 0; k < nodes; ++k)
      dst[k * mp + source->quantity] +=
          static_cast<Real>(source->psi[k] * sdo);
    fc.add(WidthClass::kScalar, 2 * nodes);
  }

  Pde pde_;
  const BasisTables& basis_;
  Isa isa_;
  int n_;
  AosLayout aos_;
  std::size_t cell_;
  int block_;

  AlignedVectorT<Real> p_, ptemp_, flux_, gradq_;
  // fp32-only staging: narrowed state, widened-on-exit outputs, and the
  // float copy of the derivative operator.
  AlignedVectorT<Real> qr_, qavg_r_;
  std::array<AlignedVectorT<Real>, 3> favg_r_;
  AlignedVectorT<Real> diff_r_;
  Real ncp_tmp_[kQuants] = {};
};

/// The paper's fp64 SplitCK kernel (the default precision).
template <class Pde>
using SplitCkStp = SplitCkStpT<Pde>;

}  // namespace exastp

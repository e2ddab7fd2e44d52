// AoSoA SplitCK STP kernel — hybrid data layout + vectorized user functions
// (paper Sec. V).
//
// Same dimension-split Cauchy-Kowalewsky algorithm as SplitCkStpT, but the
// working tensors live in the hybrid A[k3][k2][s][k1] layout:
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
// templating — Real=float stores every working tensor in fp32, converting
// exactly once at the kernel boundary; the templated PDE line functions
// keep the hot sweeps conversion-free in both precisions. The optional
// half-window average (StpOutputs::qavg_half) must accumulate in the
// kernel's own layout and precision; it borrows the first favg tensor,
// which is written only after the time loop, so the workspace stays put.
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
#include "exastp/pde/pde_lines.h"
#include "exastp/perf/flop_count.h"
#include "exastp/tensor/transpose.h"

namespace exastp {

template <class Pde, class Real = double>
class AosoaStpT {
 public:
  static constexpr int kQuants = Pde::kQuants;
  static constexpr bool kF32 = !std::is_same_v<Real, double>;

  AosoaStpT(Pde pde, int order, Isa isa,
            NodeFamily family = NodeFamily::kGaussLegendre)
      : pde_(std::move(pde)),
        basis_(basis_tables(order, family)),
        isa_(isa),
        n_(order),
        aos_(order, kQuants, isa),
        aosoa_(order, kQuants, isa),
        cell_(aosoa_.size()),
        block_(FusionTuneTable::instance().block_planes(
            Pde::kName, order, kQuants, isa,
            kF32 ? Precision::kF32 : Precision::kF64)),
        diff_t_padded_(basis_.padded_diff_t(aosoa_.n_pad)) {
    EXASTP_CHECK_MSG(order >= 2, "STP needs at least 2 nodes per dimension");
    const std::size_t line = static_cast<std::size_t>(kQuants) * aosoa_.n_pad;
    q_a_.assign(cell_, 0.0);
    qavg_a_.assign(cell_, 0.0);
    favg0_.assign(cell_, 0.0);
    favg1_.assign(cell_, 0.0);
    favg2_.assign(cell_, 0.0);
    p_.assign(cell_, Real(0));
    ptemp_.assign(cell_, Real(0));
    flux_.assign(cell_, Real(0));
    gradq_.assign(cell_, Real(0));
    line_buf_.assign(line, Real(0));
    if constexpr (kF32) {
      qr_.assign(cell_, Real(0));
      qavg_r_.assign(cell_, Real(0));
      for (auto& f : favg_r_) f.assign(cell_, Real(0));
      diff_r_.resize(static_cast<std::size_t>(n_) * n_);
      vec_narrow(static_cast<long>(diff_r_.size()), basis_.diff.data(),
                 diff_r_.data());
      diff_t_padded_r_.resize(diff_t_padded_.size());
      vec_narrow(static_cast<long>(diff_t_padded_.size()),
                 diff_t_padded_.data(), diff_t_padded_r_.data());
    }
  }

  const AosLayout& layout() const { return aos_; }
  const AosoaLayout& internal_layout() const { return aosoa_; }
  int fused_block_planes() const { return block_; }

  std::size_t workspace_bytes() const {
    std::size_t bytes =
        (q_a_.size() + qavg_a_.size() + favg0_.size() + favg1_.size() +
         favg2_.size()) * sizeof(double) +
        (p_.size() + ptemp_.size() + flux_.size() + gradq_.size() +
         line_buf_.size()) * sizeof(Real);
    if constexpr (kF32) {
      bytes +=
          (qr_.size() + qavg_r_.size() + 3 * favg_r_[0].size()) * sizeof(Real);
    }
    return bytes;
  }

  void compute(const double* q, double dt,
               const std::array<double, 3>& inv_dx, const SourceTerm* source,
               const StpOutputs& out) {
    // Engine AoS -> kernel AoSoA at the boundary, AoSoA -> AoS on the way
    // out (Sec. V-B: the rest of the engine still expects AoS). The
    // half-window average borrows favg0_, which the favg stage overwrites
    // only after the half window has been transposed out.
    aos_to_aosoa(q, aos_, q_a_.data(), aosoa_);
    double* half_a = out.qavg_half != nullptr ? favg0_.data() : nullptr;
    taylor_stage(q_a_.data(), dt, inv_dx, source, qavg_a_.data(), half_a);
    if (half_a != nullptr) aosoa_to_aos(half_a, aosoa_, out.qavg_half, aos_);
    favg_stage(inv_dx, qavg_a_.data(),
               {favg0_.data(), favg1_.data(), favg2_.data()});
    aosoa_to_aos(qavg_a_.data(), aosoa_, out.qavg, aos_);
    aosoa_to_aos(favg0_.data(), aosoa_, out.favg[0], aos_);
    aosoa_to_aos(favg1_.data(), aosoa_, out.favg[1], aos_);
    aosoa_to_aos(favg2_.data(), aosoa_, out.favg[2], aos_);
  }

  /// Extension (paper Sec. V-B: the boundary transposes "could be avoided
  /// altogether by switching the whole engine to an AoSoA data layout"):
  /// runs the predictor directly on AoSoA buffers with no transposes.
  /// All pointers use this kernel's internal_layout(); q_aosoa must have
  /// zeroed padding lanes. For Real=float the AoSoA boundary stays double;
  /// narrowing/widening happens here.
  void compute_native(const double* q_aosoa, double dt,
                      const std::array<double, 3>& inv_dx,
                      const SourceTerm* source, double* qavg_aosoa,
                      const std::array<double*, 3>& favg_aosoa) {
    taylor_stage(q_aosoa, dt, inv_dx, source, qavg_aosoa, nullptr);
    favg_stage(inv_dx, qavg_aosoa, favg_aosoa);
  }

 private:
  /// The CK time loop on double AoSoA boundary buffers: qavg (and
  /// qavg_half when non-null). For Real=float the float half-window
  /// accumulator borrows favg_r_[0], written only in the favg stage.
  void taylor_stage(const double* q_aosoa, double dt,
                    const std::array<double, 3>& inv_dx,
                    const SourceTerm* source, double* qavg_aosoa,
                    double* qavg_half_aosoa) {
    if constexpr (kF32) {
      vec_narrow(static_cast<long>(cell_), q_aosoa, qr_.data());
      Real* half_r = qavg_half_aosoa != nullptr ? favg_r_[0].data() : nullptr;
      taylor_impl(qr_.data(), dt, inv_dx, source, qavg_r_.data(), half_r);
      vec_widen(static_cast<long>(cell_), qavg_r_.data(), qavg_aosoa);
      if (half_r != nullptr)
        vec_widen(static_cast<long>(cell_), half_r, qavg_half_aosoa);
    } else {
      taylor_impl(q_aosoa, dt, inv_dx, source, qavg_aosoa, qavg_half_aosoa);
    }
  }

  /// favg[d] recomputed from the averaged state of the preceding Taylor
  /// stage (for Real=float its float original, of which qavg_aosoa is the
  /// exact widening).
  void favg_stage(const std::array<double, 3>& inv_dx,
                  const double* qavg_aosoa,
                  const std::array<double*, 3>& favg_aosoa) {
    if constexpr (kF32) {
      favg_impl(inv_dx, qavg_r_.data(),
                {favg_r_[0].data(), favg_r_[1].data(), favg_r_[2].data()});
      for (int d = 0; d < 3; ++d)
        vec_widen(static_cast<long>(cell_), favg_r_[d].data(),
                  favg_aosoa[d]);
    } else {
      favg_impl(inv_dx, qavg_aosoa, favg_aosoa);
    }
  }

  void taylor_impl(const Real* q_aosoa, double dt,
                   const std::array<double, 3>& inv_dx,
                   const SourceTerm* source, Real* qavg_aosoa,
                   Real* qavg_half_aosoa) {
    const int n = n_;
    const auto coeff = time_average_coefficients(dt, n);
    const auto half = time_average_coefficients(0.5 * dt, n);
    FlopCounter& fc = FlopCounter::instance();

    vec_copy(static_cast<long>(cell_), q_aosoa, p_.data());
    vec_scale(isa_, static_cast<long>(cell_), Real(coeff[0]), q_aosoa,
              qavg_aosoa);
    if (qavg_half_aosoa != nullptr)
      vec_scale(isa_, static_cast<long>(cell_), Real(half[0]), q_aosoa,
                qavg_half_aosoa);

    for (int o = 0; o + 1 < n; ++o) {
      vec_zero(static_cast<long>(cell_), ptemp_.data());
      for (int d = 0; d < 3; ++d)
        apply_volume_dimension(d, Real(inv_dx[d]), p_.data(), ptemp_.data());
      if (source != nullptr) apply_source(ptemp_.data(), source, o, fc);
      vec_axpy(isa_, static_cast<long>(cell_), Real(coeff[o + 1]),
               ptemp_.data(), qavg_aosoa);
      if (qavg_half_aosoa != nullptr)
        vec_axpy(isa_, static_cast<long>(cell_), Real(half[o + 1]),
                 ptemp_.data(), qavg_half_aosoa);
      p_.swap(ptemp_);
      refresh_aosoa_param_rows(aosoa_, Pde::kVars, q_aosoa, p_.data());
    }

    refresh_aosoa_param_rows(aosoa_, Pde::kVars, q_aosoa, qavg_aosoa);
    if (qavg_half_aosoa != nullptr)
      refresh_aosoa_param_rows(aosoa_, Pde::kVars, q_aosoa, qavg_half_aosoa);
  }

  void favg_impl(const std::array<double, 3>& inv_dx, const Real* qavg_aosoa,
                 const std::array<Real*, 3>& favg_aosoa) {
    for (int d = 0; d < 3; ++d) {
      vec_zero(static_cast<long>(cell_), favg_aosoa[d]);
      apply_volume_dimension(d, Real(inv_dx[d]), qavg_aosoa, favg_aosoa[d]);
    }
  }

  const Real* diff_ptr() const {
    if constexpr (kF32) {
      return diff_r_.data();
    } else {
      return basis_.diff.data();
    }
  }

  const Real* diff_t_ptr() const {
    if constexpr (kF32) {
      return diff_t_padded_r_.data();
    } else {
      return diff_t_padded_.data();
    }
  }

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

  // The PDE line functions run at the kernel's ISA in the kernel's scalar
  // type, so both precisions sweep conversion-free at full SIMD width.
  void eval_flux_line(int d, const Real* src, std::size_t off) {
    const int np = aosoa_.n_pad;
    flux_line(isa_, pde_, src + off, d, flux_.data() + off, np, np);
  }

  void eval_ncp_line(int d, const Real* src, Real* dst, std::size_t off) {
    const int np = aosoa_.n_pad;
    const long line = static_cast<long>(kQuants) * np;
    ncp_line(isa_, pde_, src + off, gradq_.data() + off, d, line_buf_.data(),
             np, np);
    vec_add(isa_, line, line_buf_.data(), dst + off);
  }

  /// dst += inv_h * D_d F_d(src) + B_d(src, inv_h * D_d src), all AoSoA,
  /// fused slab by slab (see splitck_stp.h).
  void apply_volume_dimension(int d, Real inv_h, const Real* src, Real* dst) {
    const int cover = pde_flux_rows_end<Pde>(d);
    constexpr bool kNcpZero = pde_ncp_is_zero<Pde>();
    for (int lo = 0; lo < n_; lo += block_) {
      const int hi = std::min(n_, lo + block_);
      if (cover > 0) {
        // Vectorized user function: one call per (k3,k2) line, operating
        // on the full padded x-line (zero lanes are valid inputs by PDE
        // contract).
        for_slab_lines(d, lo, hi,
                       [&](std::size_t off) { eval_flux_line(d, src, off); });
        aosoa_derivative_slab(isa_, aosoa_, diff_ptr(), diff_t_ptr(), inv_h,
                              d, lo, hi, cover, flux_.data(), dst,
                              /*accumulate=*/true);
      }
      if constexpr (!kNcpZero) {
        aosoa_derivative_slab(isa_, aosoa_, diff_ptr(), diff_t_ptr(), inv_h,
                              d, lo, hi, aosoa_.m, src, gradq_.data(),
                              /*accumulate=*/false);
        for_slab_lines(d, lo, hi, [&](std::size_t off) {
          eval_ncp_line(d, src, dst, off);
        });
      }
    }
  }

  void apply_source(Real* dst, const SourceTerm* source, int o,
                    FlopCounter& fc) {
    const int n = n_;
    const double sdo = source->dt_derivatives[o];
    for (int k3 = 0; k3 < n; ++k3)
      for (int k2 = 0; k2 < n; ++k2) {
        const std::size_t line =
            (static_cast<std::size_t>(k3) * n + k2) * n;
        const std::size_t off = aosoa_.idx(k3, k2, source->quantity, 0);
        for (int k1 = 0; k1 < n; ++k1)
          dst[off + k1] += static_cast<Real>(source->psi[line + k1] * sdo);
      }
    fc.add(WidthClass::kScalar, 2ull * n * n * n);
  }

  Pde pde_;
  const BasisTables& basis_;
  Isa isa_;
  int n_;
  AosLayout aos_;
  AosoaLayout aosoa_;
  std::size_t cell_;
  int block_;
  AlignedVector diff_t_padded_;

  // Double AoSoA boundary buffers (the engine transposes land here).
  AlignedVector q_a_, qavg_a_, favg0_, favg1_, favg2_;
  // Real working tensors of the CK recursion + the NCP line scratch.
  AlignedVectorT<Real> p_, ptemp_, flux_, gradq_, line_buf_;
  // fp32-only: narrowed boundary tensors and float operator copies.
  AlignedVectorT<Real> qr_, qavg_r_;
  std::array<AlignedVectorT<Real>, 3> favg_r_;
  AlignedVectorT<Real> diff_r_, diff_t_padded_r_;
};

/// The paper's fp64 AoSoA kernel (the default precision).
template <class Pde>
using AosoaStp = AosoaStpT<Pde>;

}  // namespace exastp

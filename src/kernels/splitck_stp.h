// SplitCK STP kernel — dimension-split Cauchy-Kowalewsky scheme (paper
// Sec. IV). The recursion, its fp32 boundary and the favg recomputation
// are SplitCkDriver's (splitck_driver.h); this file holds what is SplitCK's
// own: the engine's padded AoS as working layout, and a volume sweep of
// pointwise user functions and masked derivative GEMMs. The driver's
// half-window average (StpOutputs::qavg_half) serves clustered LTS, so the
// coarse side of a cluster boundary needs no second predictor run.
//
// Three extensions over the paper's Fig. 5 rendition:
//  * Fused cache blocking: each dimension sweep runs slab by slab (k3
//    planes for x/y, k2 pencils for z) — pointwise flux, its derivative
//    GEMM, and the NCP stage of one slab complete before the next starts,
//    so the flux block is consumed while cache-resident. The slab size
//    comes from FusionTuneTable (autotunable; bitwise- and FLOP-neutral).
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

#include <algorithm>

#include "exastp/basis/basis_tables.h"
#include "exastp/common/check.h"
#include "exastp/kernels/derivative_ops.h"
#include "exastp/kernels/fusion_autotune.h"
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
        n_(order),
        aos_(order, kQuants, isa),
        driver_(aos_, Pde::kVars, isa),
        block_(FusionTuneTable::instance().block_planes(
            Pde::kName, order, kQuants, isa, precision_of<Real>())) {
    EXASTP_CHECK_MSG(order >= 2, "STP needs at least 2 nodes per dimension");
    const AlignedVector& diff = basis_tables(order, family).diff;
    diff_.assign(diff.begin(), diff.end());
    flux_.assign(aos_.size(), Real(0));
    gradq_.assign(aos_.size(), Real(0));
  }

  const AosLayout& layout() const { return aos_; }

  std::size_t workspace_bytes() const {
    return driver_.workspace_bytes() +
           (flux_.size() + gradq_.size()) * sizeof(Real);
  }

  void compute(const double* q, double dt,
               const std::array<double, 3>& inv_dx, const SourceTerm* source,
               const StpOutputs& out) {
    driver_.run(*this, InPlaceBoundary{}, q, dt, inv_dx, source, out);
  }

 private:
  friend class SplitCkDriver<Real, AosLayout>;

  /// Iterates `fn(node)` over the nodes of slab [lo, hi): k3 planes are
  /// contiguous; a k2 pencil repeats once per k3.
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

  /// Reports a pointwise sweep over slab [lo, hi) to an installed
  /// recorder: run by run (one per slab, or one k2 pencil per k3), each
  /// operand's nodes in turn.
  template <class... Ptr>
  void record_slab(int d, int lo, int hi, Ptr... operands) const {
    AccessRecorder* rec = AccessRecorder::thread_instance();
    if (rec == nullptr) return;
    const std::size_t nn = static_cast<std::size_t>(n_) * n_;
    const std::size_t mp = aos_.m_pad;
    if (d < 2) {
      (rec->range(operands + lo * nn * mp, (hi - lo) * nn * mp), ...);
    } else {
      for (int k3 = 0; k3 < n_; ++k3)
        (rec->range(operands + (k3 * nn + lo * n_) * mp, (hi - lo) * n_ * mp),
         ...);
    }
  }

  /// The driver's sweep: dst += inv_h * D_d F_d(src) + B_d(src, inv_h *
  /// D_d src), fused slab by slab so the flux block is still cache-resident
  /// at its GEMM. The PDE pointwise functions are templated on the scalar
  /// type, so both precisions call them on the working tensors directly.
  void volume(int d, Real inv_h, const Real* src, Real* dst) {
    const int mp = aos_.m_pad;
    const int cover = pde_flux_rows_end<Pde>(d);
    const std::size_t nn = static_cast<std::size_t>(n_) * n_;
    FlopCounter& fc = FlopCounter::instance();
    for (int lo = 0; lo < n_; lo += block_) {
      const int hi = std::min(n_, lo + block_);
      const std::size_t slab_nodes = static_cast<std::size_t>(hi - lo) * nn;
      if (cover > 0) {
        // flux = F_d(src) — pointwise user function, scalar.
        for_slab_nodes(d, lo, hi, [&](std::size_t k) {
          pde_.flux(src + k * mp, d, flux_.data() + k * mp);
        });
        fc.add(WidthClass::kScalar, slab_nodes * Pde::kFluxFlops);
        record_slab(d, lo, hi, src, flux_.data());
        // dst += inv_h * D_d flux, masked past the PDE's flux rows.
        aos_derivative_slab(isa_, aos_, diff_.data(), inv_h, d, lo, hi,
                            cover, flux_.data(), dst, /*accumulate=*/true);
      }
      if constexpr (!pde_ncp_is_zero<Pde>()) {
        // gradQ = inv_h * D_d src; dst += B_d(src) gradQ (pointwise).
        aos_derivative_slab(isa_, aos_, diff_.data(), inv_h, d, lo, hi, mp,
                            src, gradq_.data(), /*accumulate=*/false);
        for_slab_nodes(d, lo, hi, [&](std::size_t k) {
          pde_.ncp(src + k * mp, gradq_.data() + k * mp, d, ncp_tmp_);
          for (int s = 0; s < kQuants; ++s) dst[k * mp + s] += ncp_tmp_[s];
        });
        fc.add(WidthClass::kScalar,
               slab_nodes * (Pde::kNcpFlops + kQuants));
        record_slab(d, lo, hi, src, gradq_.data(), dst);
      }
    }
  }

  Pde pde_;
  Isa isa_;
  int n_;
  AosLayout aos_;
  SplitCkDriver<Real, AosLayout> driver_;
  int block_;
  AlignedVectorT<Real> diff_;  // the derivative operator in Real
  AlignedVectorT<Real> flux_, gradq_;
  Real ncp_tmp_[kQuants] = {};
};

/// The paper's fp64 SplitCK kernel (the default precision).
template <class Pde>
using SplitCkStp = SplitCkStpT<Pde>;

}  // namespace exastp

// The dimension-split Cauchy-Kowalewsky driver (paper Sec. IV, Fig. 5)
// shared by SplitCK, AoSoA SplitCK (Sec. V) and the rejected SoA-UF
// transpose scheme (Sec. V-A). The three differ only in the working layout
// of their tensors and in how one dimension's volume term is swept; the
// recursion is stated here once:
//
//  * entry: the engine's state is transposed into the working layout and,
//    for Real=float, narrowed once;
//  * the Taylor loop: instead of keeping the whole space-time predictor
//    alive, only p = d^o q/dt^o and its successor ptemp exist — O(N^d m)
//    instead of O(N^{d+1} m d), the L2-cache fix of Sec. IV-A. Each
//    iteration sums the three dimension sweeps and the point source into
//    ptemp, folds it into qavg (and qavg_half) as soon as it exists, and
//    restores the parameter rows the next sweep's user functions read;
//  * the favg stage: favg[d] is recomputed from the averaged state after
//    the loop, which is legal because the scheme is linear and qavg's
//    parameter rows are exact. This is the paper's "almost one iteration"
//    of extra work, which vanishes relative to the N-order loop at high
//    order. Each favg[d] is formed in p, which the loop has finished with,
//    handed out only if requested, and added into qnew in the working
//    layout; the request decides only where favg[d] goes. So favg need
//    not leave the kernel at all: the solver asks for qnew only;
//  * exit: widen once (Real=float) and transpose back.
//
// A variant reaches the driver as two compile-time policies:
//
//   Sweep::volume(int d, Real inv_h, const Real* src, Real* dst)
//       dst += inv_h D_d F_d(src) + B_d(src, inv_h D_d src), booking its
//       own FLOPs;
//   Boundary::enter(const double* q) -> const double*
//       the state in the working layout;
//   Boundary::stage(const StpOutputs& out) -> StpOutputs
//       double working-layout targets for out's qavg, qavg_half and qnew;
//       favg[d] is staged only by a boundary that works in place (it is
//       the caller's buffer, and fp64 forms favg[d] there instead of in
//       p), else nullptr;
//   Boundary::leave(const double* working, double* out)
//       one working-layout tensor back into the caller's layout.
//
// A staged half-window average may borrow the qnew target, and the fp32
// half-window accumulator has its own float tensor: the driver hands the
// half window out before the favg stage writes qnew. An fp32 kernel
// widens a favg[d] handout into its staged target, or else into the qavg
// target, which receives qavg only at exit.
#pragma once

#include <array>
#include <type_traits>

#include "exastp/common/aligned.h"
#include "exastp/common/taylor.h"
#include "exastp/gemm/vecops.h"
#include "exastp/kernels/stp_common.h"

namespace exastp {

/// Boundary of a kernel whose caller already speaks its working layout:
/// the driver reads q and writes the outputs in place.
struct InPlaceBoundary {
  const double* enter(const double* q) const { return q; }
  StpOutputs stage(const StpOutputs& out) const { return out; }
  void leave(const double*, double*) const {}
};

template <class Real, class Layout>
class SplitCkDriver {
  static constexpr bool kF32 = !std::is_same_v<Real, double>;

 public:
  SplitCkDriver(const Layout& layout, int vars, Isa isa)
      : layout_(layout), vars_(vars), isa_(isa), cell_(layout.size()) {
    p_.assign(cell_, Real(0));
    ptemp_.assign(cell_, Real(0));
    if constexpr (kF32) {
      qr_.assign(cell_, Real(0));
      qavg_r_.assign(cell_, Real(0));
      half_r_.assign(cell_, Real(0));
    }
  }

  /// Bytes of the recursion tensors and the fp32 staging.
  std::size_t workspace_bytes() const {
    return (p_.size() + ptemp_.size() + qr_.size() + qavg_r_.size() +
            half_r_.size()) *
           sizeof(Real);
  }

  template <class Sweep, class Boundary>
  void run(Sweep& sweep, Boundary&& boundary, const double* q, double dt,
           const std::array<double, 3>& inv_dx, const SourceTerm* source,
           const StpOutputs& out) {
    const StpOutputs staged = boundary.stage(out);
    const double* qd = boundary.enter(q);
    const Real* qr = narrow(qd);
    Real* qavg = working(staged.qavg, qavg_r_);
    Real* half = staged.qavg_half != nullptr
                     ? working(staged.qavg_half, half_r_)
                     : nullptr;
    taylor(sweep, qr, dt, inv_dx, source, qavg, half);
    if (half != nullptr) {
      widen(half, staged.qavg_half);
      boundary.leave(staged.qavg_half, out.qavg_half);
    }
    // favg[d] = D_d F_d(qavg) + B_d(qavg) D_d qavg; qnew = q + dt favg[0]
    // + dt favg[1] + dt favg[2], one dimension at a time.
    for (int d = 0; d < 3; ++d) {
      Real* f = staged.favg[d] != nullptr ? working(staged.favg[d], p_)
                                          : p_.data();
      vec_zero(static_cast<long>(cell_), f);
      sweep.volume(d, Real(inv_dx[d]), qavg, f);
      if (out.favg[d] != nullptr) {
        if constexpr (kF32) {
          double* target =
              staged.favg[d] != nullptr ? staged.favg[d] : staged.qavg;
          widen(f, target);
          boundary.leave(target, out.favg[d]);
        } else {
          boundary.leave(f, out.favg[d]);
        }
      }
      if (staged.qnew != nullptr)
        add_volume_update(cell_, dt, d == 0 ? qd : staged.qnew, f,
                          staged.qnew);
    }
    widen(qavg, staged.qavg);
    boundary.leave(staged.qavg, out.qavg);
    if (staged.qnew != nullptr) boundary.leave(staged.qnew, out.qnew);
  }

 private:
  template <class Sweep>
  void taylor(Sweep& sweep, const Real* q, double dt,
              const std::array<double, 3>& inv_dx, const SourceTerm* source,
              Real* qavg, Real* qavg_half) {
    const int n = layout_.n;
    const long cell = static_cast<long>(cell_);
    const auto coeff = time_average_coefficients(dt, n);
    const auto half = time_average_coefficients(0.5 * dt, n);

    // qavg starts with the o = 0 term: coeff[0] * q = q.
    vec_copy(cell, q, p_.data());
    vec_scale(isa_, cell, Real(coeff[0]), q, qavg);
    if (qavg_half != nullptr)
      vec_scale(isa_, cell, Real(half[0]), q, qavg_half);

    for (int o = 0; o + 1 < n; ++o) {
      vec_zero(cell, ptemp_.data());
      for (int d = 0; d < 3; ++d)
        sweep.volume(d, Real(inv_dx[d]), p_.data(), ptemp_.data());
      if (source != nullptr)
        add_source_derivative(layout_, *source, o, ptemp_.data());
      vec_axpy(isa_, cell, Real(coeff[o + 1]), ptemp_.data(), qavg);
      if (qavg_half != nullptr)
        vec_axpy(isa_, cell, Real(half[o + 1]), ptemp_.data(), qavg_half);
      p_.swap(ptemp_);
      refresh_param_rows(layout_, vars_, q, p_.data());
    }

    refresh_param_rows(layout_, vars_, q, qavg);
    if (qavg_half != nullptr)
      refresh_param_rows(layout_, vars_, q, qavg_half);
  }

  const Real* narrow(const double* q) {
    if constexpr (kF32) {
      vec_narrow(static_cast<long>(cell_), q, qr_.data());
      return qr_.data();
    } else {
      return q;
    }
  }

  /// The tensor the scheme computes a staged output in: the target itself
  /// in fp64, the float staging tensor in fp32.
  static Real* working([[maybe_unused]] double* target,
                       [[maybe_unused]] AlignedVectorT<Real>& staging) {
    if constexpr (kF32) {
      return staging.data();
    } else {
      return target;
    }
  }

  void widen([[maybe_unused]] const Real* src,
             [[maybe_unused]] double* target) const {
    if constexpr (kF32) vec_widen(static_cast<long>(cell_), src, target);
  }

  Layout layout_;
  int vars_;
  Isa isa_;
  std::size_t cell_;
  AlignedVectorT<Real> p_, ptemp_;
  // fp32 only: the narrowed state and the float averages.
  AlignedVectorT<Real> qr_, qavg_r_, half_r_;
};

}  // namespace exastp

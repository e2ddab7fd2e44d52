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
//    run line by line on VECTLENGTH = n_pad lanes and vectorize at the full
//    SIMD width (Sec. V-C / Fig. 8) — this removes the ~10% scalar tail the
//    AoS variants keep. The n^2 lines of a cell are equally spaced, so one
//    flux-line call covers the cell in every dimension's sweep, as one
//    strided-batch GEMM call covers each derivative.
//
// The NCP stage stays line by line: B_d(q) * grad q goes into a one-line
// buffer that stays in L1 and is added to the sweep's output at once.
// Writing a run of lines into the consumed flux tensor instead costs a
// write-allocate and a re-read from L2 per line: on curvilinear elastic
// (AVX-512 Xeon) it took 1-18% longer in fp64 at orders 6-11, though up to
// 8% less in fp32. PDEs whose NCP is zero skip the stage and get no buffer.
//
// The rest of the engine speaks AoS, so the state is transposed to AoSoA on
// entry and outputs back on exit, as the paper does ("the performance impact
// of these transpositions is minimal compared to the cost of the kernel").
// The kernel forms the volume update qnew itself, in AoSoA, and projects
// its averages onto the face traces in AoSoA at the ISA width (face.h), so
// the solver's request (traces, traces_half under LTS, qnew) costs one
// transpose in and one out, each an ISA-width register-block transpose
// (tensor/transpose.h). qavg, qavg_half and favg[d] leave only when a
// caller requests them.
//
// Shares the SplitCK extensions (see splitck_stp.h): whole-cell dimension
// sweeps, PDE-declared zero-block masking of the flux derivative GEMMs and
// NCP-stage skipping, and Real templating — the templated PDE line
// functions keep the hot sweeps conversion-free in both precisions.
#pragma once

#include "exastp/basis/basis_tables.h"
#include "exastp/common/check.h"
#include "exastp/kernels/derivative_ops.h"
#include "exastp/kernels/splitck_driver.h"
#include "exastp/pde/pde_base.h"
#include "exastp/pde/pde_lines.h"
#include "exastp/tensor/transpose.h"

namespace exastp {

/// The AoS engine boundary of the AoSoA kernel: the state is transposed in
/// on entry; qavg and qnew are staged in double AoSoA tensors, and what the
/// caller requested is transposed out on exit, all at the kernel's ISA
/// width. The half-window average borrows the qnew staging. favg is not
/// staged: the driver transposes a requested favg[d] out of its recursion
/// tensor.
class AosoaBoundary {
 public:
  AosoaBoundary(const AosLayout& aos, const AosoaLayout& aosoa, Isa isa)
      : aos_(aos), aosoa_(aosoa), isa_(isa) {
    q_.assign(aosoa.size(), 0.0);
    qavg_.assign(aosoa.size(), 0.0);
    qnew_.assign(aosoa.size(), 0.0);
  }

  std::size_t workspace_bytes() const {
    return 3 * aosoa_.size() * sizeof(double);
  }

  const double* enter(const double* q) {
    aos_to_aosoa(isa_, q, aos_, q_.data(), aosoa_);
    return q_.data();
  }
  StpOutputs stage(const StpOutputs& out) {
    StpOutputs staged;
    staged.qavg = qavg_.data();
    if (out.qavg_half != nullptr || out.traces_half != nullptr)
      staged.qavg_half = qnew_.data();
    if (out.qnew != nullptr) staged.qnew = qnew_.data();
    return staged;
  }
  void leave(const double* staged, double* out) const {
    aosoa_to_aos(isa_, staged, aosoa_, out, aos_);
  }
  /// The qavg staging, which the native entry point stages qavg in too.
  double* qavg_staging() { return qavg_.data(); }

 private:
  AosLayout aos_;
  AosoaLayout aosoa_;
  Isa isa_;
  AlignedVector q_, qavg_, qnew_;
};

template <class Pde, class Real = double>
class AosoaStpT {
 public:
  static constexpr int kQuants = Pde::kQuants;
  static constexpr bool kF64 = std::is_same_v<Real, double>;

  AosoaStpT(Pde pde, int order, Isa isa,
            NodeFamily family = NodeFamily::kGaussLegendre)
      : pde_(std::move(pde)),
        isa_(isa),
        aos_(order, kQuants, isa),
        aosoa_(order, kQuants, isa),
        boundary_(aos_, aosoa_, isa),
        driver_(aosoa_, Pde::kVars, isa, basis_tables(order, family)) {
    EXASTP_CHECK_MSG(order >= 2, "STP needs at least 2 nodes per dimension");
    const BasisTables& basis = basis_tables(order, family);
    const AlignedVector diff_t = basis.padded_diff_t(aosoa_.n_pad);
    diff_.assign(basis.diff.begin(), basis.diff.end());
    diff_t_.assign(diff_t.begin(), diff_t.end());
    flux_.assign(aosoa_.size(), Real(0));
    gradq_.assign(aosoa_.size(), Real(0));
    if constexpr (!pde_ncp_is_zero<Pde>())
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
  /// q_aosoa and every output in out_aosoa use this kernel's
  /// internal_layout(); q_aosoa must have zeroed padding lanes. The traces
  /// are the same FaceLayout traces as compute()'s. For Real=float the
  /// AoSoA boundary stays double; the driver narrows and widens as in
  /// compute().
  void compute_native(const double* q_aosoa, double dt,
                      const std::array<double, 3>& inv_dx,
                      const SourceTerm* source, const StpOutputs& out_aosoa) {
    driver_.run(*this,
                InPlaceBoundary{kF64 ? boundary_.qavg_staging() : nullptr,
                                aosoa_.size()},
                q_aosoa, dt, inv_dx, source, out_aosoa);
  }

 private:
  friend class SplitCkDriver<Real, AosoaLayout>;

  /// The driver's sweep: dst += inv_h * D_d F_d(src) + B_d(src, inv_h *
  /// D_d src), all AoSoA, each stage over the whole cell (see
  /// splitck_stp.h). The PDE line functions run at the kernel's ISA in the
  /// kernel's scalar type.
  void volume(int d, Real inv_h, const Real* src, Real* dst) {
    const int np = aosoa_.n_pad;
    const long line = static_cast<long>(kQuants) * np;
    const int lines = aosoa_.n * aosoa_.n;
    const int cover = pde_flux_rows_end<Pde>(d);
    if (cover > 0) {
      // Vectorized user function: one call over the cell's x-lines, each
      // on the full padded line (zero lanes are valid inputs by PDE
      // contract).
      flux_line(isa_, pde_, src, d, flux_.data(), np, np, lines, line);
      aosoa_derivative(isa_, aosoa_, diff_.data(), diff_t_.data(), inv_h, d,
                       flux_.data(), dst, /*accumulate=*/true, cover);
    }
    if constexpr (!pde_ncp_is_zero<Pde>()) {
      aosoa_derivative(isa_, aosoa_, diff_.data(), diff_t_.data(), inv_h, d,
                       src, gradq_.data(), /*accumulate=*/false);
      // Line by line through the L1-resident buffer (see the header).
      for (int l = 0; l < lines; ++l) {
        const std::size_t off = static_cast<std::size_t>(l) * line;
        ncp_line(isa_, pde_, src + off, gradq_.data() + off, d,
                 line_buf_.data(), np, np, 1, 0);
        vec_add(isa_, line, line_buf_.data(), dst + off);
      }
    }
  }

  Pde pde_;
  Isa isa_;
  AosLayout aos_;
  AosoaLayout aosoa_;
  AosoaBoundary boundary_;
  SplitCkDriver<Real, AosoaLayout> driver_;
  // The derivative operator and its zero-padded transpose, in Real.
  AlignedVectorT<Real> diff_, diff_t_;
  AlignedVectorT<Real> flux_, gradq_, line_buf_;
};

/// The paper's fp64 AoSoA kernel (the default precision).
template <class Pde>
using AosoaStp = AosoaStpT<Pde>;

}  // namespace exastp

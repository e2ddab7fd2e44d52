// Shared definitions for the Space-Time Predictor kernel variants.
//
// Kernel contract (all variants):
//
//   inputs   q        — cell DOFs at t_n in padded AoS layout
//            dt       — time step
//            inv_dx   — 1/h per dimension (reference-to-physical scaling)
//            source   — optional point source prepared for this cell
//   outputs  qavg     — time-AVERAGED state (1/dt) * integral of q over
//                       [t_n, t_n+dt]; constant parameter rows pass through
//                       unchanged so flux/ncp of qavg stay well defined
//            favg[d]  — time-averaged volume fluctuation per dimension:
//                       (1/dt) * integral of (d/dx_d F_d(q) + B_d dq/dx_d)
//            qavg_half — optional (nullptr = not requested): the time
//                       average over the first half window [t_n,
//                       t_n + dt/2]. The Cauchy-Kowalewsky time derivatives
//                       do not depend on dt, so the kernel folds the same
//                       derivative tensors into a second accumulator with
//                       the weights time_average_coefficients(dt/2, n),
//                       in the same pass. The result is bit-identical to
//                       the qavg of a separate run at dt/2 (same vecop
//                       sequence, storage precision, parameter-row refresh
//                       and exit widen/transpose), requesting it leaves
//                       qavg and favg bit-identical, and it needs no
//                       workspace beyond workspace_bytes(): kernels whose
//                       accumulator must live in their own layout or
//                       precision borrow a favg tensor, which is written
//                       only after the time loop.
//   Every output the caller passes is overwritten in full, padding
//   included, so callers need not clear the buffers between calls.
//
// The corrector then computes q^{n+1} = q + dt * sum_d favg[d] + surface
// terms built from qavg's face traces (see face.h and
// solver/ader_dg_solver.cpp). All buffers use the layout returned by
// StpKernel::layout; padding lanes are kept at exactly zero.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>

#include "exastp/common/aligned.h"
#include "exastp/common/simd.h"
#include "exastp/pde/point_source.h"
#include "exastp/perf/flop_count.h"
#include "exastp/tensor/layout.h"

namespace exastp {

/// The four kernel variants of the paper, in the order they are introduced.
enum class StpVariant {
  kGeneric,       ///< Sec. II-B / Fig. 1: scalar reference implementation
  kLog,           ///< Sec. III: AoS + Loop-over-GEMM
  kSplitCk,       ///< Sec. IV / Fig. 5: dimension-split low-footprint CK
  kAosoaSplitCk,  ///< Sec. V: hybrid layout + vectorized user functions
  kSoaUfSplitCk,  ///< Sec. V-A: the REJECTED per-call AoS<->SoA transpose
                  ///< scheme, kept as a measured ablation variant
};

std::string variant_name(StpVariant v);

/// Storage precision of a kernel's internal DOF/flux/update tensors. The
/// engine-facing buffers (q/qavg/favg) are always double; an fp32 kernel
/// converts once at entry and once at exit, and everything the *solver*
/// reduces over those outputs (stable_dt, norms, energy) accumulates in
/// fp64 regardless — the "fp32 storage / fp64 accumulation" scheme the
/// memory-bound sweeps want (halved DOF bytes, near-2x bandwidth win).
/// Only the SplitCK-family variants (splitck, aosoa_splitck) implement
/// kF32; requesting it for the others throws in make_stp_kernel.
enum class Precision {
  kF64,  ///< double storage everywhere (the paper's baseline)
  kF32,  ///< float kernel-internal storage, double kernel boundary
};

/// "fp64" / "fp32" — the tokens of the precision= config key.
std::string precision_name(Precision p);

/// Parses "fp64" (alias "double") / "fp32" (alias "float" / "single");
/// throws on unknown names.
Precision parse_precision(const std::string& name);

/// The precision of a kernel whose internal tensors store Real.
template <class Real>
constexpr Precision precision_of() {
  return std::is_same_v<Real, float> ? Precision::kF32 : Precision::kF64;
}

/// Copies the parameter rows (s in [vars, m)) of the original state into a
/// derivative tensor. The time derivatives of the constant material/geometry
/// parameters are zero, but the PDE user functions read parameters from the
/// node they are called on (e.g. 1/rho), so every tensor handed to
/// flux()/ncp() must carry the *original* parameter values. All kernel
/// variants maintain this invariant; qavg's parameter rows are restored the
/// same way after the Taylor accumulation, because the Taylor sum scales
/// them and the corrector and the SplitCK favg recomputation evaluate
/// flux(qavg) (see splitck_driver.h).
template <class Real>
inline void refresh_param_rows(const AosLayout& aos, int vars, const Real* q,
                               Real* dst) {
  if (vars == aos.m) return;
  const std::size_t nodes =
      static_cast<std::size_t>(aos.n) * aos.n * aos.n;
  for (std::size_t k = 0; k < nodes; ++k)
    for (int s = vars; s < aos.m; ++s)
      dst[k * aos.m_pad + s] = q[k * aos.m_pad + s];
}

/// Same invariant for AoSoA tensors (padding lanes included).
template <class Real>
inline void refresh_param_rows(const AosoaLayout& aosoa, int vars,
                               const Real* q, Real* dst) {
  if (vars == aosoa.m) return;
  for (int k3 = 0; k3 < aosoa.n; ++k3)
    for (int k2 = 0; k2 < aosoa.n; ++k2)
      for (int s = vars; s < aosoa.m; ++s) {
        const std::size_t off = aosoa.idx(k3, k2, s, 0);
        for (int k1 = 0; k1 < aosoa.n_pad; ++k1)
          dst[off + k1] = q[off + k1];
      }
}

/// Flat index of quantity s at node (k3, k2, k1) in either working layout.
inline std::size_t node_quantity_index(const AosLayout& aos, int k3, int k2,
                                       int k1, int s) {
  return aos.idx(k3, k2, k1, s);
}
inline std::size_t node_quantity_index(const AosoaLayout& aosoa, int k3,
                                       int k2, int k1, int s) {
  return aosoa.idx(k3, k2, s, k1);
}

/// Adds the o-th time derivative of a point source, psi_k * d^o s/dt^o, to
/// the source quantity of every node of `dst` and books its 2 n^3 scalar
/// FLOPs. Every kernel variant calls this once per Taylor order.
template <class Layout, class Real>
inline void add_source_derivative(const Layout& layout,
                                  const SourceTerm& source, int o, Real* dst) {
  const int n = layout.n;
  const double sdo = source.dt_derivatives[o];
  const double* psi = source.psi;
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1)
        dst[node_quantity_index(layout, k3, k2, k1, source.quantity)] +=
            static_cast<Real>(*psi++ * sdo);
  FlopCounter::instance().add(WidthClass::kScalar, 2ull * n * n * n);
}

/// The kernel outputs (see the contract at the top of this file).
struct StpOutputs {
  double* qavg = nullptr;
  std::array<double*, 3> favg{};
  /// Optional half-window average [t_n, t_n + dt/2]; nullptr skips it.
  double* qavg_half = nullptr;
};

/// Type-erased handle to a configured kernel instance. Create through
/// make_stp_kernel (registry.h); reuse across cells — the workspace is
/// allocated once at construction time. The workspace makes a kernel
/// stateful per *invocation*, so one instance must never run on two
/// threads at once; the parallel steppers fork() one clone per thread.
class StpKernel {
 public:
  using RunFn = std::function<void(const double* q, double dt,
                                   const std::array<double, 3>& inv_dx,
                                   const SourceTerm* source,
                                   const StpOutputs& out)>;
  using ForkFn = std::function<StpKernel()>;

  StpKernel() = default;
  StpKernel(StpVariant variant, AosLayout layout, Isa isa,
            std::size_t footprint, RunFn run,
            Precision precision = Precision::kF64)
      : variant_(variant), precision_(precision), isa_(isa), layout_(layout),
        workspace_bytes_(footprint), run_(std::move(run)) {}

  StpVariant variant() const { return variant_; }
  /// Storage precision of the kernel's internal tensors; the run()
  /// boundary is always double.
  Precision precision() const { return precision_; }
  /// Engine-facing AoS layout of q/qavg/favg buffers. The generic variant
  /// uses the unpadded layout (m_pad == m), the optimized ones pad to the
  /// ISA width.
  const AosLayout& layout() const { return layout_; }
  /// ISA the kernel's code paths dispatch to; the solver runs its face
  /// traces at the same width. The generic variant is scalar (kScalar).
  Isa isa() const { return isa_; }
  /// Bytes of kernel-internal scratch (the memory-footprint metric of
  /// Sec. IV-A; excludes the engine-owned in/out buffers).
  std::size_t workspace_bytes() const { return workspace_bytes_; }

  void run(const double* q, double dt, const std::array<double, 3>& inv_dx,
           const SourceTerm* source, const StpOutputs& out) const {
    run_(q, dt, inv_dx, source, out);
  }

  explicit operator bool() const { return static_cast<bool>(run_); }

  /// Installed by make_stp_kernel: rebuilds an equivalent kernel with an
  /// independent workspace (same PDE/variant/order/ISA).
  void set_fork(ForkFn fork) { fork_ = std::move(fork); }
  bool can_fork() const { return static_cast<bool>(fork_); }
  /// A fresh clone safe to run on another thread. Throws when the kernel
  /// was hand-built without a fork factory.
  StpKernel fork() const;

 private:
  StpVariant variant_ = StpVariant::kGeneric;
  Precision precision_ = Precision::kF64;
  Isa isa_ = Isa::kScalar;
  AosLayout layout_;
  std::size_t workspace_bytes_ = 0;
  RunFn run_;
  ForkFn fork_;
};

}  // namespace exastp

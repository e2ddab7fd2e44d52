// Shared definitions for the Space-Time Predictor kernel variants.
//
// Kernel contract (all variants):
//
//   inputs   q        — cell DOFs at t_n in padded AoS layout
//            dt       — time step
//            inv_dx   — 1/h per dimension (reference-to-physical scaling)
//            source   — optional point source prepared for this cell
//   outputs (each optional: nullptr = not requested)
//            traces   — the time average's six face traces (face.h): six
//                       FaceLayout(layout) traces in face.h's slot order,
//                       face f = 2 dir + side. They are byte for byte
//                       project_faces(isa, layout, basis, qavg) of the
//                       qavg the same run would hand out, padding lanes
//                       included: each variant projects its own working
//                       tensor (the AoSoA kernel in its own layout, fp32
//                       kernels from their float averages), with the
//                       projection's chain and its FLOP booking. This and
//                       qnew are what the solver reads
//            traces_half — the same for the half-window average qavg_half
//            qnew     — the cell update's volume part plus the source:
//                       q + dt * favg[0] + dt * favg[1] + dt * favg[2],
//                       each element summed left to right in double with
//                       every product rounded before its add
//                       (add_volume_update), then, when a source is given,
//                       psi[k] * integral added to its quantity
//                       (add_source_integral)
//            qavg     — the time-AVERAGED state (1/dt) * integral of q
//                       over [t_n, t_n+dt]; constant parameter rows pass
//                       through unchanged so flux/ncp of qavg stay well
//                       defined
//            favg[d]  — per dimension: the time-averaged volume
//                       fluctuation (1/dt) * integral of (d/dx_d F_d(q) +
//                       B_d dq/dx_d)
//            qavg_half — the time average over the first half window
//                       [t_n, t_n + dt/2]. The Cauchy-Kowalewsky time
//                       derivatives do not depend on dt, so the kernel
//                       folds the same derivative tensors into a second
//                       accumulator with the weights
//                       time_average_coefficients(dt/2, n), in the same
//                       pass. The result is bit-identical to the qavg of a
//                       separate run at dt/2 (same vecop sequence, storage
//                       precision, parameter-row refresh and exit
//                       widen/transpose).
//   Every kernel forms qavg, all three favg[d] and qnew's terms whatever
//   is requested; a request only decides what is handed out, so
//   requesting any output leaves every other output's bits alone. No
//   request needs workspace beyond workspace_bytes(): an unrequested
//   average lives in scratch the kernel has finished with or in its own
//   staging, and a half window the traces need but the caller does not
//   may borrow the qnew target. The in-place fp64 kernels (SplitCK,
//   SoA-UF) need that borrow, so there traces_half without qavg_half
//   needs qnew (else the run throws). Every output the caller passes is
//   overwritten in full, padding included, so callers need not clear the
//   buffers between calls.
//
// The corrector then adds the surface terms built from the traces to qnew
// (see face.h and solver/ader_dg_solver.cpp). All cell buffers use the
// layout returned by StpKernel::layout; padding lanes are kept at exactly
// zero.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "exastp/common/aligned.h"
#include "exastp/common/simd.h"
#include "exastp/common/taylor.h"
#include "exastp/pde/point_source.h"
#include "exastp/perf/access_recorder.h"
#include "exastp/perf/flop_count.h"
#include "exastp/tensor/layout.h"

namespace exastp {

/// The kernel variants: the paper's four, in the order it introduces
/// them, and the measured ablation of the scheme it rejects.
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
/// engine-facing buffers (q and every output) are always double; an fp32
/// kernel converts once at entry and once at exit, and everything the *solver*
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

/// Copies the parameter rows (s in [vars, m)) of the original state into a
/// derivative tensor. The time derivatives of the constant material/geometry
/// parameters are zero, but the PDE user functions read parameters from the
/// node they are called on (e.g. 1/rho), so every tensor handed to
/// flux()/ncp() must carry the *original* parameter values. All kernel
/// variants maintain this invariant; qavg's parameter rows are restored the
/// same way after the Taylor accumulation, because the Taylor sum scales
/// them and the corrector and the SplitCK favg recomputation evaluate
/// flux(qavg) (see splitck_driver.h).
/// Reports the quantity rows [s0, s1) of every node of a tensor to an
/// installed recorder: one run per node (AoS) or per x-line (AoSoA).
template <class Real>
inline void record_quantity_rows(AccessRecorder& rec, const AosLayout& aos,
                                 int s0, int s1, const Real* p) {
  rec.rows(p + s0, static_cast<std::size_t>(aos.n) * aos.n * aos.n,
           static_cast<std::size_t>(s1 - s0), aos.m_pad);
}
template <class Real>
inline void record_quantity_rows(AccessRecorder& rec,
                                 const AosoaLayout& aosoa, int s0, int s1,
                                 const Real* p) {
  rec.rows(p + static_cast<std::size_t>(s0) * aosoa.n_pad,
           static_cast<std::size_t>(aosoa.n) * aosoa.n,
           static_cast<std::size_t>(s1 - s0) * aosoa.n_pad,
           static_cast<std::ptrdiff_t>(aosoa.m) * aosoa.n_pad);
}

template <class Real>
inline void refresh_param_rows(const AosLayout& aos, int vars, const Real* q,
                               Real* dst) {
  if (vars == aos.m) return;
  if (AccessRecorder* rec = AccessRecorder::thread_instance()) {
    record_quantity_rows(*rec, aos, vars, aos.m, q);
    record_quantity_rows(*rec, aos, vars, aos.m, dst);
  }
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
  if (AccessRecorder* rec = AccessRecorder::thread_instance()) {
    record_quantity_rows(*rec, aosoa, vars, aosoa.m, q);
    record_quantity_rows(*rec, aosoa, vars, aosoa.m, dst);
  }
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
  if (AccessRecorder* rec = AccessRecorder::thread_instance()) {
    rec->range(psi, static_cast<std::size_t>(n) * n * n);
    record_quantity_rows(*rec, layout, source.quantity, source.quantity + 1,
                         dst);
  }
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1)
        dst[node_quantity_index(layout, k3, k2, k1, source.quantity)] +=
            static_cast<Real>(*psi++ * sdo);
  FlopCounter::instance().add(WidthClass::kScalar, 2ull * n * n * n);
}

/// One dimension's share of the volume update (see qnew in the contract
/// above): qnew[i] = base[i] + dt * f[i], with base = q for favg[0] and
/// base = qnew for favg[1] and favg[2], so each element is summed in the
/// contract's order. f may be a float tensor; it is widened exactly. The
/// kernel templates instantiate this in the baseline translation units,
/// which have no FMA to contract the product into, and it books 2 FLOPs
/// per element at the 128-bit width those units pack.
template <class Real>
inline void add_volume_update(std::size_t n, double dt, const double* base,
                              const Real* f, double* qnew) {
  record_ranges(n, base, f, qnew);
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i)
    qnew[i] = base[i] + dt * static_cast<double>(f[i]);
  FlopCounter::instance().add(WidthClass::k128, 2ull * n);
}

/// The point source's direct time integral (see qnew in the contract
/// above): integral = sum_o s^(o)(t) * dt^(o+1) / (o+1)!, summed in
/// ascending o from taylor_coefficients(dt, n), then qnew[k] += psi[k] *
/// integral at the source quantity of every node k, in `layout` (the
/// kernel's working layout). Instantiated in the baseline translation
/// units like add_volume_update, so the product is rounded before its
/// add. It books no FLOPs: the ledger leaves a source cell's 2 n^3 out.
template <class Layout>
inline void add_source_integral(const Layout& layout, double dt,
                                const SourceTerm& source, double* qnew) {
  const int n = layout.n;
  const auto coeff = taylor_coefficients(dt, n);
  double integral = 0.0;
  for (int o = 0; o < n; ++o)
    integral += source.dt_derivatives[o] * coeff[o];
  const double* psi = source.psi;
  if (AccessRecorder* rec = AccessRecorder::thread_instance()) {
    rec->range(psi, static_cast<std::size_t>(n) * n * n);
    record_quantity_rows(*rec, layout, source.quantity, source.quantity + 1,
                         qnew);
  }
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1)
        qnew[node_quantity_index(layout, k3, k2, k1, source.quantity)] +=
            *psi++ * integral;
}

/// The kernel outputs (see the contract at the top of this file); every
/// one is optional, nullptr skips it.
struct StpOutputs {
  double* qavg = nullptr;
  std::array<double*, 3> favg{};
  /// Half-window average [t_n, t_n + dt/2].
  double* qavg_half = nullptr;
  /// Volume update q + dt * sum_d favg[d], plus the source integral.
  double* qnew = nullptr;
  /// Six FaceLayout traces of qavg, in face.h's slot order.
  double* traces = nullptr;
  /// Six FaceLayout traces of qavg_half.
  double* traces_half = nullptr;
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
  /// Engine-facing AoS layout of the q and output buffers. The generic
  /// variant uses the unpadded layout (m_pad == m), the optimized ones pad
  /// to the ISA width.
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

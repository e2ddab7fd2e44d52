// The PDE "user function" interface.
//
// ExaHyPE users supply PDE-specific terms (flux, non-conservative product,
// wave speeds) per quadrature node; the engine fixes the calling convention
// (paper Sec. II-C). We mirror both API levels:
//
//  * PdeRuntime — type-erased, pointwise AoS functions. Used by the Generic
//    STP kernel (runtime order/quantity count, virtual calls per node —
//    faithfully reproducing why the generic kernels cannot vectorize) and by
//    engine glue that does not need to be fast. Its one hot entry point is
//    surface_update: one virtual call per cell into the concrete PDE's
//    per-ISA face-trace corrector (kernels/face.h).
//  * CRTP PDE structs (advection.h, acoustic.h, ...) — compile-time quantity
//    counts and inlineable pointwise calls; the optimized kernels are
//    templated on the concrete PDE exactly as the paper's generated kernels
//    hard-code the user functions (Sec. III-C). Every PDE also has line
//    functions operating on SoA chunks (equally spaced padded x-lines),
//    the vectorizable user-function flavour of Sec. V-C: flux_line/ncp_line
//    in pde_lines.h, with the bodies of all PDEs in pde_lines_impl.h.
//
// Conventions shared by all PDEs:
//  * A node stores kQuants = kVars + kParams doubles: evolved quantities
//    first, then material/geometry parameters (the paper's m counts both,
//    m = 21 for the curvilinear elastic benchmark).
//  * flux(q, dir, f) writes all kQuants entries of f; parameter rows are
//    zero, so parameters automatically stay constant in time while the
//    padded GEMMs still process their rows — exactly the layout the paper
//    optimizes.
//  * ncp(q, grad, dir, out) writes B_dir(q) * grad into all kQuants rows
//    (set, not accumulate); grad is the spatial derivative of q in `dir`.
//  * The evolution law implemented by the kernels is
//        dq/dt = sum_d [ d/dx_d flux_d(q) + ncp_d(q, dq/dx_d) ] + source.
//
// FLOP accounting convention: pointwise flux()/ncp() do NOT touch the
// counter (kernels batch-account them per sweep using kFluxFlops/kNcpFlops,
// classified scalar); the line functions DO count, kFluxFlops/kNcpFlops per
// lane, classified by the packing width their code compiles to. Every
// PDE's line bodies are compiled once per ISA translation unit and
// dispatched on the kernel's Isa, so they count at the dispatched width
// (128 bits for Isa::kScalar's baseline TU, 256 for AVX2, 512 for
// AVX-512).
#pragma once

#include <cstdint>
#include <string>

#include "exastp/common/simd.h"
#include "exastp/kernels/face.h"

namespace exastp {

struct PdeInfo {
  int quants = 0;  ///< total stored quantities per node (the paper's m)
  int vars = 0;    ///< evolved quantities
  int params = 0;  ///< material/geometry parameters riding along
  std::string name;
};

/// Past-the-end index of the quantity rows flux_dir(q) can possibly make
/// nonzero. Defaults to kVars (parameter rows are zero by the flux
/// contract above); a PDE with extra structural zeros declares
/// `static constexpr int flux_rows_end(int dir)` to tighten it (acoustic:
/// only p and v_dir move → 2+dir; pure-NCP PDEs: 0, flux is identically
/// zero). The SplitCK kernels skip the derivative GEMM columns of rows
/// beyond this bound: bitwise-exact, but fewer FLOPs are counted.
template <class Pde>
constexpr int pde_flux_rows_end(int dir) {
  if constexpr (requires { Pde::flux_rows_end(dir); }) {
    return Pde::flux_rows_end(dir);
  } else {
    return Pde::kVars;
  }
}

/// True when ncp() is identically zero for every state (declared via
/// `static constexpr bool kNcpIsZero = true`). The SplitCK kernels then
/// skip the whole gradient + ncp stage of each dimension sweep; defaults
/// to false (stage runs) when the PDE does not say.
template <class Pde>
constexpr bool pde_ncp_is_zero() {
  if constexpr (requires { Pde::kNcpIsZero; }) {
    return Pde::kNcpIsZero;
  } else {
    return false;
  }
}

/// Type-erased pointwise interface (generic kernels, glue code).
class PdeRuntime {
 public:
  virtual ~PdeRuntime() = default;

  virtual PdeInfo info() const = 0;
  /// f[0..quants): physical flux in direction dir (0=x, 1=y, 2=z).
  virtual void flux(const double* q, int dir, double* f) const = 0;
  /// out[0..quants) = B_dir(q) * grad.
  virtual void ncp(const double* q, const double* grad, int dir,
                   double* out) const = 0;
  /// Largest absolute characteristic speed in direction dir at state q.
  virtual double max_wave_speed(const double* q, int dir) const = 0;
  /// FLOPs one flux / ncp call performs (for the instruction-mix accounting).
  virtual std::uint64_t flux_flops() const = 0;
  virtual std::uint64_t ncp_flops() const = 0;

  /// Ghost state for a reflecting wall on a face with normal `dir`.
  /// Default behaves like outflow (copies); PDEs with a natural mirror
  /// state (acoustic/elastic: normal velocity negated) override it via the
  /// CRTP detection in PdeAdapter.
  virtual void wall_reflect(const double* q, int /*dir*/, double* out) const {
    for (int s = 0; s < info().quants; ++s) out[s] = q[s];
  }

  /// One cell's surface update at the dispatched ISA (kernels/face.h
  /// surface_update for the concrete PDE). Returns false when a value the
  /// lift wrote is not finite.
  virtual bool surface_update(Isa isa, const FaceUpdate& u) const = 0;
};

/// Wraps a CRTP PDE struct into the runtime interface.
template <class Pde>
class PdeAdapter final : public PdeRuntime {
 public:
  explicit PdeAdapter(Pde pde = Pde{}) : pde_(std::move(pde)) {}

  PdeInfo info() const override {
    return {Pde::kQuants, Pde::kVars, Pde::kParams, Pde::kName};
  }
  void flux(const double* q, int dir, double* f) const override {
    pde_.flux(q, dir, f);
  }
  void ncp(const double* q, const double* grad, int dir,
           double* out) const override {
    pde_.ncp(q, grad, dir, out);
  }
  double max_wave_speed(const double* q, int dir) const override {
    return pde_.max_wave_speed(q, dir);
  }
  std::uint64_t flux_flops() const override { return Pde::kFluxFlops; }
  std::uint64_t ncp_flops() const override { return Pde::kNcpFlops; }

  void wall_reflect(const double* q, int dir, double* out) const override {
    if constexpr (requires { pde_.wall_reflect(q, dir, out); }) {
      pde_.wall_reflect(q, dir, out);
    } else {
      PdeRuntime::wall_reflect(q, dir, out);
    }
  }

  bool surface_update(Isa isa, const FaceUpdate& u) const override {
    return exastp::surface_update(isa, pde_, u);
  }

  const Pde& pde() const { return pde_; }

 private:
  Pde pde_;
};

}  // namespace exastp

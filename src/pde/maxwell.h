// Source-free Maxwell's equations in linear isotropic media — a second
// full application domain for the engine (ExaHyPE's scope is "a wide class
// of systems of linear and non-linear hyperbolic PDEs", Sec. II):
//
//   dE/dt =  (1/eps) curl H        F_j(E_i) =  levi(i,j,k) H_k / eps
//   dH/dt = -(1/mu)  curl E        F_j(H_i) = -levi(i,j,k) E_k / mu
//
// Quantities: E (3), H (3), parameters eps, mu per node. Conservative flux
// form for cell-wise constant media; wave speed c = 1/sqrt(eps mu). A PEC
// (perfect electric conductor) wall mirrors the tangential E and the normal
// H components.
#pragma once

#include <cmath>
#include <cstdint>

namespace exastp {

struct MaxwellPde {
  static constexpr int kVars = 6;
  static constexpr int kParams = 2;
  static constexpr int kQuants = kVars + kParams;
  static constexpr const char* kName = "maxwell";
  // Per pointwise call: 2 divides + 4 signed copies ~ 6.
  static constexpr std::uint64_t kFluxFlops = 6;
  static constexpr std::uint64_t kNcpFlops = 0;
  /// Pure conservation form: ncp() writes zeros unconditionally.
  static constexpr bool kNcpIsZero = true;

  static constexpr int kEx = 0, kEy = 1, kEz = 2;
  static constexpr int kHx = 3, kHy = 4, kHz = 5;
  static constexpr int kEps = 6, kMu = 7;

  /// Levi-Civita symbol, 0-indexed.
  static constexpr double levi(int i, int j, int k) {
    if (i == j || j == k || i == k) return 0.0;
    return ((j - i + 3) % 3 == 1) ? 1.0 : -1.0;
  }

  /// Pointwise user functions are templated on the scalar type (fp32
  /// kernels call them on float rows directly); the Levi-Civita factor is
  /// cast to Real so fp32 arithmetic does not promote to double.
  template <class Real>
  void flux(const Real* q, int dir, Real* f) const {
    const Real inv_eps = Real(1) / q[kEps];
    const Real inv_mu = Real(1) / q[kMu];
    for (int s = 0; s < kQuants; ++s) f[s] = Real(0);
    for (int i = 0; i < 3; ++i)
      for (int k = 0; k < 3; ++k) {
        const Real e = static_cast<Real>(levi(i, dir, k));
        if (e == Real(0)) continue;
        f[kEx + i] += e * q[kHx + k] * inv_eps;
        f[kHx + i] -= e * q[kEx + k] * inv_mu;
      }
  }

  template <class Real>
  void ncp(const Real* /*q*/, const Real* /*grad*/, int /*dir*/,
           Real* out) const {
    for (int s = 0; s < kQuants; ++s) out[s] = Real(0);
  }

  double max_wave_speed(const double* q, int /*dir*/) const {
    return 1.0 / std::sqrt(q[kEps] * q[kMu]);
  }

  /// PEC wall: tangential E and normal H flip sign.
  void wall_reflect(const double* q, int dir, double* out) const {
    for (int s = 0; s < kQuants; ++s) out[s] = q[s];
    for (int i = 0; i < 3; ++i)
      if (i != dir) out[kEx + i] = -q[kEx + i];
    out[kHx + dir] = -q[kHx + dir];
  }
};

}  // namespace exastp

// Linear advection systems — the simplest linear hyperbolic PDE, used for
// exact-solution convergence tests and for the flux-vs-NCP equivalence
// property (the same physics expressed through both user-function paths must
// give identical discrete solutions).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

namespace exastp {

/// m decoupled advected quantities, all moving with one velocity vector:
/// dq/dt + a . grad q = 0, written in conservative form F_d = -a_d q.
struct AdvectionPde {
  static constexpr int kVars = 5;
  static constexpr int kParams = 0;
  static constexpr int kQuants = kVars + kParams;
  static constexpr const char* kName = "advection";
  static constexpr std::uint64_t kFluxFlops = kVars;  // one mult per quantity
  static constexpr std::uint64_t kNcpFlops = 0;
  /// ncp() writes zeros unconditionally — kernels skip the stage.
  static constexpr bool kNcpIsZero = true;

  std::array<double, 3> velocity{1.0, 0.5, 0.25};

  /// No parameters, so no background medium to write.
  static void default_parameters(double* /*node*/) {}

  /// Pointwise user functions are templated on the scalar type (fp32
  /// kernels call them on float rows directly); the velocity coefficient is
  /// narrowed once outside the loop.
  template <class Real>
  void flux(const Real* q, int dir, Real* f) const {
    const Real a = static_cast<Real>(-velocity[dir]);
    for (int s = 0; s < kQuants; ++s) f[s] = a * q[s];
  }

  template <class Real>
  void ncp(const Real* /*q*/, const Real* /*grad*/, int /*dir*/,
           Real* out) const {
    for (int s = 0; s < kQuants; ++s) out[s] = Real(0);
  }

  double max_wave_speed(const double* /*q*/, int dir) const {
    return std::abs(velocity[dir]);
  }
};

/// The same physics expressed purely through the non-conservative product:
/// F = 0 and B_d = -a_d * I. Discretely equivalent to AdvectionPde because
/// the velocity is constant — the kernels' flux and NCP code paths must
/// produce identical predictors (tested in test_kernels.cpp).
struct AdvectionNcpPde {
  static constexpr int kVars = 5;
  static constexpr int kParams = 0;
  static constexpr int kQuants = kVars + kParams;
  static constexpr const char* kName = "advection_ncp";
  static constexpr std::uint64_t kFluxFlops = 0;
  static constexpr std::uint64_t kNcpFlops = kVars;
  /// F is identically zero: the flux derivative GEMMs are skipped outright
  /// (the physics lives entirely in the non-conservative product).
  static constexpr int flux_rows_end(int /*dir*/) { return 0; }

  std::array<double, 3> velocity{1.0, 0.5, 0.25};

  static void default_parameters(double* /*node*/) {}

  template <class Real>
  void flux(const Real* /*q*/, int /*dir*/, Real* f) const {
    for (int s = 0; s < kQuants; ++s) f[s] = Real(0);
  }

  template <class Real>
  void ncp(const Real* /*q*/, const Real* grad, int dir,
           Real* out) const {
    const Real a = static_cast<Real>(-velocity[dir]);
    for (int s = 0; s < kQuants; ++s) out[s] = a * grad[s];
  }

  double max_wave_speed(const double* /*q*/, int dir) const {
    return std::abs(velocity[dir]);
  }
};

}  // namespace exastp

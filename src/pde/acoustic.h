// 3-D linear acoustics in pressure/velocity form.
//
//   dp/dt  = -rho c^2  div(v)
//   dv/dt  = -(1/rho) grad(p)
//
// Material parameters rho (density) and c (sound speed) ride along as
// per-node quantities with zero flux rows, the same storage discipline the
// paper uses for its m = 21 elastic benchmark. With cell-wise constant
// material the system is conservative, and plane waves
// p = sin(k.x - w t), v = (k/(rho c |k|)) sin(k.x - w t) give exact
// solutions for the solver convergence tests.
#pragma once

#include <cmath>
#include <cstdint>

namespace exastp {

struct AcousticPde {
  static constexpr int kVars = 4;    // p, vx, vy, vz
  static constexpr int kParams = 2;  // rho, c
  static constexpr int kQuants = kVars + kParams;
  static constexpr const char* kName = "acoustic";
  // p-row: rho*c*c*v_d (3 mults), v-row: p/rho (1 div counted as 1 flop).
  static constexpr std::uint64_t kFluxFlops = 4;
  static constexpr std::uint64_t kNcpFlops = 0;
  /// ncp() below writes zeros unconditionally — kernels skip the stage.
  static constexpr bool kNcpIsZero = true;
  /// Direction d moves only p (row 0) and v_d (row 1+d); every flux row
  /// past 1+d is structurally zero, so derivative GEMMs stop at 2+d.
  static constexpr int flux_rows_end(int dir) { return 2 + dir; }

  static constexpr int kP = 0, kVx = 1, kRho = 4, kC = 5;

  /// Background medium: unit density and sound speed.
  static void default_parameters(double* node) {
    node[kRho] = 1.0;
    node[kC] = 1.0;
  }

  /// Pointwise user functions are templated on the scalar type (fp32
  /// kernels call them on float rows directly); literals are cast to Real
  /// so fp32 arithmetic does not promote to double.
  template <class Real>
  void flux(const Real* q, int dir, Real* f) const {
    const Real rho = q[kRho], c = q[kC];
    f[kP] = -rho * c * c * q[kVx + dir];
    f[kVx + 0] = Real(0);
    f[kVx + 1] = Real(0);
    f[kVx + 2] = Real(0);
    f[kVx + dir] = -q[kP] / rho;
    f[kRho] = Real(0);
    f[kC] = Real(0);
  }

  template <class Real>
  void ncp(const Real* /*q*/, const Real* /*grad*/, int /*dir*/,
           Real* out) const {
    for (int s = 0; s < kQuants; ++s) out[s] = Real(0);
  }

  double max_wave_speed(const double* q, int /*dir*/) const {
    return q[kC];
  }

  /// Rigid wall: normal velocity mirrors, pressure and tangential velocity
  /// copy — the classic ghost state that zeroes v.n at the face.
  void wall_reflect(const double* q, int dir, double* out) const {
    for (int s = 0; s < kQuants; ++s) out[s] = q[s];
    out[kVx + dir] = -q[kVx + dir];
  }
};

}  // namespace exastp

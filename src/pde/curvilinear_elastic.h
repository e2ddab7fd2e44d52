// The paper's benchmark PDE: linear elastodynamics on curvilinear
// boundary-fitted meshes (Sec. VI), m = 21 quantities per node:
//
//   0..2   particle velocity v
//   3..8   stress sigma, Voigt order (xx, yy, zz, yz, xz, xy)
//   9..11  material: rho, cp, cs
//   12..20 geometry: metric tensor G, row-major, G[r][c] = d(xi_r)/d(x_c)
//          (the per-node Jacobian of the curvilinear transformation)
//
// The reference-coordinate evolution splits across both user-function paths,
// as in the ExaHyPE seismic application:
//   * velocity rows through the conservative flux:
//       F~_d(v_i) = sum_e G[d][e] sigma_{i e} / rho
//   * stress rows through the non-conservative product:
//       B~_d picks up the metric-weighted velocity gradients.
//
// With the identity metric this reduces exactly to ElasticPde split into a
// flux part and an NCP part — the cross-PDE equivalence test in
// test_kernels.cpp relies on that. For genuinely curved meshes the metric
// varies per node; the scheme treats it as a frozen coefficient field, which
// preserves the computational pattern of [8] (this reproduction does not
// claim pointwise agreement with the physical curvilinear equations, see
// DESIGN.md).
#pragma once

#include <cmath>
#include <cstdint>

namespace exastp {

struct CurvilinearElasticPde {
  static constexpr int kVars = 9;
  static constexpr int kParams = 12;
  static constexpr int kQuants = kVars + kParams;  // the paper's m = 21
  static constexpr const char* kName = "curvilinear_elastic";
  // Per pointwise call: 9 mult + 6 add + 3 mult (inv_rho) + 1 div ~= 19.
  static constexpr std::uint64_t kFluxFlops = 19;
  // lambda/mu/l2m: 6, metric-gradient products: 3, stress rows: ~24.
  static constexpr std::uint64_t kNcpFlops = 33;

  static constexpr int kVx = 0, kVy = 1, kVz = 2;
  static constexpr int kSxx = 3, kSyy = 4, kSzz = 5;
  static constexpr int kSyz = 6, kSxz = 7, kSxy = 8;
  static constexpr int kRho = 9, kCp = 10, kCs = 11;
  static constexpr int kMetric = 12;  // + 3*r + c

  /// Pointwise user functions are templated on the scalar type so the fp32
  /// kernels call them on float rows with zero conversion staging; literals
  /// are cast to Real to keep fp32 arithmetic from promoting to double.
  template <class Real>
  void flux(const Real* q, int dir, Real* f) const {
    const Real g0 = q[kMetric + 3 * dir + 0];
    const Real g1 = q[kMetric + 3 * dir + 1];
    const Real g2 = q[kMetric + 3 * dir + 2];
    const Real inv_rho = Real(1) / q[kRho];
    for (int s = 0; s < kQuants; ++s) f[s] = Real(0);
    f[kVx] = (g0 * q[kSxx] + g1 * q[kSxy] + g2 * q[kSxz]) * inv_rho;
    f[kVy] = (g0 * q[kSxy] + g1 * q[kSyy] + g2 * q[kSyz]) * inv_rho;
    f[kVz] = (g0 * q[kSxz] + g1 * q[kSyz] + g2 * q[kSzz]) * inv_rho;
  }

  template <class Real>
  void ncp(const Real* q, const Real* grad, int dir, Real* out) const {
    const Real g0 = q[kMetric + 3 * dir + 0];
    const Real g1 = q[kMetric + 3 * dir + 1];
    const Real g2 = q[kMetric + 3 * dir + 2];
    const Real mu = q[kRho] * q[kCs] * q[kCs];
    const Real lam = q[kRho] * q[kCp] * q[kCp] - Real(2) * mu;
    const Real l2m = lam + Real(2) * mu;
    for (int s = 0; s < kQuants; ++s) out[s] = Real(0);
    const Real dvx = g0 * grad[kVx];
    const Real dvy = g1 * grad[kVy];
    const Real dvz = g2 * grad[kVz];
    out[kSxx] = l2m * dvx + lam * (dvy + dvz);
    out[kSyy] = lam * dvx + l2m * dvy + lam * dvz;
    out[kSzz] = lam * (dvx + dvy) + l2m * dvz;
    out[kSyz] = mu * (g2 * grad[kVy] + g1 * grad[kVz]);
    out[kSxz] = mu * (g2 * grad[kVx] + g0 * grad[kVz]);
    out[kSxy] = mu * (g1 * grad[kVx] + g0 * grad[kVy]);
  }

  double max_wave_speed(const double* q, int dir) const {
    const double g0 = q[kMetric + 3 * dir + 0];
    const double g1 = q[kMetric + 3 * dir + 1];
    const double g2 = q[kMetric + 3 * dir + 2];
    return q[kCp] * std::sqrt(g0 * g0 + g1 * g1 + g2 * g2);
  }
};

}  // namespace exastp

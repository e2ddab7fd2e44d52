// 3-D isotropic linear elastodynamics in first-order velocity-stress form,
// conservative flux formulation (cell-wise constant material):
//
//   rho dv_i/dt      = sum_j d(sigma_ij)/dx_j
//   d(sigma_ij)/dt   = lambda delta_ij div(v) + mu (dv_i/dx_j + dv_j/dx_i)
//
// Quantities: v (3), sigma in Voigt order (xx, yy, zz, yz, xz, xy), and the
// material parameters rho, cp, cs per node. This is the 9+3 = 12 quantity
// system underlying the paper's seismic application [8]; the full m = 21
// benchmark adds nine curvilinear-geometry entries (curvilinear_elastic.h).
#pragma once

#include <cmath>
#include <cstdint>

namespace exastp {

struct ElasticPde {
  static constexpr int kVars = 9;
  static constexpr int kParams = 3;
  static constexpr int kQuants = kVars + kParams;
  static constexpr const char* kName = "elastic";
  // lambda/mu: 5, velocity rows: 3 divides, stress rows: 8 mult/add.
  static constexpr std::uint64_t kFluxFlops = 16;
  static constexpr std::uint64_t kNcpFlops = 0;
  /// Cartesian-mesh form is purely conservative: ncp() writes zeros.
  static constexpr bool kNcpIsZero = true;

  // Quantity indices.
  static constexpr int kVx = 0, kVy = 1, kVz = 2;
  static constexpr int kSxx = 3, kSyy = 4, kSzz = 5;
  static constexpr int kSyz = 6, kSxz = 7, kSxy = 8;
  static constexpr int kRho = 9, kCp = 10, kCs = 11;

  /// Background medium: unit density, cp = 2, cs = 1.
  static void default_parameters(double* node) {
    node[kRho] = 1.0;
    node[kCp] = 2.0;
    node[kCs] = 1.0;
  }

  /// sigma column for direction d: the stresses acting on the d-face.
  /// stress_col[d] = {sigma_xd, sigma_yd, sigma_zd} as Voigt indices.
  static constexpr int kStressCol[3][3] = {
      {kSxx, kSxy, kSxz}, {kSxy, kSyy, kSyz}, {kSxz, kSyz, kSzz}};

  template <class Real>
  static Real lame_lambda(const Real* q) {
    return q[kRho] * (q[kCp] * q[kCp] - Real(2) * q[kCs] * q[kCs]);
  }
  template <class Real>
  static Real lame_mu(const Real* q) {
    return q[kRho] * q[kCs] * q[kCs];
  }

  /// Pointwise user functions are templated on the scalar type (fp32
  /// kernels call them on float rows directly); literals are cast to Real
  /// so fp32 arithmetic does not promote to double.
  template <class Real>
  void flux(const Real* q, int dir, Real* f) const {
    const Real rho = q[kRho];
    const Real lam = lame_lambda(q);
    const Real mu = lame_mu(q);
    const Real lam2mu = lam + Real(2) * mu;
    for (int s = 0; s < kQuants; ++s) f[s] = Real(0);
    // Velocity rows: F_d(v_i) = sigma_{i d} / rho.
    f[kVx] = q[kStressCol[dir][0]] / rho;
    f[kVy] = q[kStressCol[dir][1]] / rho;
    f[kVz] = q[kStressCol[dir][2]] / rho;
    // Stress rows: F_d(sigma_ij) = lambda delta_ij v_d
    //                              + mu (delta_id v_j + delta_jd v_i).
    const Real vd = q[kVx + dir];
    f[kSxx] = (dir == 0 ? lam2mu : lam) * vd;
    f[kSyy] = (dir == 1 ? lam2mu : lam) * vd;
    f[kSzz] = (dir == 2 ? lam2mu : lam) * vd;
    switch (dir) {
      case 0:
        f[kSxz] = mu * q[kVz];
        f[kSxy] = mu * q[kVy];
        break;
      case 1:
        f[kSyz] = mu * q[kVz];
        f[kSxy] = mu * q[kVx];
        break;
      case 2:
        f[kSyz] = mu * q[kVy];
        f[kSxz] = mu * q[kVx];
        break;
    }
  }

  template <class Real>
  void ncp(const Real* /*q*/, const Real* /*grad*/, int /*dir*/,
           Real* out) const {
    for (int s = 0; s < kQuants; ++s) out[s] = Real(0);
  }

  double max_wave_speed(const double* q, int /*dir*/) const {
    return q[kCp];
  }

  /// Rigid wall: the normal velocity component mirrors.
  void wall_reflect(const double* q, int dir, double* out) const {
    for (int s = 0; s < kQuants; ++s) out[s] = q[s];
    out[kVx + dir] = -q[kVx + dir];
  }
};

}  // namespace exastp

// The line-function bodies of every PDE, instantiated once per ISA
// translation unit (pde_lines_baseline.cpp / pde_lines_avx2.cpp /
// pde_lines_avx512.cpp); pde_lines.h declares the entry points and
// dispatches to them.
//
// Each loop body runs over one SoA line (a padded x-line, or SoA-UF's n^3
// nodes); the entry points loop it over a call's lines and the TU's -m
// flags decide the packing width (the paper's Fig. 8 discipline). Zero-
// padded lanes carry zero material parameters and are guarded so padding
// stays a valid input (Sec. V-C). The bodies are templated on the scalar
// type and every literal is cast to Real: a stray double constant inside a
// simd loop would promote the whole expression to double and halve the
// fp32 lane count.
//
// Bits: a body compiled for an FMA target may contract a multiply-add that
// the baseline TU rounds twice, so the three ISA paths of one PDE agree to
// rounding, not bit for bit. Each path is deterministic on its own.
//
// Everything here has internal linkage (anonymous namespace) ON PURPOSE,
// as in gemm_impl.h: each ISA TU must get its own copy compiled with its
// own -m flags; an inline symbol would be merged across TUs by the linker
// and silently pick one ISA for all three.
#pragma once

#include "exastp/pde/acoustic.h"
#include "exastp/pde/advection.h"
#include "exastp/pde/curvilinear_elastic.h"
#include "exastp/pde/elastic.h"
#include "exastp/pde/maxwell.h"
#include "exastp/pde/pde_lines.h"

namespace exastp::detail {
namespace {

/// out rows [0, rows) = 0 over the line. (CMakeLists.txt keeps GCC from
/// turning each row's loop into a memset call.)
template <class Real>
inline void zero_rows(Real* out, int rows, int len, int stride) {
  for (int s = 0; s < rows; ++s) {
    Real* os = out + s * stride;
#pragma omp simd
    for (int i = 0; i < len; ++i) os[i] = Real(0);
  }
}

// --- Advection: F_d = -a_d q. -------------------------------------------

template <class Real>
inline void flux_line_body(const AdvectionPde& pde, const Real* q, int dir,
                           Real* f, int len, int stride) {
  const Real a = static_cast<Real>(-pde.velocity[dir]);
  for (int s = 0; s < AdvectionPde::kQuants; ++s) {
    const Real* qs = q + s * stride;
    Real* fs = f + s * stride;
#pragma omp simd
    for (int i = 0; i < len; ++i) fs[i] = a * qs[i];
  }
}

template <class Real>
inline void ncp_line_body(const AdvectionPde&, const Real*, const Real*, int,
                          Real* out, int len, int stride) {
  zero_rows(out, AdvectionPde::kQuants, len, stride);
}

// --- Advection through the NCP: F = 0, B_d = -a_d I. ---------------------

template <class Real>
inline void flux_line_body(const AdvectionNcpPde&, const Real*, int, Real* f,
                           int len, int stride) {
  zero_rows(f, AdvectionNcpPde::kQuants, len, stride);
}

template <class Real>
inline void ncp_line_body(const AdvectionNcpPde& pde, const Real*,
                          const Real* grad, int dir, Real* out, int len,
                          int stride) {
  const Real a = static_cast<Real>(-pde.velocity[dir]);
  for (int s = 0; s < AdvectionNcpPde::kQuants; ++s) {
    const Real* gs = grad + s * stride;
    Real* os = out + s * stride;
#pragma omp simd
    for (int i = 0; i < len; ++i) os[i] = a * gs[i];
  }
}

// --- Acoustics: p and v_dir move. -----------------------------------------

template <class Real>
inline void flux_line_body(const AcousticPde&, const Real* q, int dir,
                           Real* f, int len, int stride) {
  using P = AcousticPde;
  const Real* p = q + P::kP * stride;
  const Real* vd = q + (P::kVx + dir) * stride;
  const Real* rho = q + P::kRho * stride;
  const Real* c = q + P::kC * stride;
  Real* fp = f + P::kP * stride;
  zero_rows(f + P::kVx * stride, P::kQuants - P::kVx, len, stride);
  Real* fvd = f + (P::kVx + dir) * stride;
#pragma omp simd
  for (int i = 0; i < len; ++i) {
    fp[i] = -rho[i] * c[i] * c[i] * vd[i];
    fvd[i] = rho[i] != Real(0) ? -p[i] / rho[i] : Real(0);
  }
}

template <class Real>
inline void ncp_line_body(const AcousticPde&, const Real*, const Real*, int,
                          Real* out, int len, int stride) {
  zero_rows(out, AcousticPde::kQuants, len, stride);
}

// --- Isotropic elastodynamics, conservative form. -------------------------

template <class Real>
inline void flux_line_body(const ElasticPde&, const Real* q, int dir,
                           Real* f, int len, int stride) {
  using E = ElasticPde;
  auto row = [&](int s) { return q + s * stride; };
  auto out = [&](int s) { return f + s * stride; };
  zero_rows(f, E::kQuants, len, stride);
  const Real* rho = row(E::kRho);
  const Real* cp = row(E::kCp);
  const Real* cs = row(E::kCs);
  const Real* vd = row(E::kVx + dir);
  const Real* s0 = row(E::kStressCol[dir][0]);
  const Real* s1 = row(E::kStressCol[dir][1]);
  const Real* s2 = row(E::kStressCol[dir][2]);
  Real* fvx = out(E::kVx);
  Real* fvy = out(E::kVy);
  Real* fvz = out(E::kVz);
  Real* fsxx = out(E::kSxx);
  Real* fsyy = out(E::kSyy);
  Real* fszz = out(E::kSzz);
#pragma omp simd
  for (int i = 0; i < len; ++i) {
    const Real inv_rho = rho[i] != Real(0) ? Real(1) / rho[i] : Real(0);
    const Real mu = rho[i] * cs[i] * cs[i];
    const Real lam = rho[i] * cp[i] * cp[i] - Real(2) * mu;
    fvx[i] = s0[i] * inv_rho;
    fvy[i] = s1[i] * inv_rho;
    fvz[i] = s2[i] * inv_rho;
    fsxx[i] = (dir == 0 ? lam + Real(2) * mu : lam) * vd[i];
    fsyy[i] = (dir == 1 ? lam + Real(2) * mu : lam) * vd[i];
    fszz[i] = (dir == 2 ? lam + Real(2) * mu : lam) * vd[i];
  }
  // The two shear rows the direction moves: sigma_{a dir} and sigma_{b dir}.
  Real* fa = nullptr;
  Real* fb = nullptr;
  const Real* va = nullptr;
  const Real* vb = nullptr;
  switch (dir) {
    case 0:
      fa = out(E::kSxz); va = row(E::kVz);
      fb = out(E::kSxy); vb = row(E::kVy);
      break;
    case 1:
      fa = out(E::kSyz); va = row(E::kVz);
      fb = out(E::kSxy); vb = row(E::kVx);
      break;
    case 2:
      fa = out(E::kSyz); va = row(E::kVy);
      fb = out(E::kSxz); vb = row(E::kVx);
      break;
  }
#pragma omp simd
  for (int i = 0; i < len; ++i) {
    const Real mu = rho[i] * cs[i] * cs[i];
    fa[i] = mu * va[i];
    fb[i] = mu * vb[i];
  }
}

template <class Real>
inline void ncp_line_body(const ElasticPde&, const Real*, const Real*, int,
                          Real* out, int len, int stride) {
  zero_rows(out, ElasticPde::kQuants, len, stride);
}

// --- Maxwell: F_j(E_i) = levi(i,j,k) H_k / eps, F_j(H_i) = -... E_k / mu.

template <class Real>
inline void flux_line_body(const MaxwellPde&, const Real* q, int dir,
                           Real* f, int len, int stride) {
  using M = MaxwellPde;
  zero_rows(f, M::kQuants, len, stride);
  const Real* eps = q + M::kEps * stride;
  const Real* mu = q + M::kMu * stride;
  for (int i = 0; i < 3; ++i)
    for (int k = 0; k < 3; ++k) {
      const Real e = static_cast<Real>(M::levi(i, dir, k));
      if (e == Real(0)) continue;
      Real* fe = f + (M::kEx + i) * stride;
      Real* fh = f + (M::kHx + i) * stride;
      const Real* hk = q + (M::kHx + k) * stride;
      const Real* ek = q + (M::kEx + k) * stride;
#pragma omp simd
      for (int l = 0; l < len; ++l) {
        fe[l] += eps[l] != Real(0) ? e * hk[l] / eps[l] : Real(0);
        fh[l] -= mu[l] != Real(0) ? e * ek[l] / mu[l] : Real(0);
      }
    }
}

template <class Real>
inline void ncp_line_body(const MaxwellPde&, const Real*, const Real*, int,
                          Real* out, int len, int stride) {
  zero_rows(out, MaxwellPde::kQuants, len, stride);
}

// --- Curvilinear elastodynamics (the paper's m = 21 benchmark PDE). -------
// Quantity indices as in curvilinear_elastic.h: v = 0..2, sigma Voigt =
// 3..8, rho/cp/cs = 9..11, metric row-major G = 12..20.

template <class Real>
inline void flux_line_body(const CurvilinearElasticPde&, const Real* q,
                           int dir, Real* f, int len, int stride) {
  using C = CurvilinearElasticPde;
  const Real* g0 = q + (C::kMetric + 3 * dir + 0) * stride;
  const Real* g1 = q + (C::kMetric + 3 * dir + 1) * stride;
  const Real* g2 = q + (C::kMetric + 3 * dir + 2) * stride;
  const Real* rho = q + C::kRho * stride;
  const Real* sxx = q + C::kSxx * stride;
  const Real* syy = q + C::kSyy * stride;
  const Real* szz = q + C::kSzz * stride;
  const Real* syz = q + C::kSyz * stride;
  const Real* sxz = q + C::kSxz * stride;
  const Real* sxy = q + C::kSxy * stride;
  zero_rows(f, C::kQuants, len, stride);
  Real* fvx = f + C::kVx * stride;
  Real* fvy = f + C::kVy * stride;
  Real* fvz = f + C::kVz * stride;
#pragma omp simd
  for (int i = 0; i < len; ++i) {
    const Real inv_rho = rho[i] != Real(0) ? Real(1) / rho[i] : Real(0);
    fvx[i] = (g0[i] * sxx[i] + g1[i] * sxy[i] + g2[i] * sxz[i]) * inv_rho;
    fvy[i] = (g0[i] * sxy[i] + g1[i] * syy[i] + g2[i] * syz[i]) * inv_rho;
    fvz[i] = (g0[i] * sxz[i] + g1[i] * syz[i] + g2[i] * szz[i]) * inv_rho;
  }
}

template <class Real>
inline void ncp_line_body(const CurvilinearElasticPde&, const Real* q,
                          const Real* grad, int dir, Real* out, int len,
                          int stride) {
  using C = CurvilinearElasticPde;
  const Real* g0 = q + (C::kMetric + 3 * dir + 0) * stride;
  const Real* g1 = q + (C::kMetric + 3 * dir + 1) * stride;
  const Real* g2 = q + (C::kMetric + 3 * dir + 2) * stride;
  const Real* rho = q + C::kRho * stride;
  const Real* cp = q + C::kCp * stride;
  const Real* cs = q + C::kCs * stride;
  const Real* gvx = grad + C::kVx * stride;
  const Real* gvy = grad + C::kVy * stride;
  const Real* gvz = grad + C::kVz * stride;
  zero_rows(out, C::kQuants, len, stride);
  Real* oxx = out + C::kSxx * stride;
  Real* oyy = out + C::kSyy * stride;
  Real* ozz = out + C::kSzz * stride;
  Real* oyz = out + C::kSyz * stride;
  Real* oxz = out + C::kSxz * stride;
  Real* oxy = out + C::kSxy * stride;
#pragma omp simd
  for (int i = 0; i < len; ++i) {
    const Real mu = rho[i] * cs[i] * cs[i];
    const Real lam = rho[i] * cp[i] * cp[i] - Real(2) * mu;
    const Real l2m = lam + Real(2) * mu;
    const Real dvx = g0[i] * gvx[i];
    const Real dvy = g1[i] * gvy[i];
    const Real dvz = g2[i] * gvz[i];
    oxx[i] = l2m * dvx + lam * (dvy + dvz);
    oyy[i] = lam * dvx + l2m * dvy + lam * dvz;
    ozz[i] = lam * (dvx + dvy) + l2m * dvz;
    oyz[i] = mu * (g2[i] * gvy[i] + g1[i] * gvz[i]);
    oxz[i] = mu * (g2[i] * gvx[i] + g0[i] * gvz[i]);
    oxy[i] = mu * (g1[i] * gvx[i] + g0[i] * gvy[i]);
  }
}

}  // namespace
}  // namespace exastp::detail

/// Every PDE with line functions: X(ARG, Pde) for each. Each ISA TU
/// instantiates its entry points for these, in fp64 and fp32.
#define EXASTP_FOR_EACH_LINE_PDE(X, ARG)                                     \
  X(ARG, AdvectionPde)                                                       \
  X(ARG, AdvectionNcpPde)                                                    \
  X(ARG, AcousticPde)                                                        \
  X(ARG, ElasticPde)                                                         \
  X(ARG, MaxwellPde)                                                         \
  X(ARG, CurvilinearElasticPde)

/// Explicit instantiations of one ISA's entry points for one PDE.
#define EXASTP_INSTANTIATE_PDE_LINES(SUFFIX, PDE)                            \
  template void flux_line_##SUFFIX(const PDE&, const double*, int, double*,  \
                                   int, int, int, long);                     \
  template void flux_line_##SUFFIX(const PDE&, const float*, int, float*,    \
                                   int, int, int, long);                     \
  template void ncp_line_##SUFFIX(const PDE&, const double*, const double*,  \
                                  int, double*, int, int, int, long);        \
  template void ncp_line_##SUFFIX(const PDE&, const float*, const float*,    \
                                  int, float*, int, int, int, long);

/// One ISA TU's entry points (declared in pde_lines.h) over the bodies
/// above, instantiated for every PDE of EXASTP_FOR_EACH_LINE_PDE: the loop
/// over a call's lines runs here, at the TU's width.
#define EXASTP_DEFINE_PDE_LINES(SUFFIX)                                      \
  template <class Pde, class Real>                                           \
  void flux_line_##SUFFIX(const Pde& pde, const Real* q, int dir, Real* f,   \
                          int len, int stride, int lines,                    \
                          long line_stride) {                                \
    for (int l = 0; l < lines; ++l)                                          \
      flux_line_body(pde, q + l * line_stride, dir, f + l * line_stride,     \
                     len, stride);                                           \
  }                                                                          \
  template <class Pde, class Real>                                           \
  void ncp_line_##SUFFIX(const Pde& pde, const Real* q, const Real* grad,    \
                         int dir, Real* out, int len, int stride, int lines, \
                         long line_stride) {                                 \
    for (int l = 0; l < lines; ++l)                                          \
      ncp_line_body(pde, q + l * line_stride, grad + l * line_stride, dir,   \
                    out + l * line_stride, len, stride);                     \
  }                                                                          \
  EXASTP_FOR_EACH_LINE_PDE(EXASTP_INSTANTIATE_PDE_LINES, SUFFIX)

// The line-function bodies of every PDE, instantiated once per ISA
// translation unit (pde_lines_baseline.cpp / pde_lines_avx2.cpp /
// pde_lines_avx512.cpp); pde_lines.h declares the entry points and
// dispatches to them.
//
// The entry points switch on `dir` once per call. Inside, each line runs
// as full chunks of W lanes, W a compile-time constant of the TU (8 on
// AVX-512, 4 on AVX2, 2 in the SSE2 baseline; the same in both precisions,
// since lines are padded in units of the double vector width), and a line
// whose length is not a multiple of W ends in one tail chunk of len % W
// lanes. This is the paper's VECTLENGTH (Sec. V-C / Fig. 8): a full chunk
// sees its lane count and its direction as constants, so each row is a
// few full-width vector operations with no epilogue.
//
// One body per PDE and operator serves full chunks and the tail alike (the
// PDEs whose NCP is zero share one NCP body); it is forced inline, so a
// full chunk's lane count W is a constant inside it. Every body writes
// each output row of each lane exactly once, with no zeroing pass ahead:
// its lane loop stores the rows it computes and a direction's single zero
// rows, and the blocks of rows that are zero in every lane (the parameter
// rows, the curvilinear PDE's unused blocks) follow in zero_rows, once per
// chunk. Zero-padded lanes carry zero material parameters and are guarded
// (rho != 0 ? 1 / rho : 0) so padding stays a valid input (Sec. V-C);
// these TUs are compiled with -fno-trapping-math, so the guarded division
// if-converts into a blend on AVX2 and SSE2 too, which have no masked
// division (CMakeLists.txt). The bodies are templated on the scalar type
// and every literal is cast to Real: a stray double constant inside a
// simd loop would promote the whole expression to double and halve the
// fp32 lane count.
//
// Bits: a body compiled for an FMA target may contract a multiply-add that
// the baseline TU rounds twice, so the three ISA paths of one PDE agree to
// rounding, not bit for bit. Each path is deterministic on its own, and
// its bits do not depend on the chunking: every element is the same
// expression in a full chunk and in the tail.
//
// Everything here has internal linkage (anonymous namespace) ON PURPOSE,
// as in gemm_impl.h: each ISA TU must get its own copy compiled with its
// own -m flags; an inline symbol would be merged across TUs by the linker
// and silently pick one ISA for all three.
#pragma once

#include <type_traits>

#include "exastp/pde/pde_base.h"
#include "exastp/pde/pde_lines.h"
#include "exastp/pde/pde_list.h"

namespace exastp::detail {
namespace {

/// A direction fixed at compile time.
template <int D>
using Dir = std::integral_constant<int, D>;

/// Calls op(Dir<dir>{}): the one switch on the direction per call. The
/// dispatchers in pde_lines.h have checked dir in [0, 3), so no check here
/// pulls a shared inline symbol into this TU (see the note on linkage).
template <class Op>
void with_dir(int dir, Op&& op) {
  switch (dir) {
    case 0: op(Dir<0>{}); return;
    case 1: op(Dir<1>{}); return;
    default: op(Dir<2>{}); return;
  }
}

/// Stores +0.0 in rows [First, Last) of a chunk of n lanes. One pointer
/// steps through the rows, so a body with long zero blocks keeps its
/// registers for the rows it computes; with n = W each row is one store.
template <int First, int Last, class Real>
[[gnu::always_inline]] inline void zero_rows(Real* chunk, int n, int stride) {
  Real* const end = chunk + Last * stride;
  for (Real* row = chunk + First * stride; row != end; row += stride) {
#pragma omp simd
    for (int i = 0; i < n; ++i) row[i] = Real(0);
  }
}

// Each body computes one chunk of n lanes in direction D: flux_chunk
// writes f = F_D(q), ncp_chunk writes out = B_D(q) * grad.

// --- The NCP of every PDE that declares it zero (kNcpIsZero). -------------

template <class Pde, class Real, int D>
  requires(pde_ncp_is_zero<Pde>())
[[gnu::always_inline]] inline void ncp_chunk(const Pde&, const Real*,
                                             const Real*, Real* out, int n,
                                             int stride, Dir<D>) {
  zero_rows<0, Pde::kQuants>(out, n, stride);
}

// --- Advection: F_d = -a_d q. -------------------------------------------

template <class Real, int D>
[[gnu::always_inline]] inline void flux_chunk(const AdvectionPde& pde,
                                              const Real* q, Real* f, int n,
                                              int stride, Dir<D>) {
  const Real a = static_cast<Real>(-pde.velocity[D]);
  for (int s = 0; s < AdvectionPde::kQuants; ++s) {
    const Real* qs = q + s * stride;
    Real* fs = f + s * stride;
#pragma omp simd
    for (int i = 0; i < n; ++i) fs[i] = a * qs[i];
  }
}

// --- Advection through the NCP: F = 0, B_d = -a_d I. ---------------------

template <class Real, int D>
[[gnu::always_inline]] inline void flux_chunk(const AdvectionNcpPde&,
                                              const Real*, Real* f, int n,
                                              int stride, Dir<D>) {
  zero_rows<0, AdvectionNcpPde::kQuants>(f, n, stride);
}

template <class Real, int D>
[[gnu::always_inline]] inline void ncp_chunk(const AdvectionNcpPde& pde,
                                             const Real*, const Real* grad,
                                             Real* out, int n, int stride,
                                             Dir<D>) {
  const Real a = static_cast<Real>(-pde.velocity[D]);
  for (int s = 0; s < AdvectionNcpPde::kQuants; ++s) {
    const Real* gs = grad + s * stride;
    Real* os = out + s * stride;
#pragma omp simd
    for (int i = 0; i < n; ++i) os[i] = a * gs[i];
  }
}

// --- Acoustics: p and v_D move. -------------------------------------------

template <class Real, int D>
[[gnu::always_inline]] inline void flux_chunk(const AcousticPde&,
                                              const Real* q, Real* f, int n,
                                              int stride, Dir<D>) {
  using P = AcousticPde;
  const Real* p = q + P::kP * stride;
  const Real* vd = q + (P::kVx + D) * stride;
  const Real* rho = q + P::kRho * stride;
  const Real* c = q + P::kC * stride;
  Real* fp = f + P::kP * stride;
  Real* fvx = f + P::kVx * stride;
  Real* fvy = f + (P::kVx + 1) * stride;
  Real* fvz = f + (P::kVx + 2) * stride;
#pragma omp simd
  for (int i = 0; i < n; ++i) {
    fp[i] = -rho[i] * c[i] * c[i] * vd[i];
    const Real fv = rho[i] != Real(0) ? -p[i] / rho[i] : Real(0);
    fvx[i] = D == 0 ? fv : Real(0);
    fvy[i] = D == 1 ? fv : Real(0);
    fvz[i] = D == 2 ? fv : Real(0);
  }
  zero_rows<P::kRho, P::kQuants>(f, n, stride);
}

// --- Isotropic elastodynamics, conservative form. -------------------------

template <class Real, int D>
[[gnu::always_inline]] inline void flux_chunk(const ElasticPde&,
                                              const Real* q, Real* f, int n,
                                              int stride, Dir<D>) {
  using E = ElasticPde;
  // The two shear rows sigma_{a D} and sigma_{b D} that direction D moves,
  // each with the velocity it takes; the third shear row is zero.
  constexpr int kShear[3][4] = {{E::kSxz, E::kVz, E::kSxy, E::kVy},
                                {E::kSyz, E::kVz, E::kSxy, E::kVx},
                                {E::kSyz, E::kVy, E::kSxz, E::kVx}};
  constexpr int kZeroShear = E::kSyz + D;
  auto row = [&](int s) { return q + s * stride; };
  auto out = [&](int s) { return f + s * stride; };
  const Real* rho = row(E::kRho);
  const Real* cp = row(E::kCp);
  const Real* cs = row(E::kCs);
  const Real* vd = row(E::kVx + D);
  const Real* s0 = row(E::kStressCol[D][0]);
  const Real* s1 = row(E::kStressCol[D][1]);
  const Real* s2 = row(E::kStressCol[D][2]);
  const Real* va = row(kShear[D][1]);
  const Real* vb = row(kShear[D][3]);
  Real* fvx = out(E::kVx);
  Real* fvy = out(E::kVy);
  Real* fvz = out(E::kVz);
  Real* fsxx = out(E::kSxx);
  Real* fsyy = out(E::kSyy);
  Real* fszz = out(E::kSzz);
  Real* fa = out(kShear[D][0]);
  Real* fb = out(kShear[D][2]);
  Real* fzero = out(kZeroShear);
#pragma omp simd
  for (int i = 0; i < n; ++i) {
    const Real inv_rho = rho[i] != Real(0) ? Real(1) / rho[i] : Real(0);
    const Real mu = rho[i] * cs[i] * cs[i];
    const Real lam = rho[i] * cp[i] * cp[i] - Real(2) * mu;
    fvx[i] = s0[i] * inv_rho;
    fvy[i] = s1[i] * inv_rho;
    fvz[i] = s2[i] * inv_rho;
    fsxx[i] = (D == 0 ? lam + Real(2) * mu : lam) * vd[i];
    fsyy[i] = (D == 1 ? lam + Real(2) * mu : lam) * vd[i];
    fszz[i] = (D == 2 ? lam + Real(2) * mu : lam) * vd[i];
    fa[i] = mu * va[i];
    fb[i] = mu * vb[i];
    fzero[i] = Real(0);
  }
  zero_rows<E::kRho, E::kQuants>(f, n, stride);
}

// --- Maxwell: F_j(E_i) = levi(i,j,k) H_k / eps, F_j(H_i) = -... E_k / mu.

template <class Real, int D>
[[gnu::always_inline]] inline void flux_chunk(const MaxwellPde&,
                                              const Real* q, Real* f, int n,
                                              int stride, Dir<D>) {
  using M = MaxwellPde;
  // Direction D couples the components a and b: E_a with H_b and E_b with
  // H_a. Row D of E and of H stays zero. Each coupled row keeps the +0.0
  // start of the pointwise flux's accumulation, so a -0.0 term comes out
  // as +0.0.
  constexpr int kA = (D + 1) % 3, kB = (D + 2) % 3;
  constexpr Real kLeviA = static_cast<Real>(M::levi(kA, D, kB));
  constexpr Real kLeviB = static_cast<Real>(M::levi(kB, D, kA));
  const Real* eps = q + M::kEps * stride;
  const Real* mu = q + M::kMu * stride;
  const Real* ea = q + (M::kEx + kA) * stride;
  const Real* eb = q + (M::kEx + kB) * stride;
  const Real* ha = q + (M::kHx + kA) * stride;
  const Real* hb = q + (M::kHx + kB) * stride;
  Real* fea = f + (M::kEx + kA) * stride;
  Real* feb = f + (M::kEx + kB) * stride;
  Real* fed = f + (M::kEx + D) * stride;
  Real* fha = f + (M::kHx + kA) * stride;
  Real* fhb = f + (M::kHx + kB) * stride;
  Real* fhd = f + (M::kHx + D) * stride;
#pragma omp simd
  for (int l = 0; l < n; ++l) {
    fea[l] = Real(0) + (eps[l] != Real(0) ? kLeviA * hb[l] / eps[l] : Real(0));
    feb[l] = Real(0) + (eps[l] != Real(0) ? kLeviB * ha[l] / eps[l] : Real(0));
    fed[l] = Real(0);
    fha[l] = Real(0) - (mu[l] != Real(0) ? kLeviA * eb[l] / mu[l] : Real(0));
    fhb[l] = Real(0) - (mu[l] != Real(0) ? kLeviB * ea[l] / mu[l] : Real(0));
    fhd[l] = Real(0);
  }
  zero_rows<M::kEps, M::kQuants>(f, n, stride);
}

// --- Curvilinear elastodynamics (the paper's m = 21 benchmark PDE). -------
// Quantity indices as in curvilinear_elastic.h: v = 0..2, sigma Voigt =
// 3..8, rho/cp/cs = 9..11, metric row-major G = 12..20.

template <class Real, int D>
[[gnu::always_inline]] inline void flux_chunk(const CurvilinearElasticPde&,
                                              const Real* q, Real* f, int n,
                                              int stride, Dir<D>) {
  using C = CurvilinearElasticPde;
  const Real* g0 = q + (C::kMetric + 3 * D + 0) * stride;
  const Real* g1 = q + (C::kMetric + 3 * D + 1) * stride;
  const Real* g2 = q + (C::kMetric + 3 * D + 2) * stride;
  const Real* rho = q + C::kRho * stride;
  const Real* sxx = q + C::kSxx * stride;
  const Real* syy = q + C::kSyy * stride;
  const Real* szz = q + C::kSzz * stride;
  const Real* syz = q + C::kSyz * stride;
  const Real* sxz = q + C::kSxz * stride;
  const Real* sxy = q + C::kSxy * stride;
  Real* fvx = f + C::kVx * stride;
  Real* fvy = f + C::kVy * stride;
  Real* fvz = f + C::kVz * stride;
#pragma omp simd
  for (int i = 0; i < n; ++i) {
    const Real inv_rho = rho[i] != Real(0) ? Real(1) / rho[i] : Real(0);
    fvx[i] = (g0[i] * sxx[i] + g1[i] * sxy[i] + g2[i] * sxz[i]) * inv_rho;
    fvy[i] = (g0[i] * sxy[i] + g1[i] * syy[i] + g2[i] * syz[i]) * inv_rho;
    fvz[i] = (g0[i] * sxz[i] + g1[i] * syz[i] + g2[i] * szz[i]) * inv_rho;
  }
  zero_rows<C::kSxx, C::kQuants>(f, n, stride);
}

template <class Real, int D>
[[gnu::always_inline]] inline void ncp_chunk(const CurvilinearElasticPde&,
                                             const Real* q, const Real* grad,
                                             Real* out, int n, int stride,
                                             Dir<D>) {
  using C = CurvilinearElasticPde;
  const Real* g0 = q + (C::kMetric + 3 * D + 0) * stride;
  const Real* g1 = q + (C::kMetric + 3 * D + 1) * stride;
  const Real* g2 = q + (C::kMetric + 3 * D + 2) * stride;
  const Real* rho = q + C::kRho * stride;
  const Real* cp = q + C::kCp * stride;
  const Real* cs = q + C::kCs * stride;
  const Real* gvx = grad + C::kVx * stride;
  const Real* gvy = grad + C::kVy * stride;
  const Real* gvz = grad + C::kVz * stride;
  Real* oxx = out + C::kSxx * stride;
  Real* oyy = out + C::kSyy * stride;
  Real* ozz = out + C::kSzz * stride;
  Real* oyz = out + C::kSyz * stride;
  Real* oxz = out + C::kSxz * stride;
  Real* oxy = out + C::kSxy * stride;
#pragma omp simd
  for (int i = 0; i < n; ++i) {
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
  zero_rows<C::kVx, C::kSxx>(out, n, stride);
  zero_rows<C::kRho, C::kQuants>(out, n, stride);
}

/// Calls chunk(offset, n) over a call's lines: each line as full chunks of
/// n = W lanes, passed as a compile-time constant, then one tail chunk of
/// len % W lanes.
template <int W, class Chunk>
void for_each_chunk(int len, int lines, long line_stride, Chunk&& chunk) {
  const int full = len - len % W;
  for (int l = 0; l < lines; ++l) {
    const long line = l * line_stride;
    for (int i = 0; i < full; i += W)
      chunk(line + i, std::integral_constant<int, W>{});
    if (full < len) chunk(line + full, len - full);
  }
}

}  // namespace
}  // namespace exastp::detail

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
/// above, instantiated in fp64 and fp32 for every PDE of
/// EXASTP_FOR_EACH_PDE (pde_list.h): one switch on the direction, then the
/// call's lines in chunks of W lanes, the TU's double vector width.
#define EXASTP_DEFINE_PDE_LINES(SUFFIX, W)                                   \
  template <class Pde, class Real>                                           \
  void flux_line_##SUFFIX(const Pde& pde, const Real* q, int dir, Real* f,   \
                          int len, int stride, int lines,                    \
                          long line_stride) {                                \
    with_dir(dir, [&](auto d) {                                              \
      for_each_chunk<W>(len, lines, line_stride, [&](long at, auto n) {      \
        flux_chunk(pde, q + at, f + at, n, stride, d);                       \
      });                                                                    \
    });                                                                      \
  }                                                                          \
  template <class Pde, class Real>                                           \
  void ncp_line_##SUFFIX(const Pde& pde, const Real* q, const Real* grad,    \
                         int dir, Real* out, int len, int stride, int lines, \
                         long line_stride) {                                 \
    with_dir(dir, [&](auto d) {                                              \
      for_each_chunk<W>(len, lines, line_stride, [&](long at, auto n) {      \
        ncp_chunk(pde, q + at, grad + at, out + at, n, stride, d);           \
      });                                                                    \
    });                                                                      \
  }                                                                          \
  EXASTP_FOR_EACH_PDE(EXASTP_INSTANTIATE_PDE_LINES, SUFFIX)

// The face-trace bodies behind kernels/face.h, instantiated once per ISA
// translation unit (pde_lines_baseline.cpp / pde_lines_avx2.cpp /
// pde_lines_avx512.cpp) next to the PDE line functions.
//
// The AoS projection and the lift vectorize over the padded quantity lanes
// of the AoS trace; the AoSoA projection works on the TU's register blocks
// (tensor/transpose_blocks.h); the six face solves evaluate the concrete
// PDE's pointwise flux inlined on each AoS trace node. Each body books its
// FLOPs once per call at the packing width of its TU.
//
// Bits: an FMA target may contract a multiply-add that the baseline TU
// rounds twice, so the three ISA paths agree to rounding, not bit for bit.
// Each path is deterministic on its own, and every element is summed in
// the same order on every path. The two projection bodies of one TU give
// the same bits at every optimization level: both issue the TU's
// multiply-add explicitly (mul_add, the blocks' fmadd: fused where the TU
// has FMA, rounded twice in the baseline TU) instead of leaving it to the
// optimizer's contraction, which -O0 does not perform.
//
// Internal linkage on purpose, as in pde_lines_impl.h: each ISA TU must
// get its own copy compiled with its own -m flags.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "exastp/common/taylor.h"
#include "exastp/kernels/face.h"
#include "exastp/pde/pde_base.h"
#include "exastp/pde/pde_list.h"
#include "exastp/perf/flop_count.h"
#include "exastp/tensor/transpose_blocks.h"

namespace exastp::detail {
namespace {

/// acc + w * v, rounded once where the TU has FMA and twice elsewhere:
/// the one multiply-add of both projection bodies (Block1::fmadd is the
/// same expression).
inline double mul_add(double w, double v, double acc) {
#if defined(__FMA__)
  return std::fma(w, v, acc);
#else
  return acc + w * v;
#endif
}

template <class Real>
void project_faces_body(Isa isa, const AosLayout& aos,
                        const BasisTables& basis, const Real* q,
                        double* traces) {
  const int n = aos.n;
  const int mp = aos.m_pad;
  const std::size_t t = FaceLayout(aos).size();
  std::memset(traces, 0, 6 * t * sizeof(double));
  const double* phl = basis.phi_left.data();
  const double* phr = basis.phi_right.data();
  // One pass in cell order: every trace element receives its n terms in
  // ascending l (k1 for x-faces, k2 for y-faces, k3 for z-faces).
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1) {
        const Real* src = q + aos.idx(k3, k2, k1, 0);
        const std::size_t xf = (static_cast<std::size_t>(k3) * n + k2) * mp;
        const std::size_t yf = (static_cast<std::size_t>(k3) * n + k1) * mp;
        const std::size_t zf = (static_cast<std::size_t>(k2) * n + k1) * mp;
        double* x0 = traces + xf;
        double* x1 = traces + t + xf;
        double* y0 = traces + 2 * t + yf;
        double* y1 = traces + 3 * t + yf;
        double* z0 = traces + 4 * t + zf;
        double* z1 = traces + 5 * t + zf;
        const double wx0 = phl[k1], wx1 = phr[k1];
        const double wy0 = phl[k2], wy1 = phr[k2];
        const double wz0 = phl[k3], wz1 = phr[k3];
#pragma omp simd
        for (int s = 0; s < mp; ++s) {
          const double v = static_cast<double>(src[s]);
          x0[s] = mul_add(wx0, v, x0[s]);
          x1[s] = mul_add(wx1, v, x1[s]);
          y0[s] = mul_add(wy0, v, y0[s]);
          y1[s] = mul_add(wy1, v, y1[s]);
          z0[s] = mul_add(wz0, v, z0[s]);
          z1[s] = mul_add(wz1, v, z1[s]);
        }
      }
  FlopCounter::instance().add(packed_width_class(isa),
                              12ull * n * n * n * mp);
}

/// The y or z faces of one face row of an AoSoA tensor: the n lines
/// first + l * step (l = k2 for y, k3 for z) folded in ascending l, a
/// block of W quantity rows x W lanes at a time in 2W accumulators, then
/// transposed so each register holds W quantities of one face node k1,
/// which is stored at out0 / out1 + k1 * mp. Quantity rows past m stay
/// +0.0.
template <class B, class Real>
void fold_face_row(const Real* first, std::size_t step, int n, int m, int np,
                   int mp, const double* phl, const double* phr,
                   double* out0, double* out1) {
  using Vec = typename B::Vec;
  constexpr int W = B::kW;
  for (int s0 = 0; s0 < mp; s0 += W) {
    const int rows = std::min(W, std::max(0, m - s0));
    for (int k0 = 0; k0 < n; k0 += W) {
      Vec a0[W], a1[W];
      for (int i = 0; i < W; ++i) a0[i] = a1[i] = B::zero();
      for (int l = 0; l < n; ++l) {
        const Real* src = first + l * step + static_cast<std::size_t>(s0) * np +
                          k0;
        const Vec w0 = B::set1(phl[l]);
        const Vec w1 = B::set1(phr[l]);
        for (int i = 0; i < W; ++i) {
          if (i >= rows) break;
          const Vec v = B::load(src + static_cast<std::size_t>(i) * np);
          a0[i] = B::fmadd(w0, v, a0[i]);
          a1[i] = B::fmadd(w1, v, a1[i]);
        }
      }
      B::transpose(a0);
      B::transpose(a1);
      for (int j = 0; j < W && k0 + j < n; ++j) {
        B::store(out0 + static_cast<std::size_t>(k0 + j) * mp + s0, a0[j]);
        B::store(out1 + static_cast<std::size_t>(k0 + j) * mp + s0, a1[j]);
      }
    }
  }
}

/// project_faces of an AoSoA tensor (face.h), on the TU's register block B:
/// every element gets the AoS body's chain, so the traces equal those of
/// the tensor's AoS transpose byte for byte. Books the lanes it executes:
/// 4 n^3 mp for the x faces (register-transposed blocks of mp quantity
/// lanes) and 4 n^2 m n_pad for each of the y and z faces (whole padded
/// x-lines of the m quantity rows).
template <class B, class Real>
void project_faces_aosoa_body(Isa isa, const AosoaLayout& aosoa,
                              const BasisTables& basis, const Real* q,
                              double* traces) {
  using Vec = typename B::Vec;
  constexpr int W = B::kW;
  const int n = aosoa.n, m = aosoa.m, np = aosoa.n_pad;
  const FaceLayout face = face_layout(isa, aosoa);
  const int mp = face.m_pad;
  const std::size_t t = face.size();
  const std::size_t line = static_cast<std::size_t>(m) * np;
  const double* phl = basis.phi_left.data();
  const double* phr = basis.phi_right.data();

  // x faces: each line's quantity blocks transposed in registers, so a
  // register holds W quantities of node k1, folded in ascending k1.
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2) {
      const Real* src = q + aosoa.line_offset(k3, k2);
      double* x0 = traces + (static_cast<std::size_t>(k3) * n + k2) * mp;
      double* x1 = x0 + t;
      for (int s0 = 0; s0 < mp; s0 += W) {
        Vec a0 = B::zero(), a1 = B::zero();
        for (int k0 = 0; k0 < n; k0 += W) {
          Vec r[W];
          for (int i = 0; i < W; ++i)
            r[i] = s0 + i < m
                       ? B::load(src + static_cast<std::size_t>(s0 + i) * np +
                                 k0)
                       : B::zero();
          B::transpose(r);
          for (int j = 0; j < W && k0 + j < n; ++j) {
            a0 = B::fmadd(B::set1(phl[k0 + j]), r[j], a0);
            a1 = B::fmadd(B::set1(phr[k0 + j]), r[j], a1);
          }
        }
        B::store(x0 + s0, a0);
        B::store(x1 + s0, a1);
      }
    }
  // y faces: row k3 folds the lines (k3, k2) along k2; z faces: row k2
  // folds the lines (k3, k2) along k3.
  const std::size_t row = static_cast<std::size_t>(n) * mp;
  for (int k3 = 0; k3 < n; ++k3)
    fold_face_row<B>(q + aosoa.line_offset(k3, 0), line, n, m, np, mp, phl,
                     phr, traces + 2 * t + k3 * row,
                     traces + 3 * t + k3 * row);
  for (int k2 = 0; k2 < n; ++k2)
    fold_face_row<B>(q + aosoa.line_offset(0, k2), n * line, n, m, np, mp,
                     phl, phr, traces + 4 * t + k2 * row,
                     traces + 5 * t + k2 * row);
  FlopCounter::instance().add(
      packed_width_class(isa),
      4ull * n * n * n * mp + 8ull * n * n * m * np);
}

/// f = F_dir(q) + B_dir(q) q: the full normal Jacobian applied to the
/// trace node, so flux-form and NCP-form PDEs agree at faces.
template <class Pde>
inline void normal_flux(const Pde& pde, const double* q, int dir, double* f) {
  pde.flux(q, dir, f);
  if constexpr (!pde_ncp_is_zero<Pde>()) {
    double b[Pde::kQuants];
    pde.ncp(q, q, dir, b);
    for (int s = 0; s < Pde::kQuants; ++s) f[s] += b[s];
  }
}

/// FLOPs of one normal_flux node.
template <class Pde>
constexpr std::uint64_t normal_flux_flops() {
  return pde_ncp_is_zero<Pde>() ? Pde::kFluxFlops
                                : Pde::kFluxFlops + Pde::kNcpFlops +
                                      Pde::kQuants;
}

/// Ghost node of a domain-boundary face (see surface_update in face.h).
template <class Pde>
inline void ghost_node(const Pde& pde, BoundaryKind kind, int dir,
                       const double* inner, double* ghost) {
  if (kind == BoundaryKind::kWall) {
    if constexpr (requires { pde.wall_reflect(inner, dir, ghost); }) {
      pde.wall_reflect(inner, dir, ghost);
    } else {
      for (int s = 0; s < Pde::kQuants; ++s) ghost[s] = inner[s];
    }
    return;
  }
  for (int s = 0; s < Pde::kVars; ++s) ghost[s] = 0.0;
  for (int s = Pde::kVars; s < Pde::kQuants; ++s) ghost[s] = inner[s];
}

template <class Pde>
bool surface_update_body(Isa isa, const Pde& pde, const FaceUpdate& u) {
  constexpr int kQ = Pde::kQuants;
  constexpr int kV = Pde::kVars;
  const int n = u.layout.n;
  const int mp = u.layout.m_pad;
  const int nn = n * n;
  const std::size_t t = u.layout.size();

  // Six Rusanov solves: jump_f = F*_f - F_own,f at every node of face f.
  for (int f = 0; f < 6; ++f) {
    const int dir = f / 2;
    const int side = f % 2;
    const double* own = u.own + f * t;
    const double* nb = u.neighbour[static_cast<std::size_t>(f)];
    double* jump = u.jump + f * t;
    for (int k = 0; k < nn; ++k) {
      const double* qo = own + static_cast<std::size_t>(k) * mp;
      double ghost[kQ];
      const double* qn = ghost;
      if (nb != nullptr)
        qn = nb + static_cast<std::size_t>(k) * mp;
      else
        ghost_node(pde, u.boundary[static_cast<std::size_t>(f)], dir, qo,
                   ghost);
      const double* ql = side == 1 ? qo : qn;
      const double* qr = side == 1 ? qn : qo;
      double fl[kQ], fr[kQ];
      normal_flux(pde, ql, dir, fl);
      normal_flux(pde, qr, dir, fr);
      const double smax = std::max(pde.max_wave_speed(ql, dir),
                                   pde.max_wave_speed(qr, dir));
      const double* fo = side == 1 ? fl : fr;
      double* j = jump + static_cast<std::size_t>(k) * mp;
      for (int v = 0; v < kV; ++v) {
        const double fstar =
            0.5 * (fl[v] + fr[v]) + 0.5 * smax * (qr[v] - ql[v]);
        j[v] = fstar - fo[v];
      }
      // Parameter rows do not evolve: F* is zero there, and so is F_own.
      for (int v = kV; v < mp; ++v) j[v] = 0.0;
    }
  }

  // The lift of all six faces in one pass over the cell.
  double c[6][kMaxOrder];
  for (int f = 0; f < 6; ++f) {
    const int side = f % 2;
    const double sign = side == 0 ? -1.0 : 1.0;
    const double* lift = side == 0 ? u.basis->lift_left.data()
                                   : u.basis->lift_right.data();
    for (int l = 0; l < n; ++l) c[f][l] = sign * u.scale[f / 2] * lift[l];
  }
  const double* jx0 = u.jump;
  const double* jx1 = u.jump + t;
  const double* jy0 = u.jump + 2 * t;
  const double* jy1 = u.jump + 3 * t;
  const double* jz0 = u.jump + 4 * t;
  const double* jz1 = u.jump + 5 * t;
  // v - v is 0 for every finite v and NaN otherwise, so `bad` stays 0
  // exactly when every written value is finite.
  double bad = 0.0;
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1) {
        double* o =
            u.out + ((static_cast<std::size_t>(k3) * n + k2) * n + k1) * mp;
        const std::size_t xf = (static_cast<std::size_t>(k3) * n + k2) * mp;
        const std::size_t yf = (static_cast<std::size_t>(k3) * n + k1) * mp;
        const std::size_t zf = (static_cast<std::size_t>(k2) * n + k1) * mp;
        const double cx0 = c[0][k1], cx1 = c[1][k1];
        const double cy0 = c[2][k2], cy1 = c[3][k2];
        const double cz0 = c[4][k3], cz1 = c[5][k3];
#pragma omp simd reduction(+ : bad)
        for (int s = 0; s < mp; ++s) {
          double v = o[s];
          v += cx0 * jx0[xf + s];
          v += cx1 * jx1[xf + s];
          v += cy0 * jy0[yf + s];
          v += cy1 * jy1[yf + s];
          v += cz0 * jz0[zf + s];
          v += cz1 * jz1[zf + s];
          o[s] = v;
          bad += v - v;
        }
      }

  // Per face node: two normal fluxes, the Rusanov combination (5 per
  // variable + 1) and the jump (1 per variable); per cell element: one
  // multiply-add per face.
  const std::uint64_t per_node =
      2 * normal_flux_flops<Pde>() + 6ull * kV + 1;
  FlopCounter::instance().add(
      packed_width_class(isa),
      6ull * nn * per_node + 12ull * nn * n * mp);
  return bad == 0.0;
}

}  // namespace
}  // namespace exastp::detail

/// Explicit instantiation of one ISA's surface update for one PDE.
#define EXASTP_INSTANTIATE_FACE_OPS(SUFFIX, PDE) \
  template bool surface_update_##SUFFIX(const PDE&, const FaceUpdate&);

/// One ISA TU's face entry points (declared in face.h) on its register
/// block BLOCK (tensor/transpose_blocks.h), the surface update
/// instantiated for every PDE of EXASTP_FOR_EACH_PDE (pde/pde_list.h).
#define EXASTP_DEFINE_FACE_OPS(SUFFIX, ISA, BLOCK)                           \
  void project_faces_##SUFFIX(const AosLayout& aos, const BasisTables& basis, \
                              const double* q, double* traces) {             \
    project_faces_body(ISA, aos, basis, q, traces);                          \
  }                                                                          \
  void project_faces_##SUFFIX(const AosLayout& aos, const BasisTables& basis, \
                              const float* q, double* traces) {              \
    project_faces_body(ISA, aos, basis, q, traces);                          \
  }                                                                          \
  void project_faces_##SUFFIX(const AosoaLayout& aosoa,                      \
                              const BasisTables& basis, const double* q,     \
                              double* traces) {                              \
    project_faces_aosoa_body<BLOCK>(ISA, aosoa, basis, q, traces);           \
  }                                                                          \
  void project_faces_##SUFFIX(const AosoaLayout& aosoa,                      \
                              const BasisTables& basis, const float* q,      \
                              double* traces) {                              \
    project_faces_aosoa_body<BLOCK>(ISA, aosoa, basis, q, traces);           \
  }                                                                          \
  template <class Pde>                                                       \
  bool surface_update_##SUFFIX(const Pde& pde, const FaceUpdate& u) {        \
    return surface_update_body(ISA, pde, u);                                 \
  }                                                                          \
  EXASTP_FOR_EACH_PDE(EXASTP_INSTANTIATE_FACE_OPS, SUFFIX)

// Face traces and the surface half of the corrector (paper eq. (5)).
//
// A face trace is a cell's time-averaged state projected onto one of its
// six faces: n^2 nodes x m_pad quantities, AoS with the same quantity
// padding as the cell tensor. Node (a, b) are the two in-face coordinates
// in ascending dimension order (x-face: (y, z), y-face: (x, z), z-face:
// (x, y)). The paper calls the projection "a single matrix-matrix
// multiplication, leaving no room for optimization" (Sec. II-B) and
// re-projects both cells at every face. Here each cell publishes its
// traces once, like ExaHyPE's engine (Reinarz et al., "ExaHyPE: An engine
// for parallel dynamically adaptive simulations of wave problems", Comput.
// Phys. Commun. 254, 2020):
//
//   project_faces   fills a cell tensor's six traces. The AoS kernels
//                   (generic, LoG, SplitCK, SoA-UF) project their averages
//                   with the AoS body, RK projects every stage state with
//                   it, and the AoSoA kernel projects its averages in its
//                   own layout with the AoSoA body. Both bodies sum every
//                   trace element in the same chain, so a trace has the
//                   same bits whichever layout it came from;
//   surface_update  solves one cell's six Rusanov problems from its own
//                   traces and one trace per neighbour (a ghost trace on
//                   wall/outflow faces), then applies the strong-form
//                   DGSEM lift of all six faces in one pass over the cell.
//                   Each element adds its six terms in the order x0, x1,
//                   y0, y1, z0, z1.
//
// All bodies live in face_impl.h and are compiled once per ISA
// translation unit (pde_lines_<isa>.cpp); the functions below dispatch on
// the Isa, and each call books its FLOPs once, at the dispatched packing
// width, and reports its operands once to an installed access recorder.
// surface_update is templated on the concrete PDE; the solvers reach it
// through one virtual PdeRuntime::surface_update call per cell.
//
// Storage: a view's trace buffer keeps six traces per owned cell (face
// f = 2 dir + side of cell c at slot 6c + f) followed by one trace per
// halo slot — the face that halo cell shares with the view. That one
// trace per halo cell is the unit the halo exchange moves
// (solver/exchange_backend.h).
//
// Faces stay cell-centric: each interior face is solved once from each
// side, always assembled as (left = lower cell, right = upper cell), so
// both cells compute the same F* bits from the same two traces. The sweeps
// need no face ownership, are race-free, and their bits do not depend on
// the decomposition. For a linear PDE the numerical flux is linear in its
// inputs (Sec. II-A), so solving on time-averaged traces is exact, and the
// LTS cross-cluster combinations can be formed on traces (docs/lts.md).
#pragma once

#include <array>
#include <cstddef>

#include "exastp/basis/basis_tables.h"
#include "exastp/common/simd.h"
#include "exastp/mesh/grid.h"
#include "exastp/perf/access_recorder.h"
#include "exastp/tensor/layout.h"

namespace exastp {

/// Layout of one face trace: n^2 nodes, padded quantities.
struct FaceLayout {
  int n = 0;
  int m = 0;
  int m_pad = 0;

  FaceLayout() = default;
  FaceLayout(const AosLayout& aos) : n(aos.n), m(aos.m), m_pad(aos.m_pad) {}

  std::size_t size() const { return static_cast<std::size_t>(n) * n * m_pad; }
  std::size_t idx(int b, int a, int s) const {
    return (static_cast<std::size_t>(b) * n + a) * m_pad + s;
  }
};

/// Traces in a view's trace buffer: six per owned cell, one per halo slot.
inline std::size_t trace_count(const Grid& grid) {
  return 6 * static_cast<std::size_t>(grid.num_cells()) +
         static_cast<std::size_t>(grid.num_halo_cells());
}

/// Slot of the trace of `cell` on face (dir, side) in a view's trace
/// buffer (multiply by FaceLayout::size() for the offset). A halo slot
/// (cell >= num_cells()) holds only the face it shares with the view, so
/// (dir, side) must name that face.
inline std::size_t trace_slot(const Grid& grid, int cell, int dir, int side) {
  const std::size_t owned = static_cast<std::size_t>(grid.num_cells());
  if (cell < grid.num_cells())
    return 6 * static_cast<std::size_t>(cell) + 2 * dir + side;
  return 5 * owned + static_cast<std::size_t>(cell);
}

/// Everything one cell's surface update reads and writes.
struct FaceUpdate {
  FaceLayout layout;
  const BasisTables* basis = nullptr;
  /// The cell's six traces, face f = 2 dir + side at f * layout.size().
  const double* own = nullptr;
  /// The trace across face f, or nullptr on a domain-boundary face.
  std::array<const double*, 6> neighbour{};
  /// Boundary condition of the faces whose neighbour is nullptr.
  std::array<BoundaryKind, 6> boundary{};
  /// Lift scale per direction: dt / h (ADER) or 1 / h (RK).
  std::array<double, 3> scale{};
  /// Caller scratch of 6 * layout.size() doubles (the six jumps).
  double* jump = nullptr;
  /// The cell tensor the lift adds into (qnew or rhs).
  double* out = nullptr;
};

namespace detail {

// Per-ISA entry points, defined in pde_lines_<isa>.cpp (bodies in
// face_impl.h; surface_update_* instantiated for every line PDE). The
// projection takes an AoS or AoSoA cell tensor of doubles or floats.
#define EXASTP_DECLARE_PROJECT_FACES(SUFFIX)                                 \
  void project_faces_##SUFFIX(const AosLayout& aos, const BasisTables& basis, \
                              const double* q, double* traces);              \
  void project_faces_##SUFFIX(const AosLayout& aos, const BasisTables& basis, \
                              const float* q, double* traces);               \
  void project_faces_##SUFFIX(const AosoaLayout& aosoa,                      \
                              const BasisTables& basis, const double* q,     \
                              double* traces);                               \
  void project_faces_##SUFFIX(const AosoaLayout& aosoa,                      \
                              const BasisTables& basis, const float* q,      \
                              double* traces);
EXASTP_DECLARE_PROJECT_FACES(baseline)
EXASTP_DECLARE_PROJECT_FACES(avx2)
EXASTP_DECLARE_PROJECT_FACES(avx512)
#undef EXASTP_DECLARE_PROJECT_FACES
template <class Pde>
bool surface_update_baseline(const Pde& pde, const FaceUpdate& u);
template <class Pde>
bool surface_update_avx2(const Pde& pde, const FaceUpdate& u);
template <class Pde>
bool surface_update_avx512(const Pde& pde, const FaceUpdate& u);

/// Reports a surface update to an installed recorder: per face, the own
/// trace, the neighbour's and the jump; then the lift's six jumps and the
/// cell.
inline void record_surface_update(AccessRecorder& rec, const FaceUpdate& u) {
  const std::size_t t = u.layout.size();
  for (std::size_t f = 0; f < 6; ++f) {
    rec.range(u.own + f * t, t);
    if (u.neighbour[f] != nullptr) rec.range(u.neighbour[f], t);
    rec.range(u.jump + f * t, t);
  }
  rec.range(u.jump, 6 * t);
  rec.range(u.out, t * static_cast<std::size_t>(u.layout.n));
}

}  // namespace detail

/// The layout of the traces projected from a cell tensor at `isa`: the AoS
/// tensor's own quantity padding, or for an AoSoA tensor the padding of the
/// engine's AoS layout at that ISA.
inline FaceLayout face_layout(Isa, const AosLayout& aos) {
  return FaceLayout(aos);
}
inline FaceLayout face_layout(Isa isa, const AosoaLayout& aosoa) {
  return FaceLayout(AosLayout(aosoa.n, aosoa.m, isa));
}

namespace detail {

/// Reports a projection to an installed recorder, pass by pass: the AoS
/// body reads the cell once and writes all six traces; the AoSoA body
/// reads it once per direction and writes that direction's two traces.
template <class Real>
void record_projection(AccessRecorder& rec, Isa isa, const AosLayout& aos,
                       const Real* q, double* traces) {
  rec.range(q, aos.size());
  rec.range(traces, 6 * face_layout(isa, aos).size());
}
template <class Real>
void record_projection(AccessRecorder& rec, Isa isa,
                       const AosoaLayout& aosoa, const Real* q,
                       double* traces) {
  const std::size_t t = face_layout(isa, aosoa).size();
  for (std::size_t dir = 0; dir < 3; ++dir) {
    rec.range(q, aosoa.size());
    rec.range(traces + 2 * dir * t, 2 * t);
  }
}

}  // namespace detail

/// Projects the cell tensor q onto its six faces:
/// traces[f][(a, b), s] = sum_l phi_side[l] * q[node with dim-dir index l],
/// each element a chain from +0.0 over ascending l, one multiply-add per
/// term (fused on the FMA ISAs); a zero-padded tensor gives +0.0 in the
/// quantity padding lanes.
/// `traces` holds 6 * face_layout(isa, layout).size() doubles, face
/// f = 2 dir + side at f * size(). q is an AoS or (padded to the width of
/// `isa`) AoSoA cell tensor; a float tensor is widened exactly, so its
/// traces are those of the widened tensor. The AoS body makes one pass in
/// cell order; the AoSoA body folds whole x-lines for the y and z faces
/// and register-transposed quantity blocks for the x faces.
template <class Layout, class Real>
inline void project_faces(Isa isa, const Layout& layout,
                          const BasisTables& basis, const Real* q,
                          double* traces) {
  if (AccessRecorder* rec = AccessRecorder::thread_instance())
    detail::record_projection(*rec, isa, layout, q, traces);
  switch (isa) {
    case Isa::kScalar:
      detail::project_faces_baseline(layout, basis, q, traces);
      break;
    case Isa::kAvx2:
      detail::project_faces_avx2(layout, basis, q, traces);
      break;
    case Isa::kAvx512:
      detail::project_faces_avx512(layout, basis, q, traces);
      break;
  }
}

/// One cell's surface update: for each face, the Rusanov flux of (left =
/// lower-side state, right = upper-side state),
///   F* = 1/2 (F_L + F_R) + 1/2 smax (q_R - q_L),
/// for the convention dq/dt = dF/dx, with F the full normal Jacobian
/// applied to the trace (flux + ncp, so flux- and NCP-form PDEs agree) and
/// zero parameter rows; then
///   out_k += sign * scale[dir] * lift_side[k_dir] * (F* - F_own)(a, b)
/// with sign -1 on the lower and +1 on the upper face. Ghost traces:
/// kWall mirrors the inner state through the PDE, every other kind is
/// absorbing outflow (zero wave state, copied parameter rows). Allocates
/// nothing. Returns false when a value the lift wrote is not finite.
template <class Pde>
bool surface_update(Isa isa, const Pde& pde, const FaceUpdate& u) {
  if (AccessRecorder* rec = AccessRecorder::thread_instance())
    detail::record_surface_update(*rec, u);
  switch (isa) {
    case Isa::kScalar:
      return detail::surface_update_baseline(pde, u);
    case Isa::kAvx2:
      return detail::surface_update_avx2(pde, u);
    case Isa::kAvx512:
      return detail::surface_update_avx512(pde, u);
  }
  return false;
}

}  // namespace exastp

// Uniform Cartesian hexahedral mesh, optionally a partitioned view.
//
// Peano substitute (see DESIGN.md): the paper's results are single-socket
// and entirely dominated by element-local kernels, so a uniform structured
// grid with periodic / outflow / reflecting-wall boundaries carries every
// experiment. Cells are unit-aspect boxes; the curvilinear geometry of the
// benchmark enters through per-node metric quantities (mesh/geometry.h),
// not through the grid itself — exactly like the boundary-fitted meshes of
// [8] store the transformation at each vertex.
//
// Domain decomposition (mesh/partition.h) turns the global grid into a set
// of views: a Grid is always a contiguous cell box [lo, lo + size) of a
// global domain (the whole domain in the common case). All geometry — dx,
// cell_origin, locate — is computed in *global* coordinates from the global
// spec, so a view is bitwise-consistent with the monolithic grid: the same
// physical cell yields the same node positions and reference coordinates no
// matter which view addresses it. Faces whose neighbour lies outside the
// view map to appended halo cell slots (indices >= num_cells()), which the
// solvers back with one exchanged face trace each (kernels/face.h,
// solver/exchange_backend.h).
#pragma once

#include <array>
#include <cstddef>

#include "exastp/common/check.h"

namespace exastp {

enum class BoundaryKind {
  kPeriodic,  ///< wraps to the opposite side
  kOutflow,   ///< copies the interior state (absorbing, first order)
  kWall,      ///< reflecting wall via the PDE's mirror state
};

struct GridSpec {
  std::array<int, 3> cells{1, 1, 1};
  std::array<double, 3> origin{0.0, 0.0, 0.0};
  std::array<double, 3> extent{1.0, 1.0, 1.0};
  std::array<BoundaryKind, 3> boundary{BoundaryKind::kPeriodic,
                                       BoundaryKind::kPeriodic,
                                       BoundaryKind::kPeriodic};
};

/// Result of a neighbour query: an interior cell of the view, a halo slot
/// (cell >= num_cells(), backed by exchanged storage), or a boundary face
/// of the global domain.
struct NeighborRef {
  int cell = -1;  ///< neighbour cell index, or -1 at a non-periodic boundary
  bool boundary = false;
  BoundaryKind kind = BoundaryKind::kPeriodic;
};

class Grid {
 public:
  /// Whole-domain grid: the view covers every cell, no halos.
  explicit Grid(const GridSpec& spec);

  /// Partitioned view: the cell box [lo, lo + size) of the global grid
  /// described by `global_spec`. Geometry stays in global coordinates, so
  /// every view of the same domain is bitwise-consistent with the
  /// monolithic grid; spec() describes the view box itself (for writers
  /// that emit per-shard pieces).
  Grid(const GridSpec& global_spec, const std::array<int, 3>& lo,
       const std::array<int, 3>& size);

  /// Cells owned by this view (excludes halo slots).
  int num_cells() const { return nx_ * ny_ * nz_; }
  /// Halo cell slots appended after the owned cells: one per off-view
  /// face-neighbour plane. 0 for whole-domain grids.
  int num_halo_cells() const { return num_halo_; }
  /// True when the view does not span the whole global domain.
  bool partitioned() const { return partitioned_; }

  /// The view box as a GridSpec (cells = view size, origin/extent = the
  /// box; derived metadata — geometry queries use global_spec()).
  const GridSpec& spec() const { return spec_; }
  const GridSpec& global_spec() const { return global_; }
  /// Lower corner of the view in global cell coordinates.
  const std::array<int, 3>& lo() const { return lo_; }

  std::array<int, 3> coords(int cell) const;
  int index(int cx, int cy, int cz) const {
    return (cz * ny_ + cy) * nx_ + cx;
  }
  /// Index of an owned cell in the global grid's addressing.
  int global_cell(int cell) const;

  double dx(int d) const { return dx_[d]; }
  std::array<double, 3> dx() const { return dx_; }
  std::array<double, 3> inv_dx() const {
    return {1.0 / dx_[0], 1.0 / dx_[1], 1.0 / dx_[2]};
  }
  /// Physical coordinates of the lower corner of a cell (global frame).
  std::array<double, 3> cell_origin(int cell) const;
  double cell_volume() const { return dx_[0] * dx_[1] * dx_[2]; }

  /// Neighbour across the face normal to `dir` on `side` (0 lower, 1
  /// upper): an owned cell (wrapping locally when the view spans the whole
  /// dimension), a halo slot when the neighbour lives in another view, or
  /// a boundary face of the global domain.
  NeighborRef neighbor(int cell, int dir, int side) const;

  /// First halo cell slot of the face normal to `dir` on `side`, or -1
  /// when that face needs no halo (in-view wrap or true domain boundary).
  /// Each halo face is a contiguous block of plane-many slots ordered by
  /// the two in-face coordinates in ascending dimension order (b-major,
  /// a-minor) — the pack/unpack order of HaloPlan.
  int halo_begin(int dir, int side) const {
    return halo_begin_[dir][side];
  }

  /// Cell of this view containing a physical point plus its reference
  /// coordinates in [0,1]^3. Points on (or within rounding of) the global
  /// domain boundary are clamped into the adjacent cell, so a receiver at
  /// `origin + extent` resolves to the last cell with xi = 1 instead of
  /// throwing. Throws if the point lies outside the global domain, or
  /// outside this view's box for partitioned views.
  int locate(const std::array<double, 3>& x,
             std::array<double, 3>* xi = nullptr) const;

 private:
  GridSpec spec_;    ///< the view box
  GridSpec global_;  ///< the domain the view belongs to
  std::array<int, 3> lo_{0, 0, 0};
  int nx_, ny_, nz_;          ///< view cells per dimension
  std::array<int, 3> gn_{};   ///< global cells per dimension
  std::array<double, 3> dx_;  ///< global spacing
  bool partitioned_ = false;
  int halo_begin_[3][2];
  int num_halo_ = 0;
};

}  // namespace exastp

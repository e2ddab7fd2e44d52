// The cell core both time steppers share.
//
// AderDgSolver and RkDgSolver discretize space identically: nodal DG on a
// (possibly partitioned) Cartesian grid, the cell states stored in one
// contiguous aligned block in an AoS layout, and six face traces per owned
// cell plus one per halo slot (kernels/face.h), the unit the sharded
// exchange moves. DgSolver owns that state and everything defined on it
// alone: the accessors, the initial-condition fill, node positions, point
// sources, the CFL bound and the phase loop. The steppers add only their
// time integration: the phases and the scratch their sweeps need.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "exastp/basis/basis_tables.h"
#include "exastp/common/aligned.h"
#include "exastp/common/simd.h"
#include "exastp/kernels/face.h"
#include "exastp/mesh/grid.h"
#include "exastp/pde/pde_base.h"
#include "exastp/solver/solver_base.h"

namespace exastp {

/// The overrides below are final: a stepper adds its phases, never a
/// second copy of the cell core (and the hot loops here call them
/// directly).
class DgSolver : public SolverBase {
 public:
  const Grid& grid() const final { return grid_; }
  const AosLayout& layout() const final { return layout_; }
  const BasisTables& basis() const final { return basis_; }
  double time() const final { return time_; }
  int order() const final { return basis_.n; }
  int evolved_quantities() const final { return vars_; }

  /// Fills every owned node from `init` (padding zeroed), resets the time
  /// to 0 and drops the cached wave speeds.
  void set_initial_condition(const InitialCondition& init) override;

  /// Locates the source's cell and projects the delta onto its basis; the
  /// stepper integrates it in time (ADER: the kernel's Taylor expansion,
  /// RK: the stage right-hand sides).
  void add_point_source(const MeshPointSource& source) final;

  /// CFL-limited stable time step, the standard explicit-DG bound
  /// h / (c (2N - 1)) per dimension. The per-cell maximum wave speed is
  /// cached on first use: every registered PDE's speed depends only on
  /// material parameter rows, which stay constant in time (zero flux and a
  /// zero Rusanov lift), so recomputing the eigenvalue sweep each step is
  /// pure waste. set_initial_condition invalidates the cache.
  double stable_dt(double cfl = 0.4) const final;

  /// One step = phases 0..num_step_phases()-1 in order.
  void step(double dt) final;
  /// A phase = its interior sweep, then its boundary remainder.
  void step_phase(int phase, double dt) final;

  /// Read-only view of a cell's padded AoS DOFs.
  const double* cell_dofs(int cell) const final {
    return q_.data() + static_cast<std::size_t>(cell) * cell_size_;
  }
  double* mutable_cell_dofs(int cell) {
    return q_.data() + static_cast<std::size_t>(cell) * cell_size_;
  }

  /// Physical position of a quadrature node of a cell.
  std::array<double, 3> node_position(int cell, int k1, int k2,
                                      int k3) const final;

 protected:
  /// Storage for `grid`'s owned cells in `layout` plus its trace buffer,
  /// and the interior/boundary split of the sweeps (mesh/partition.h).
  DgSolver(std::shared_ptr<const PdeRuntime> pde, const Grid& grid,
           const AosLayout& layout, Isa isa, NodeFamily family);

  /// A point source located on the mesh and projected onto the nodal basis
  /// of its cell.
  struct PreparedSource {
    int cell = -1;
    MeshPointSource source;
    AlignedVector psi;
  };

  /// The cell's six face traces in a trace buffer laid out like traces_.
  double* traces_of(AlignedVector& buffer, int cell) const {
    return buffer.data() + trace_slot(grid_, cell, 0, 0) * trace_layout_.size();
  }

  /// Cold path of the steppers' finite checks: throws std::runtime_error
  /// naming `who`, t, the global cell and the quantity of the lowest-index
  /// non-finite value of the owned state.
  [[noreturn]] void throw_nonfinite(const std::string& who) const;

  std::shared_ptr<const PdeRuntime> pde_;
  Grid grid_;
  const BasisTables& basis_;
  AosLayout layout_;
  Isa isa_;  ///< the stepper's ISA, also the face traces' width
  FaceLayout trace_layout_;
  std::size_t cell_size_;
  int vars_ = 0;  ///< evolved quantities (parameters excluded)

  /// q_ covers the owned cells; traces_ holds six face traces per owned
  /// cell plus one per halo slot (kernels/face.h trace_slot).
  AlignedVector q_, traces_;
  /// Cells that read no halo slot, and the rest; boundary is empty for
  /// whole-domain grids, so the monolithic path is one interior sweep.
  std::vector<int> interior_cells_, boundary_cells_;
  std::vector<PreparedSource> sources_;
  double time_ = 0.0;

 private:
  /// Per-cell max wave speed over nodes and directions; parameter-only,
  /// so it survives until the next set_initial_condition.
  mutable std::vector<double> wave_speed_cache_;
};

}  // namespace exastp

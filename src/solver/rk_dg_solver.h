// Runge-Kutta DG baseline solver.
//
// The paper motivates ADER-DG by its advantages over the more widespread
// RK-DG approach (Sec. I, citing [5]): one element-local predictor plus one
// corrector per step versus one full mesh-wide operator evaluation per RK
// stage. This classical RK4-DG solver provides the measurable baseline for
// that claim (bench_ablation_rkdg): same spatial discretization (nodal DG,
// collocation derivative, Rusanov fluxes, strong-form lift), same mesh and
// PDE interface, classical fourth-order Runge-Kutta in time.
//
// The stage operator is evaluated cell-parallel (ParallelFor): one fused
// traversal computes a cell's volume terms, the surface update from its own
// six face traces and one trace per neighbour (kernels/face.h; interior
// Riemann solves run once per side — identical bits) and any point-source
// injection, writing only that cell's rhs slice. Every stage state is
// projected onto its cells' faces at the tail of the phase that produces
// it (and q at set_initial_condition), so both steppers share one face
// path and one halo format: the traces. The RK axpy sweeps are chunked at
// vector-width granularity. Results are bitwise-identical for any thread
// count.
#pragma once

#include <functional>
#include <memory>

#include "exastp/basis/basis_tables.h"
#include "exastp/kernels/face.h"
#include "exastp/mesh/grid.h"
#include "exastp/pde/pde_base.h"
#include "exastp/solver/solver_base.h"

namespace exastp {

class RkDgSolver final : public SolverBase {
 public:
  RkDgSolver(std::shared_ptr<const PdeRuntime> pde, int order, Isa isa,
             const GridSpec& grid_spec,
             NodeFamily family = NodeFamily::kGaussLegendre);
  /// Same, over an arbitrary (possibly partitioned) grid view: the trace
  /// buffer grows one trace per halo slot, which the stage operator reads
  /// for off-shard neighbours.
  RkDgSolver(std::shared_ptr<const PdeRuntime> pde, int order, Isa isa,
             const Grid& grid, NodeFamily family = NodeFamily::kGaussLegendre);

  const Grid& grid() const override { return grid_; }
  const AosLayout& layout() const override { return layout_; }
  const BasisTables& basis() const override { return basis_; }
  double time() const override { return time_; }
  int order() const override { return basis_.n; }
  int evolved_quantities() const override { return vars_; }
  std::string stepper_name() const override { return "rk4"; }

  void set_initial_condition(const InitialCondition& init) override;

  /// RK source injection: psi * s(t) is added to the semi-discrete rhs at
  /// every stage time, so the classical RK4 tableau integrates the
  /// time-dependent source to fourth order.
  void add_point_source(const MeshPointSource& source) override;
  bool supports_point_sources() const override { return true; }

  /// Rebuilds the per-thread operator scratch.
  void set_thread_team(const ParallelFor& team) override;

  /// CFL-limited stable step (same bound as the ADER solver for an
  /// apples-to-apples time-to-solution comparison).
  double stable_dt(double cfl = 0.4) const override;

  /// One classical RK4 step: four evaluations of the semi-discrete DG
  /// operator.
  void step(double dt) override;

  /// Sharded stepping: one phase per RK stage. Every stage operator reads
  /// one neighbour trace per face of its input state — q for the first
  /// stage, the stage buffer afterwards — and the trace buffer always
  /// holds the traces of the next stage's input, so it is every phase's
  /// halo field. The operator traversal splits into an interior sweep (no
  /// halo neighbours, runs while the exchange is in flight) and the
  /// boundary remainder plus the element-wise stage sweeps and the
  /// projection of the new stage state after delivery.
  int num_step_phases() const override { return 4; }
  void step_phase(int phase, double dt) override;
  void step_phase_interior(int phase, double dt) override;
  void step_phase_boundary(int phase, double dt) override;
  std::vector<PhaseHaloField> step_phase_halo_fields(int /*phase*/) override {
    return {PhaseHaloField{traces_.data(), 0}};
  }

  const double* cell_dofs(int cell) const override {
    return q_.data() + static_cast<std::size_t>(cell) * cell_size_;
  }
  std::array<double, 3> node_position(int cell, int k1, int k2,
                                      int k3) const override;

  /// Number of semi-discrete operator evaluations so far (4 per step).
  long operator_evaluations() const { return operator_evals_; }

 private:
  /// Per-thread scratch of the fused volume + surface cell traversal.
  struct ThreadScratch {
    AlignedVector flux, gradq;  // per-cell volume scratch
    AlignedVector jump;         // the six face jumps of one surface update
    std::vector<double> ncp_tmp;
  };

  void rebuild_scratch();
  /// rhs = L(state) at time t over one cell list (the interior or
  /// boundary classification set): volume derivative terms, surface
  /// corrections and point-source injection, writing only the listed
  /// cells' rhs slices.
  void evaluate_operator(const AlignedVector& state, double t,
                         AlignedVector& rhs, const std::vector<int>& cells);
  void operator_cell(ThreadScratch& ts, const AlignedVector& state, double t,
                     int c, AlignedVector& rhs);
  /// Projects every owned cell of `state` onto its six faces (traces_).
  void project_state(const AlignedVector& state);
  /// Input state and evaluation time of one RK stage.
  const AlignedVector& stage_state(int phase) const {
    return phase == 0 ? q_ : stage_;
  }
  double stage_time(int phase, double dt) const {
    return phase == 0 ? time_ : (phase == 3 ? time_ + dt : time_ + 0.5 * dt);
  }
  void check_finite() const;

  std::shared_ptr<const PdeRuntime> pde_;
  Grid grid_;
  const BasisTables& basis_;
  Isa isa_;
  AosLayout layout_;
  FaceLayout trace_layout_;
  std::size_t cell_size_;
  int vars_ = 0;

  /// The state buffers cover the owned cells; traces_ holds six face
  /// traces per owned cell plus one per halo slot (kernels/face.h).
  AlignedVector q_, stage_, rhs_, accum_, traces_;
  /// Interior/boundary split of the operator traversal (mesh/partition.h);
  /// boundary is empty for whole-domain grids.
  std::vector<int> interior_cells_, boundary_cells_;
  std::vector<ThreadScratch> scratch_;  ///< one slot per thread

  double time_ = 0.0;
  long operator_evals_ = 0;
};

}  // namespace exastp

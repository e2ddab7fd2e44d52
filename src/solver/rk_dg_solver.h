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
// path and one halo format: the traces. They also share one cell core
// (DgSolver: storage, initial conditions, point sources, CFL bound, phase
// loop); this class adds the four stages. The RK axpy sweeps are chunked
// at vector-width granularity. Results are bitwise-identical for any
// thread count.
#pragma once

#include <memory>
#include <vector>

#include "exastp/solver/dg_solver.h"

namespace exastp {

class RkDgSolver final : public DgSolver {
 public:
  RkDgSolver(std::shared_ptr<const PdeRuntime> pde, int order, Isa isa,
             const GridSpec& grid_spec,
             NodeFamily family = NodeFamily::kGaussLegendre);
  /// Same, over an arbitrary (possibly partitioned) grid view: the trace
  /// buffer grows one trace per halo slot, which the stage operator reads
  /// for off-shard neighbours.
  RkDgSolver(std::shared_ptr<const PdeRuntime> pde, int order, Isa isa,
             const Grid& grid, NodeFamily family = NodeFamily::kGaussLegendre);

  std::string stepper_name() const override { return "rk4"; }

  /// The shared fill, then q's face traces (the first stage's input).
  void set_initial_condition(const InitialCondition& init) override;

  /// Rebuilds the per-thread operator scratch.
  void set_thread_team(const ParallelFor& team) override;

  /// One classical RK4 step = four phases, one per stage: four evaluations
  /// of the semi-discrete DG operator. Point sources enter as psi * s(t)
  /// added to the right-hand side at every stage time, so the tableau
  /// integrates the time-dependent source to fourth order.
  ///
  /// Every stage operator reads one neighbour trace per face of its input
  /// state — q for the first stage, the stage buffer afterwards — and the
  /// trace buffer always holds the traces of the next stage's input, so it
  /// is every phase's halo field. The operator traversal splits into an
  /// interior sweep (no halo neighbours, runs while the exchange is in
  /// flight) and the boundary remainder plus the element-wise stage sweeps
  /// and the projection of the new stage state after delivery.
  int num_step_phases() const override { return 4; }
  void step_phase_interior(int phase, double dt) override;
  void step_phase_boundary(int phase, double dt) override;
  std::vector<PhaseHaloField> step_phase_halo_fields(int /*phase*/) override {
    return {PhaseHaloField{traces_.data(), 0}};
  }

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

  /// The stage buffers cover the owned cells like q_.
  AlignedVector stage_, rhs_, accum_;
  std::vector<ThreadScratch> scratch_;  ///< one slot per thread

  long operator_evals_ = 0;
};

}  // namespace exastp

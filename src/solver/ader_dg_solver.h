// ADER-DG predictor-corrector time stepping (paper Sec. II, eq. (5)).
//
// One time step = one amortized mesh traversal:
//   1. per cell: STP kernel -> time-averaged state qavg (per-thread
//      scratch) and the volume update qnew = q + dt sum_d favg[d], which
//      the kernel forms in its own layout so the volume fluctuations favg
//      never leave it; the solver adds the direct time-integral of any
//      point source to qnew, then projects qavg onto the cell's six faces
//      while it is still in cache (kernels/face.h). The face traces are
//      all that outlives the predictor;
//   2. per cell: one surface update solves the cell's six Rusanov problems
//      from its own traces and one trace per neighbour (a ghost trace on
//      wall/outflow faces) and lifts them into qnew in one pass, at the
//      kernel's ISA width; the same pass flags non-finite values;
//   3. swap buffers, advance time, report a blow-up.
//
// Both mesh traversals are cell-parallel (ParallelFor): every write
// belongs to the traversed cell, each thread runs a forked kernel clone
// and its own aligned scratch. An interior face is solved from both
// adjacent cells — the same F* bits from the same two traces — so the
// update needs no face ownership, no coloring, and is bitwise-identical
// for any thread count and decomposition.
//
// DOF storage is one contiguous aligned block in the *kernel's* AoS layout
// (padded for the optimized variants), so the engine exercises exactly the
// data layout the paper optimizes. q and qnew cover the owned cells only;
// the trace buffers add one trace per halo slot, the unit the sharded
// exchange moves.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "exastp/basis/basis_tables.h"
#include "exastp/kernels/face.h"
#include "exastp/kernels/stp_common.h"
#include "exastp/mesh/grid.h"
#include "exastp/pde/pde_base.h"
#include "exastp/pde/point_source.h"
#include "exastp/solver/solver_base.h"

namespace exastp {

class AderDgSolver final : public SolverBase {
 public:
  /// `pde` is the runtime view used for face terms and boundary conditions;
  /// `kernel` must have been built for the same PDE (same quantity count).
  AderDgSolver(std::shared_ptr<const PdeRuntime> pde, StpKernel kernel,
               const GridSpec& grid_spec,
               NodeFamily family = NodeFamily::kGaussLegendre);
  /// Same, over an arbitrary (possibly partitioned) grid view: the trace
  /// buffers grow one trace per halo slot, which the corrector reads for
  /// off-shard neighbours.
  AderDgSolver(std::shared_ptr<const PdeRuntime> pde, StpKernel kernel,
               const Grid& grid, NodeFamily family = NodeFamily::kGaussLegendre);

  const Grid& grid() const override { return grid_; }
  const AosLayout& layout() const override { return layout_; }
  const BasisTables& basis() const override { return basis_; }
  double time() const override { return time_; }
  int order() const override { return basis_.n; }
  int evolved_quantities() const override { return vars_; }
  std::string stepper_name() const override { return "ader"; }

  void set_initial_condition(const InitialCondition& init) override;

  void add_point_source(const MeshPointSource& source) override;
  bool supports_point_sources() const override { return true; }

  /// Rebuilds the per-thread kernel clones and scratch; teams > 1 thread
  /// require a kernel built through make_stp_kernel (forkable).
  void set_thread_team(const ParallelFor& team) override;

  /// CFL-limited stable time step from the current solution. The per-cell
  /// maximum wave speed is cached on first use: every registered PDE's
  /// speed depends only on material parameter rows, which are constant in
  /// time (zero flux), so recomputing the eigenvalue sweep each step is
  /// pure waste. set_initial_condition invalidates the cache.
  double stable_dt(double cfl = 0.4) const override;

  /// Advances by one step of size dt. Throws std::runtime_error if the
  /// solution leaves the finite range (blow-up detection, fused into the
  /// lift pass of the final (sub)step); the message names t, the global
  /// cell and the quantity of the lowest-index non-finite value. Under
  /// clustered LTS, dt is the MACRO step (the coarsest cluster's dt); the
  /// finest cluster substeps at dt / 2^(K-1).
  void step(double dt) override;

  // ---- Clustered local time stepping ----------------------------------
  // enable_lts switches the stepper to the clustered schedule: cluster k
  // steps with dt_k = dt_fine * 2^k, one macro step = 2^(K-1) fine
  // substeps. Cross-cluster faces use the CK/Taylor identity
  //   avg[dt/2, dt] = 2 avg[0, dt] - avg[0, dt/2]
  // so a coarse cell with a finer face neighbour asks its one predictor
  // run for both averages (qavg over dt, and qavg_half over dt/2 from a
  // second Taylor accumulator, StpOutputs::qavg_half) and publishes the
  // traces of both, and a fine cell accumulates its traces over its two
  // substeps when it has a coarser one (the coarse corrector reads half
  // the sum). The combinations are formed on the neighbour's trace. Every
  // cell-substep is exactly one StpKernel::run. The Rusanov flux is linear
  // in its inputs, so both sides of a cluster boundary see the same
  // time-integrated flux up to FP reassociation. K == 1 reproduces global
  // stepping bitwise (docs/lts.md).
  void enable_lts(const std::vector<int>& cluster_of_cell,
                  int num_clusters) override;
  int lts_num_clusters() const override { return num_clusters_; }
  std::vector<LtsClusterStats> lts_cluster_stats() const override;
  /// stable * 2^(K-1): one macro step spans the coarsest cluster.
  double plan_step(double stable) const override {
    return lts_enabled_ ? stable * macro_substeps_ : stable;
  }

  /// Sharded stepping: phase 0 = element-local predictor + volume update +
  /// face projection, phase 1 = surface corrector + buffer swap + time
  /// advance. The corrector reads one trace per neighbour, so its halo
  /// field is the trace buffer — and its sweep splits into an interior
  /// sweep (cells with no halo neighbour, runnable while the exchange is
  /// in flight) and the boundary remainder after delivery. The predictor
  /// reads no neighbour data, so phase 0 is all interior.
  ///
  /// Under clustered LTS the protocol generalizes to 2 * 2^(K-1) phases:
  /// phase 2s = predict fine substep s (clusters aligned at s, interior-
  /// only), phase 2s+1 = correct the clusters completing at s. Correct
  /// phases read up to three halo fields (the avg / half / sum traces on
  /// channels 0/1/2); the final substep swaps buffers and advances time
  /// exactly like the global path.
  int num_step_phases() const override {
    return lts_enabled_ ? 2 * macro_substeps_ : 2;
  }
  void step_phase(int phase, double dt) override;
  void step_phase_interior(int phase, double dt) override;
  void step_phase_boundary(int phase, double dt) override;
  std::vector<PhaseHaloField> step_phase_halo_fields(int phase) override;

  /// Read-only view of a cell's padded AoS DOFs.
  const double* cell_dofs(int cell) const override {
    return q_.data() + static_cast<std::size_t>(cell) * cell_size_;
  }
  double* mutable_cell_dofs(int cell) {
    return q_.data() + static_cast<std::size_t>(cell) * cell_size_;
  }

  /// Physical position of a quadrature node of a cell.
  std::array<double, 3> node_position(int cell, int k1, int k2,
                                      int k3) const override;

 private:
  /// Everything one worker thread mutates outside its q/qnew/trace slices:
  /// a kernel clone with its own workspace plus aligned scratch.
  struct ThreadScratch {
    StpKernel kernel;
    AlignedVector qavg;       // kernel output, projected onto the faces
    AlignedVector qavg_half;  // half-window average (LTS, K > 1)
    /// Corrector arena: the six face jumps and the derived cross-cluster
    /// neighbour traces.
    AlignedVector work;
    char nonfinite = 0;  // the final (sub)step wrote a non-finite value
  };
  /// Offset of the neighbour traces in ThreadScratch::work, after the six
  /// jumps, in doubles rounded up to 64 bytes.
  std::size_t nb_traces_offset() const {
    return (6 * trace_layout_.size() + 7) / 8 * 8;
  }

  void rebuild_scratch();
  /// One predictor + volume update + face projection at expansion time t.
  /// Under LTS the same kernel run also emits qavg_half (finer face
  /// neighbour), and the cell folds its traces into the sum traces
  /// (coarser face neighbour); `sum_reset` starts a fresh sum window.
  void predict_cell(ThreadScratch& ts, int c, double dt, double t,
                    const std::array<double, 3>& inv_dx,
                    const std::array<double, kMaxOrder>& integral_coeff,
                    bool sum_reset);
  /// Surface update for one cell; `s` is the fine substep index (for the
  /// cross-cluster trace selection; 0 off LTS).
  void correct_cell(ThreadScratch& ts, int c, double dt, int s);
  /// Surface sweep over one cell list (the interior or boundary set).
  void apply_corrector(double dt, const std::vector<int>& cells);
  /// Timed predictor sweep over cluster k at fine substep s.
  void predict_cluster(int k, int s, double dt_k, double t,
                       const std::array<double, 3>& inv_dx);
  /// Timed corrector sweep over one of cluster k's cell lists.
  void correct_cluster(int k, int s, double dt_k,
                       const std::vector<int>& cells);
  /// Ends a step: swaps buffers, advances time and throws if the final
  /// lift pass flagged a non-finite value.
  void finish_step(double dt);
  double* traces_of(AlignedVector& buffer, int cell) {
    return buffer.data() +
           trace_slot(grid_, cell, 0, 0) * trace_layout_.size();
  }

  std::shared_ptr<const PdeRuntime> pde_;
  StpKernel kernel_;
  Grid grid_;
  const BasisTables& basis_;
  AosLayout layout_;
  Isa isa_;  ///< the kernel's ISA, also the face traces' width
  FaceLayout trace_layout_;
  std::size_t cell_size_;
  int vars_ = 0;  ///< evolved quantities (parameters excluded)

  /// q and qnew cover the owned cells; traces_ holds six face traces per
  /// owned cell plus one per halo slot (kernels/face.h trace_slot).
  AlignedVector q_, qnew_, traces_;
  /// Interior/boundary split of the corrector sweep (mesh/partition.h);
  /// boundary is empty for whole-domain grids, so the monolithic path is
  /// one full interior sweep.
  std::vector<int> interior_cells_, boundary_cells_;
  std::vector<ThreadScratch> scratch_;  ///< one slot per thread

  // ---- Clustered-LTS state (inert until enable_lts) -------------------
  bool lts_enabled_ = false;
  int num_clusters_ = 1;
  int macro_substeps_ = 1;  ///< 2^(K-1) fine substeps per macro step
  std::vector<int> cluster_;  ///< rate cluster per owned + halo cell
  /// Production flags per owned cell: needs_half = has a finer face
  /// neighbour (request the dt/2 average from the predictor), needs_sum =
  /// has a coarser one (accumulate the traces over the sum window).
  std::vector<char> needs_half_, needs_sum_;
  /// Per-cluster owned-cell lists (all / interior / boundary), in the
  /// same relative order as the global sweeps so K == 1 reproduces them.
  std::vector<std::vector<int>> cluster_cells_, cluster_interior_,
      cluster_boundary_;
  /// Half-window and window-sum traces, laid out like traces_ (exchange
  /// channels 1 and 2); allocated only for K > 1.
  AlignedVector half_traces_, sum_traces_;
  /// Measured per-cluster cost: wall ns inside the cluster's sweeps and
  /// cell-substeps executed (the balance table's denominator).
  std::vector<long long> cluster_ns_, cluster_cell_substeps_;

  /// Per-cell max wave speed over nodes and directions; parameter-only,
  /// so it survives until the next set_initial_condition.
  mutable std::vector<double> wave_speed_cache_;

  double time_ = 0.0;
};

}  // namespace exastp

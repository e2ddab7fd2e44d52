// ADER-DG predictor-corrector time stepping (paper Sec. II, eq. (5)).
//
// One time step = one amortized mesh traversal:
//   1. per cell: one STP kernel request writes the volume update qnew =
//      q + dt sum_d favg[d] plus the direct time integral of any point
//      source, and the six face traces of the cell's time average
//      (kernels/face.h). The kernel forms both in its own layout, so
//      neither favg nor the average leaves it; the traces are all that
//      outlives the predictor;
//   2. per cell: one surface update solves the cell's six Rusanov problems
//      from its own traces and one trace per neighbour (a ghost trace on
//      wall/outflow faces) and lifts them into qnew in one pass, at the
//      kernel's ISA width; the same pass flags non-finite values;
//   3. swap buffers, advance time, report a blow-up.
//
// That is the clustered schedule below with its one cluster, which the
// solver starts with; enable_lts splits the cells into rate clusters that
// substep the same two sweeps.
//
// Both mesh traversals are cell-parallel (ParallelFor): every write
// belongs to the traversed cell, each thread runs a forked kernel clone
// and its own aligned scratch. An interior face is solved from both
// adjacent cells — the same F* bits from the same two traces — so the
// update needs no face ownership, no coloring, and is bitwise-identical
// for any thread count and decomposition.
//
// DOF storage (DgSolver) is one contiguous aligned block in the *kernel's*
// AoS layout (padded for the optimized variants), so the engine exercises
// exactly the data layout the paper optimizes. q and qnew cover the owned
// cells only; the trace buffers add one trace per halo slot, the unit the
// sharded exchange moves.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "exastp/kernels/stp_common.h"
#include "exastp/solver/dg_solver.h"

namespace exastp {

class AderDgSolver final : public DgSolver {
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

  std::string stepper_name() const override { return "ader"; }

  /// Rebuilds the per-thread kernel clones and scratch; teams > 1 thread
  /// require a kernel built through make_stp_kernel (forkable).
  void set_thread_team(const ParallelFor& team) override;

  // ---- The clustered schedule -----------------------------------------
  // Every step runs the clustered schedule: cluster k steps with dt_k =
  // dt_fine * 2^k, one macro step = 2^(K-1) fine substeps, dt is the MACRO
  // step (the coarsest cluster's dt). The constructor installs one cluster
  // holding every owned cell, which is the paper's global step: one
  // predictor and one corrector per cell. enable_lts replaces that
  // assignment. Cross-cluster faces use the CK/Taylor identity
  //   avg[dt/2, dt] = 2 avg[0, dt] - avg[0, dt/2]
  // so a coarse cell with a finer face neighbour asks its one predictor
  // run for the traces of both averages (over dt, and over dt/2 from a
  // second Taylor accumulator, StpOutputs::traces_half) and publishes
  // both, and a fine cell accumulates its traces over its two
  // substeps when it has a coarser one (the coarse corrector reads half
  // the sum). The combinations are formed on the neighbour's trace. Every
  // cell-substep is exactly one StpKernel::run. The Rusanov flux is linear
  // in its inputs, so both sides of a cluster boundary see the same
  // time-integrated flux up to FP reassociation (docs/lts.md).
  void enable_lts(const std::vector<int>& cluster_of_cell,
                  int num_clusters) override;
  int lts_num_clusters() const override { return num_clusters_; }
  /// Empty until enable_lts: the one-cluster schedule reports no stats.
  std::vector<LtsClusterStats> lts_cluster_stats() const override;
  /// stable * 2^(K-1): one macro step spans the coarsest cluster.
  double plan_step(double stable) const override {
    return stable * macro_substeps_;
  }

  /// The step's 2 * 2^(K-1) phases: phase 2s = predict fine substep s
  /// (element-local predictor, volume update and traces of the clusters
  /// aligned at s; reads no neighbour data, so it is all
  /// interior), phase 2s+1 = correct the clusters completing at s. A
  /// correct phase reads one trace per neighbour, so its halo fields are
  /// trace buffers (the avg / half / sum traces on channels 0/1/2, the
  /// last two only for K > 1), and its sweep splits into an interior sweep
  /// (cells with no halo neighbour, runnable while the exchange is in
  /// flight) and the boundary remainder after delivery. The final substep
  /// swaps buffers, advances time and reports a blow-up (fused into its
  /// lift pass; the message names t, the global cell and the quantity of
  /// the lowest-index non-finite value).
  int num_step_phases() const override { return 2 * macro_substeps_; }
  void step_phase_interior(int phase, double dt) override;
  void step_phase_boundary(int phase, double dt) override;
  std::vector<PhaseHaloField> step_phase_halo_fields(int phase) override;

 private:
  /// Everything one worker thread mutates outside its q/qnew/trace slices:
  /// a kernel clone with its own workspace plus the corrector's aligned
  /// scratch. The predictor writes straight into the cell's qnew and trace
  /// slices, so it needs none.
  struct ThreadScratch {
    StpKernel kernel;
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
  /// Installs a validated cluster assignment: the per-cluster sweep lists,
  /// the production flags and the cross-cluster trace buffers.
  void assign_clusters(const std::vector<int>& cluster_of_cell,
                       int num_clusters);
  /// One kernel request at expansion time t, the same for every variant:
  /// {traces, traces_half when the cell has a finer face neighbour, qnew}.
  /// The cell then folds its traces into the sum traces when it has a
  /// coarser one; `sum_reset` starts a fresh sum window.
  void predict_cell(ThreadScratch& ts, int c, double dt, double t,
                    const std::array<double, 3>& inv_dx, bool sum_reset);
  /// Surface update for one cell; `s` is the fine substep index (for the
  /// cross-cluster trace selection and the final substep's finite check).
  void correct_cell(ThreadScratch& ts, int c, double dt, int s);
  /// Timed predictor sweep over cluster k at fine substep s.
  void predict_cluster(int k, int s, double dt_k, double t,
                       const std::array<double, 3>& inv_dx);
  /// Timed corrector sweep over one of cluster k's cell lists.
  void correct_cluster(int k, int s, double dt_k,
                       const std::vector<int>& cells);
  /// Ends a step: swaps buffers, advances time and throws if the final
  /// lift pass flagged a non-finite value.
  void finish_step(double dt);

  StpKernel kernel_;
  /// The volume-updated state, covering the owned cells like q_.
  AlignedVector qnew_;
  std::vector<ThreadScratch> scratch_;  ///< one slot per thread

  // ---- Cluster state ----------------------------------------------------
  bool lts_enabled_ = false;  ///< enable_lts ran (stats are reported)
  int num_clusters_ = 1;
  int macro_substeps_ = 1;  ///< 2^(K-1) fine substeps per macro step
  std::vector<int> cluster_;  ///< rate cluster per owned + halo cell
  /// Production flags per owned cell: needs_half = has a finer face
  /// neighbour (request the dt/2 average from the predictor), needs_sum =
  /// has a coarser one (accumulate the traces over the sum window).
  std::vector<char> needs_half_, needs_sum_;
  /// Per-cluster owned-cell lists (all / interior / boundary), filtered
  /// from the owned order and the interior/boundary lists.
  std::vector<std::vector<int>> cluster_cells_, cluster_interior_,
      cluster_boundary_;
  /// Half-window and window-sum traces, laid out like traces_ (exchange
  /// channels 1 and 2); allocated only for K > 1.
  AlignedVector half_traces_, sum_traces_;
  /// Measured per-cluster cost: wall ns inside the cluster's sweeps and
  /// cell-substeps executed (the balance table's denominator).
  std::vector<long long> cluster_ns_, cluster_cell_substeps_;
};

}  // namespace exastp

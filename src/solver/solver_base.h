// Type-erased time-stepper interface.
//
// The engine offers two steppers over the same spatial discretization: the
// ADER-DG predictor-corrector (the paper's scheme) and the RK4-DG baseline
// it is measured against. SolverBase is the contract drivers, norms, energy
// functionals and output writers program against, so every scenario runs on
// either stepper — and the Simulation façade (src/engine/) can pick one from
// a runtime config string. Both steppers implement it on one cell core,
// DgSolver (dg_solver.h); ShardedSolver composes them over mesh shards.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exastp/basis/basis_tables.h"
#include "exastp/common/parallel.h"
#include "exastp/io/observer.h"
#include "exastp/mesh/grid.h"
#include "exastp/pde/point_source.h"
#include "exastp/tensor/layout.h"

namespace exastp {

/// init(x, q_node) fills all m quantities at physical node position x.
using InitialCondition =
    std::function<void(const std::array<double, 3>&, double*)>;

/// exact(x, t) -> value of one quantity at physical position x and time t.
using ExactSolution =
    std::function<double(const std::array<double, 3>&, double)>;

/// Point source attached to the mesh.
struct MeshPointSource {
  std::array<double, 3> position{};
  int quantity = 0;
  std::shared_ptr<const SourceWavelet> wavelet;
};

class SolverBase {
 public:
  virtual ~SolverBase() = default;

  virtual const Grid& grid() const = 0;
  /// Engine-facing AoS layout of the DOF storage (padded for the optimized
  /// kernel variants).
  virtual const AosLayout& layout() const = 0;
  virtual const BasisTables& basis() const = 0;
  virtual double time() const = 0;
  virtual int order() const = 0;
  /// Evolved quantities — material/geometry parameters excluded (the
  /// layout's m counts both).
  virtual int evolved_quantities() const = 0;
  /// Short stepper tag for reports/configs: "ader" or "rk4".
  virtual std::string stepper_name() const = 0;

  virtual void set_initial_condition(const InitialCondition& init) = 0;

  /// Attaches a point source to the cell containing its position; throws
  /// std::invalid_argument for a source without a wavelet, a quantity that
  /// is not evolved, or a second source in one cell.
  virtual void add_point_source(const MeshPointSource& source) = 0;

  /// Number of threads the hot loops fan out to. Direct construction
  /// defaults to 1 (serial, the benches' per-core measurement mode); the
  /// Simulation façade applies the config's `threads` key. `threads` < 1
  /// means "auto" (hardware concurrency). Results are bitwise-identical
  /// for every thread count — see README "Threading".
  void set_num_threads(int threads) { set_thread_team(ParallelFor(threads)); }
  /// Adopts an existing thread team (ParallelFor copies share one pool).
  /// The sharded composite hands every shard the same team — shards step
  /// sequentially, so one pool serves them all instead of shards x threads
  /// idle workers. Subclasses rebuild their per-thread scratch here.
  virtual void set_thread_team(const ParallelFor& team);
  int num_threads() const { return par_.num_threads(); }
  /// The solver's thread team, for functionals (norms, energies) that want
  /// to reduce over the mesh on the same threads as the stepper.
  const ParallelFor& parallel() const { return par_; }

  /// CFL-limited stable time step from the current solution.
  virtual double stable_dt(double cfl = 0.4) const = 0;
  /// Maps the CFL-stable dt to the dt one step() call actually advances.
  /// The identity for RK4; the ADER stepper returns stable * 2^(K-1) — one
  /// macro step spans the coarsest cluster's dt while the finest cluster
  /// substeps at the stable rate (K = 1: stable itself).
  /// run_until calls this between stable_dt and the tail clamp, so a
  /// clamped macro step shrinks every cluster's dt proportionally (still
  /// stable: clamping only decreases dt).
  virtual double plan_step(double stable) const { return stable; }
  /// Advances by one step of size dt. Throws std::runtime_error if the
  /// solution leaves the finite range (blow-up detection). Observer hooks
  /// do NOT fire for direct step() calls — run_until owns the loop.
  virtual void step(double dt) = 0;

  // ---- Clustered local time stepping ----------------------------------

  /// Switches the stepper to clustered LTS. `cluster_of_cell[c]` is the
  /// rate cluster (0 = finest) of cell c in THIS solver's grid indexing —
  /// owned cells first, then halo slots, exactly grid().num_cells() +
  /// grid().num_halo_cells() entries. Cluster k steps with dt_k =
  /// dt_fine * 2^k; face neighbours must be at most one cluster apart
  /// (the caller normalizes the binning). Steppers without LTS support
  /// throw; ShardedSolver accepts GLOBAL cell indexing and maps it onto
  /// each local shard.
  virtual void enable_lts(const std::vector<int>& cluster_of_cell,
                          int num_clusters);
  /// Rate clusters the stepper advances (1 = global stepping).
  virtual int lts_num_clusters() const { return 1; }
  /// Per-cluster telemetry for the metrics stream, the end-of-run summary
  /// and the measured-cost balance table. Empty when LTS is off. For the
  /// sharded composite: aggregated over local shards.
  struct LtsClusterStats {
    int cells = 0;                ///< owned cells assigned to the cluster
    long long cell_substeps = 0;  ///< cell-substeps executed so far
    long long ns = 0;             ///< measured wall ns in cluster sweeps
  };
  virtual std::vector<LtsClusterStats> lts_cluster_stats() const {
    return {};
  }

  // ---- Domain-decomposition stepping protocol -------------------------
  // A step decomposes into num_step_phases() ordered phases. Phase p reads
  // the face-adjacent neighbours' face traces (kernels/face.h) in the
  // arrays step_phase_halo_fields(p) names (empty = no neighbour data), and
  // splits into two sweeps so the halo transfer can overlap compute
  // (ShardedSolver::step drives them, exchange_backend.h moves the bytes):
  //
  //   step_phase_interior(p, dt)    cells that read no halo data; runs
  //                                 while the phase's halos are in flight
  //   step_phase_boundary(p, dt)    halo-adjacent cells + phase tail; runs
  //                                 once every halo slot is delivered
  //
  // step_phase(p, dt) must equal interior + boundary run back to back,
  // and calling phases 0..P-1 in order must equal one step(dt) — the
  // monolithic path (a whole-domain Grid has no halo slots, so its
  // boundary set is empty and interior covers every cell). While a
  // phase's halos are in flight, step_phase_interior must not read their
  // halo slots. The exchanged arrays are trace buffers: six traces per
  // owned cell followed by one per halo slot (trace_count(grid()) traces
  // of FaceLayout(layout()).size() doubles, addressed by trace_slot). Only
  // they carry halo slots; the state buffers cover the owned cells.

  /// Phases per step: 2 * 2^(K-1) for ADER (predict | correct per fine
  /// substep), 4 for RK4 (one per stage), 1 for the sharded composite,
  /// whose step() runs its shards' phases itself.
  virtual int num_step_phases() const { return 1; }
  /// Runs one phase of a step of size dt; calling phases 0..P-1 in order
  /// is exactly one step(dt). Default: single-phase, forwards to step().
  virtual void step_phase(int phase, double dt);
  /// Begin-exchange hook: the part of a phase that reads no halo data and
  /// can therefore run while the exchange is in flight. Default: no-op —
  /// a stepper that does not override the split runs its whole phase
  /// after delivery (no overlap, but never a halo read mid-flight).
  virtual void step_phase_interior(int phase, double dt);
  /// End-exchange hook: the halo-adjacent remainder, run after the
  /// phase's halos are delivered. Default: the whole phase.
  virtual void step_phase_boundary(int phase, double dt);

  /// One halo field a phase reads, with the exchange channel that
  /// namespaces its transfer (solver/exchange_backend.h). Channels: 0 =
  /// the primary traces (of qavg / of the stage state), 1 = the half-window
  /// traces, 2 = the window-sum traces (the LTS corrector's extra fields).
  struct PhaseHaloField {
    double* data = nullptr;
    int channel = 0;
  };
  /// All halo fields `phase` reads, refreshed together before its
  /// boundary sweep (empty = no neighbour data) — one for the RK stages
  /// and the one-cluster ADER corrector, three for the multi-cluster
  /// corrector (average, half and sum traces). Default: none.
  virtual std::vector<PhaseHaloField> step_phase_halo_fields(int phase);

  /// Mesh shards behind this solver: 1 for monolithic solvers, the
  /// partition size for ShardedSolver. shard(s) exposes the per-shard
  /// sub-solver (whose grid() is the shard's partitioned view) so writers
  /// can emit per-shard pieces.
  virtual int num_shards() const { return 1; }
  virtual const SolverBase& shard(int s) const;

  /// Process topology of the run: local runs are rank 0 of 1. Under the
  /// MPI exchange backend every rank drives one shard of the same
  /// decomposition; shard_is_local(s) says whether shard s's sub-solver
  /// (and its cells' DOF storage) is materialized in this process —
  /// rank-aware writers emit only local pieces, and rank 0 merges the
  /// rest (io/vtk_series.h, io/receiver_sinks.h).
  virtual int rank() const { return 0; }
  virtual int num_ranks() const { return 1; }
  virtual bool shard_is_local(int /*s*/) const { return true; }
  /// Runs until t_end (last step shortened to land exactly), returns the
  /// number of steps taken this call. Implemented once here over the
  /// virtual stable_dt()/step(), so every stepper drives the observer
  /// hooks identically: on_start before the first observed step, on_step
  /// after each step, on_finish on return (see io/observer.h).
  int run_until(double t_end, double cfl = 0.4);

  /// Attaches a read-only observer to the time loop (io/observer.h).
  /// Non-owning: the caller (typically the Simulation façade) keeps the
  /// observer alive for the solver's remaining use. Observers fire in
  /// attachment order; attaching any number of them never changes the
  /// field state — they only see const SolverBase&.
  void add_observer(Observer* observer);
  /// Cumulative steps taken by run_until (the step index observers see).
  int steps_taken() const { return steps_taken_; }

  /// Read-only view of a cell's padded AoS DOFs.
  virtual const double* cell_dofs(int cell) const = 0;
  /// Physical position of a quadrature node of a cell.
  virtual std::array<double, 3> node_position(int cell, int k1, int k2,
                                              int k3) const = 0;

  /// Samples quantity s at the physical point x by evaluating the nodal
  /// expansion of the containing cell (receiver extraction for seismograms).
  /// Implemented once here on top of the virtual accessors.
  double sample(const std::array<double, 3>& x, int quantity) const;

 protected:
  /// The thread team the subclass hot loops run on (1 thread by default).
  ParallelFor par_;

 private:
  /// An attached observer plus whether its on_start already fired, so
  /// observers attached between run_until calls still get a start hook.
  struct AttachedObserver {
    Observer* observer = nullptr;
    bool started = false;
  };
  std::vector<AttachedObserver> observers_;
  int steps_taken_ = 0;
};

}  // namespace exastp

// Domain-decomposed time stepping: one solver per mesh shard behind the
// single SolverBase façade, over a pluggable exchange backend.
//
// A ShardedSolver owns a Partition (mesh/partition.h), sub-solvers built
// over the shards' partitioned Grid views, and the ExchangeBackend
// connecting them (exchange_backend.h). The shard count is independent of
// the rank count: the Partition's rank map (Partition::assign_ranks)
// groups shards onto ranks, so an over-decomposed run keeps several shards
// per rank — small enough to pipeline, co-resident so their mutual halo
// legs stay zero-copy in-process and only true rank-cut faces pay the wire
// (solver/mpi_exchange.h).
//
// step() is dependency-driven: each local shard advances through its own
// phases as its inputs arrive. A shard's boundary sweep for a phase runs as
// soon as that shard's halos for the phase are delivered
// (sched_delivered); when a shard finishes a phase, its next-phase halo
// planes are captured immediately (pipelined multi-field sends — the next
// phase's traffic leaves while other shards still compute), and the
// scheduler fills stalls with whichever shard has runnable work. Blocked
// time polls the backend MPI_Testsome-style and is recorded as the
// sched_wait span; ready-queue depth and task counts land in the
// sched_tasks / sched_ready_depth_sum / sched_blocked_polls counters.
//
// Every halo slot receives exactly the bytes of the neighbour's face trace
// and each sweep runs over identical inputs, so the composite's field state is
// bitwise-identical to the monolithic solver for any backend x shard grid
// x rank map x thread count (tests/test_sharding.cpp, test_oversub.cpp,
// test_lts.cpp and test_mpi.cpp guard the matrix).
//
// Engine-facing addressing stays global: grid() is the whole-domain grid,
// and cell_dofs / node_position / sample / add_point_source route by the
// owning shard — so observers (receiver networks, writers, norms) work
// unchanged on a local sharded run. Under backend=mpi those accessors only
// serve locally-owned cells (remote ones fail loudly); the engine filters
// receivers by ownership and rank 0 merges the streams (engine/simulation.h).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exastp/mesh/partition.h"
#include "exastp/solver/exchange_backend.h"
#include "exastp/solver/solver_base.h"

namespace exastp {

class ShardedSolver final : public SolverBase {
 public:
  /// Builds one sub-solver per locally-materialized subdomain via
  /// `make_shard` (called with the shard's Grid view; typically wraps
  /// AderDgSolver or RkDgSolver). All shards must share layout, basis and
  /// stepper. `backend` picks the exchange: "inprocess" (default, every
  /// shard in this process) or "mpi" (this rank materializes the shards
  /// the partition's rank map assigns to it; a partition without a rank
  /// map is auto-grouped one-shard-per-rank, and a map that does not
  /// match the launch fails with a clear message).
  ShardedSolver(
      Partition partition,
      const std::function<std::unique_ptr<SolverBase>(const Grid&)>&
          make_shard,
      const std::string& backend = "inprocess");

  const Grid& grid() const override { return global_grid_; }
  const AosLayout& layout() const override { return primary().layout(); }
  const BasisTables& basis() const override { return primary().basis(); }
  double time() const override { return primary().time(); }
  int order() const override { return primary().order(); }
  int evolved_quantities() const override {
    return primary().evolved_quantities();
  }
  std::string stepper_name() const override {
    return primary().stepper_name();
  }

  void set_initial_condition(const InitialCondition& init) override;

  /// Routes the source to the shard owning its position (a no-op on ranks
  /// that do not own it — every rank calls this with the same sources).
  void add_point_source(const MeshPointSource& source) override;

  /// One shared team for every local shard: shards step sequentially, so a
  /// single pool serves the composite and all sub-solvers.
  void set_thread_team(const ParallelFor& team) override;

  /// min over the shards' CFL bounds (an exact MPI_Allreduce(MIN) under
  /// backend=mpi) — identical bits to the monolithic bound on every rank,
  /// since max-wave-speed reduction commutes exactly.
  double stable_dt(double cfl = 0.4) const override;

  /// One time step, driven by the dependency scheduler (see the file
  /// comment) over the sub-solvers' phases. The composite itself keeps
  /// SolverBase's one-phase protocol: step_phase(0) is step(dt), and it
  /// names no halo fields, since the exchange between its shards is
  /// internal to step().
  void step(double dt) override;

  /// Clustered LTS over the decomposition: `cluster_of_cell` uses GLOBAL
  /// cell indexing; each local shard receives its owned cells' entries
  /// plus its halo slots' (resolved through the halo plans), so all
  /// shards agree on every cross-boundary rate without communicating.
  void enable_lts(const std::vector<int>& cluster_of_cell,
                  int num_clusters) override;
  int lts_num_clusters() const override {
    return primary().lts_num_clusters();
  }
  /// Aggregated over local shards (cells/substeps/ns sum per cluster).
  std::vector<LtsClusterStats> lts_cluster_stats() const override;
  double plan_step(double stable) const override {
    return primary().plan_step(stable);
  }

  /// Global-cell routing: the owning shard's local tensor / node. Under
  /// backend=mpi only locally-owned cells are served.
  const double* cell_dofs(int cell) const override;
  std::array<double, 3> node_position(int cell, int k1, int k2,
                                      int k3) const override;

  int num_shards() const override { return partition_.num_shards(); }
  const SolverBase& shard(int s) const override;

  int rank() const override { return rank_; }
  int num_ranks() const override;
  bool shard_is_local(int s) const override {
    return !distributed_ || partition_.rank_of(s) == rank_;
  }

  const Partition& partition() const { return partition_; }
  /// The exchange backend (name, payload/copied bytes) for benches.
  const ExchangeBackend& exchange_backend() const { return *exchange_; }
  /// Swaps the exchange backend — a bench/test hook (e.g. an
  /// InProcessExchange with simulated cross-rank latency). The replacement
  /// must cover the same partition and trace size
  /// (FaceLayout(layout()).size()).
  void set_exchange_backend(std::unique_ptr<ExchangeBackend> backend);

 private:
  const SolverBase& primary() const {
    return *shards_[static_cast<std::size_t>(primary_)];
  }
  SolverBase& primary() {
    return *shards_[static_cast<std::size_t>(primary_)];
  }

  /// The phase's halo fields assembled across local shards (one
  /// ExchangeField per channel; remote shard slots nullptr).
  std::vector<ExchangeField> phase_exchange_fields(int phase) const;

  Partition partition_;
  Grid global_grid_;
  bool distributed_ = false;
  int rank_ = 0;
  int primary_ = 0;  ///< lowest locally-materialized shard id
  /// One slot per shard; only locally-materialized shards are non-null
  /// (all of them for backend=inprocess, this rank's group for
  /// backend=mpi).
  std::vector<std::unique_ptr<SolverBase>> shards_;
  std::unique_ptr<ExchangeBackend> exchange_;
};

}  // namespace exastp

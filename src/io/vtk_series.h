// Incremental VTK snapshot series with a .pvd-style collection index.
//
// Emits interval-spaced cell-average snapshots (<base>_NNNN.vtk, the legacy
// writer from solver/output.h) from the time loop and maintains
// <base>.pvd — a ParaView-collection XML mapping timestep -> file. The
// index is rewritten after every snapshot, so the series on disk is
// complete and loadable at any point during the run, not just after it.
//
// Sharded solvers (solver/sharded_solver.h) emit one piece per shard and
// snapshot — <base>_NNNN_pKK.vtk, each covering its shard's cell box — and
// the index lists the pieces of a timestep under distinct part attributes,
// so a decomposed run stays a single loadable series.
#pragma once

#include <string>
#include <vector>

#include "exastp/io/observer.h"

namespace exastp {

class VtkSeriesWriter final : public Observer {
 public:
  /// Snapshots of `quantities` (labelled `names`) every `interval` of
  /// simulation time; interval <= 0 means "after every step". `base` is the
  /// path prefix — files land at <base>_NNNN.vtk and <base>.pvd.
  VtkSeriesWriter(std::string base, std::vector<int> quantities,
                  std::vector<std::string> names, double interval);

  void on_start(const SolverBase& solver) override;
  void on_step(const SolverBase& solver, int step) override;
  void on_finish(const SolverBase& solver) override;

  /// Path of the collection index (<base>.pvd).
  std::string index_path() const { return base_ + ".pvd"; }

 private:
  void emit(const SolverBase& solver);
  void write_index() const;

  std::string base_;
  std::vector<int> quantities_;
  std::vector<std::string> names_;
  double interval_ = 0.0;
  double last_emit_time_ = 0.0;
  /// Next threshold on the fixed t0 + k*interval grid, so spacing does not
  /// drift by the per-step overshoot when dt does not divide the interval.
  double next_emit_time_ = 0.0;

  struct Entry {
    double time;
    int part;          ///< shard index (0 for monolithic runs)
    std::string file;  ///< basename relative to the index file
  };
  std::vector<Entry> entries_;
  int snapshots_ = 0;
};

}  // namespace exastp

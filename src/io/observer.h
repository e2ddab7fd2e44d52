// Streaming observer hooks on the solver time loop — the engine's
// "Plotters" role (paper Fig. 2) as a first-class subsystem.
//
// An Observer watches a running solver without touching it: every hook
// receives a const SolverBase&, so attaching any number of observers leaves
// the field state bitwise-identical to an observer-free run (guarded by
// tests/test_io.cpp). SolverBase::run_until drives the hooks for both
// steppers:
//
//   on_start   once per observer, before the first step it witnesses
//              (receiver binding, file headers, the t = 0 sample);
//   on_step    after every completed step inside run_until;
//   on_finish  when run_until returns (flush/close; may fire again if
//              run_until is called repeatedly with a raised t_end, so
//              implementations keep it idempotent).
//
// Direct step() calls bypass the hooks — run_until owns the loop.
// Concrete observers live next to this header: ReceiverNetwork
// (receiver_network.h) and VtkSeriesWriter (vtk_series.h); the engine
// builds them from declarative config keys (make_observers,
// engine/observers.h).
#pragma once

namespace exastp {

class SolverBase;

class Observer {
 public:
  virtual ~Observer() = default;

  /// Fired once before the first observed step; the solver is initialized
  /// and at its current (usually initial) time.
  virtual void on_start(const SolverBase& /*solver*/) {}
  /// Fired after each completed step inside run_until; `step` counts the
  /// solver's observed steps cumulatively, starting at 1.
  virtual void on_step(const SolverBase& /*solver*/, int /*step*/) {}
  /// Fired when run_until returns (also for zero-step calls). May fire more
  /// than once over an observer's life; implementations stay idempotent.
  virtual void on_finish(const SolverBase& /*solver*/) {}
};

}  // namespace exastp

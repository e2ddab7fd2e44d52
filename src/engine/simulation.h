// The Simulation façade: one entry point from a declarative config to a
// running solver.
//
// from_config() resolves the scenario and PDE from their name tables,
// type-erases the kernel selection ((pde, variant, order, isa) -> StpKernel)
// through KernelFactory, builds the requested stepper behind SolverBase,
// applies the scenario's initial condition and point sources, and hands back
// an object drivers can run, sample and measure — the whole ~50-line
// hand-wiring dance of the old examples in one call.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exastp/engine/observers.h"
#include "exastp/engine/pde_registry.h"
#include "exastp/engine/scenario_registry.h"
#include "exastp/engine/simulation_config.h"
#include "exastp/io/receiver_network.h"
#include "exastp/solver/solver_base.h"
#include "exastp/telemetry/telemetry.h"

namespace exastp {

class Simulation {
 public:
  /// Builds the fully configured simulation. The config is taken literally;
  /// use parse_simulation_args / apply_scenario_defaults to fill scenario
  /// defaults first. Throws on unknown names, incompatible PDE/scenario
  /// pairs and ISAs the host cannot execute.
  static Simulation from_config(SimulationConfig config);

  /// parse_simulation_args + from_config in one step (CLI entry point).
  static Simulation from_args(const std::vector<std::string>& args);

  SolverBase& solver() { return *solver_; }
  const SolverBase& solver() const { return *solver_; }
  const SimulationConfig& config() const { return config_; }
  const KernelFactory& pde() const { return *pde_; }
  const Scenario& scenario() const { return *scenario_; }
  /// The resolved instruction set ("auto" already applied).
  Isa isa() const { return isa_; }
  /// The effective shard block grid (shards= key resolved against the
  /// mesh; {1,1,1} for monolithic runs).
  const std::array<int, 3>& shard_grid() const { return shard_grid_; }

  /// Runs to config.t_end — streaming observers (receivers, VTK series)
  /// fire from the time loop — then writes any configured post-hoc outputs;
  /// returns the number of steps taken. Callable repeatedly after raising
  /// t_end. Under backend=mpi this is collective (every rank calls it):
  /// after the loop, rank 0 merges the per-rank receiver streams into the
  /// configured paths so distributed runs produce the same artifacts as
  /// local ones.
  int run();

  /// Attaches a streaming observer to the solver's time loop and takes
  /// (shared) ownership of it; the config-declared observers are attached
  /// by from_config already.
  void add_observer(std::shared_ptr<Observer> observer);
  /// Every owned observer, in attachment order.
  const std::vector<std::shared_ptr<Observer>>& observers() const {
    return observers_;
  }
  /// The config-built receiver network (receivers= key), or null. Traces
  /// stay queryable here after run().
  std::shared_ptr<ReceiverNetwork> receivers() const { return receivers_; }

  /// True when the scenario knows an exact solution for this PDE.
  bool has_exact_solution() const { return error_quantity() >= 0; }
  /// Quantity index the exact solution describes, or -1.
  int error_quantity() const { return scenario_->error_quantity(*pde_); }
  /// L2 error of error_quantity() against the scenario's exact solution at
  /// the solver's current time; throws if the scenario has none. Under
  /// backend=mpi this is collective: every rank sums its shards and the
  /// partials combine in rank order (deterministic, though the association
  /// differs from the monolithic cell-order sum by floating-point
  /// rounding).
  double l2_error() const;

  /// One-line human-readable description for logs and CLI banners.
  std::string summary() const;

  /// This run's telemetry registry. Always present: even with every
  /// telemetry key unset it scopes the FLOP accounting, so concurrent pool
  /// jobs never double-count each other (spans stay off unless trace=,
  /// metrics= or progress= asked for them). run() installs it on the
  /// driving thread; ParallelFor propagates it to workers.
  TelemetryRegistry& telemetry() { return *telemetry_; }
  const TelemetryRegistry& telemetry() const { return *telemetry_; }

  /// End-of-run summary table (telemetry_summary_table); empty when spans
  /// were off or nothing ran. Meaningful on rank 0 after run().
  std::string telemetry_summary() const;

 private:
  Simulation(SimulationConfig config, Isa isa,
             std::shared_ptr<const KernelFactory> pde,
             std::shared_ptr<const Scenario> scenario,
             std::unique_ptr<SolverBase> solver);

  /// Rank-0 merge plan of a distributed run's receiver streams: the full
  /// configured network plus the final artifact paths
  /// (io/receiver_sinks.h merge_receiver_records). Present on every rank
  /// of a backend=mpi run with receiver streams configured.
  struct ReceiverMergePlan {
    std::vector<std::array<double, 3>> positions;
    std::string part_base;
    std::string bin_path;
    std::string csv_path;
  };

  SimulationConfig config_;
  Isa isa_ = Isa::kScalar;
  std::array<int, 3> shard_grid_{1, 1, 1};
  bool distributed_ = false;
  /// Declared before observers_: the metrics observer reads the registry,
  /// so the registry must outlive it (members destroy in reverse order).
  std::shared_ptr<TelemetryRegistry> telemetry_;
  std::optional<ReceiverMergePlan> receiver_merge_;
  std::shared_ptr<const KernelFactory> pde_;
  std::shared_ptr<const Scenario> scenario_;
  /// Observer lifetime is owned here; the solver only holds raw pointers,
  /// so observers_ is declared before solver_ to outlive it (members
  /// destroy in reverse declaration order).
  std::vector<std::shared_ptr<Observer>> observers_;
  std::shared_ptr<ReceiverNetwork> receivers_;
  std::unique_ptr<SolverBase> solver_;
};

}  // namespace exastp

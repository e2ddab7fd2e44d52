// The scenario table: named initial conditions, boundary setups, point
// sources and (where known) exact solutions.
//
// A Scenario is everything that turns a bare PDE into a runnable workload.
// Scenarios are looked up by name at runtime ("planewave", "loh1",
// "maxwell_cavity", "gaussian") and fill the SimulationConfig defaults a
// workload needs, so the config-driven runner covers new experiments
// without recompilation. The table is closed: a new scenario is a
// Scenario subclass in scenario_registry.cpp and one entry in its table.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exastp/engine/pde_registry.h"
#include "exastp/engine/simulation_config.h"
#include "exastp/solver/solver_base.h"

namespace exastp {

class Scenario {
 public:
  virtual ~Scenario() = default;

  /// Table key.
  virtual const std::string& name() const = 0;
  /// PDE used when the config does not name one.
  virtual std::string default_pde() const = 0;
  /// Whether the scenario's initial condition is meaningful for `pde_name`.
  /// The default accepts only default_pde(); PDE-agnostic scenarios
  /// override.
  virtual bool compatible_with(const std::string& pde_name) const {
    return pde_name == default_pde();
  }

  /// Writes the scenario's recommended grid, boundaries and end time into
  /// the config (called before explicit user overrides are applied).
  virtual void configure(SimulationConfig& /*config*/) const {}

  /// Parameter keys the scenario reads from config.scenario_params
  /// ("scenario.<key>=value" on the CLI). Simulation::from_config rejects
  /// configs carrying keys outside this list, so typos fail loudly.
  virtual std::vector<std::string> param_keys() const { return {}; }

  /// Nodal initial condition for a solver running `pde`. Passed as a
  /// shared_ptr so the returned closure can own the factory.
  virtual InitialCondition initial_condition(
      const std::shared_ptr<const KernelFactory>& pde,
      const SimulationConfig& config) const = 0;

  /// Point sources to attach (may be empty).
  virtual std::vector<MeshPointSource> sources(
      const SimulationConfig& /*config*/) const {
    return {};
  }

  /// Quantity index with a known exact solution, or -1 if none.
  virtual int error_quantity(const KernelFactory& /*pde*/) const {
    return -1;
  }
  /// Exact solution of error_quantity(); null when error_quantity() is -1.
  virtual ExactSolution exact_solution(
      const KernelFactory& /*pde*/, const SimulationConfig& /*config*/) const {
    return nullptr;
  }
};

/// The scenario named `name`; throws with the known names.
std::shared_ptr<const Scenario> find_scenario(const std::string& name);

/// Every scenario name, sorted.
std::vector<std::string> scenario_names();

}  // namespace exastp

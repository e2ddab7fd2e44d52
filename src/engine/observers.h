// The config-declared streaming observers: the receivers= and output.*
// keys -> the observers Simulation::from_config attaches to the time loop,
// the engine's "Plotters" role (src/io/).
//
// make_observers builds, in this order (the order their hooks fire), the
// receiver network (receivers= probe points, streamed to
// output.receivers_csv / output.receivers_bin) and the VTK snapshot series
// (output.series + output.interval, with a .pvd index). Other observers
// attach through Simulation::add_observer.
#pragma once

#include <memory>
#include <vector>

#include "exastp/engine/pde_registry.h"
#include "exastp/engine/simulation_config.h"
#include "exastp/io/observer.h"

namespace exastp {

/// Every observer the config requests. Throws on inconsistent requests
/// (e.g. a receiver stream path without receiver positions). The caller
/// owns the result (the Simulation façade keeps them alive alongside its
/// solver).
std::vector<std::shared_ptr<Observer>> make_observers(
    const SimulationConfig& config, const KernelFactory& pde);

/// Quantity indices a VTK file holds: output.quantities (validated against
/// the PDE), or the first four evolved quantities to keep the files small.
/// One selection for the VTK series and the post-hoc vtk= dump.
std::vector<int> vtk_quantities(const SimulationConfig& config,
                                const KernelFactory& pde);

}  // namespace exastp

// Tests for the src/engine layer: PDE/scenario registries, config parsing
// and the Simulation façade. The matrix test guards the type-erased path
// (string -> KernelFactory -> StpKernel) against the templated one: every
// registered PDE must run under every kernel variant and agree with the
// generic reference kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exastp/engine/simulation.h"
#include "exastp/kernels/registry.h"
#include "exastp/pde/elastic.h"
#include "exastp/solver/rk_dg_solver.h"

namespace exastp {
namespace {

TEST(PdeRegistry, ListsTheBuiltinPdes) {
  for (const char* name :
       {"acoustic", "advection", "elastic", "maxwell", "curvilinear_elastic"})
    EXPECT_TRUE(PdeRegistry::instance().contains(name)) << name;
}

TEST(PdeRegistry, UnknownNameThrowsWithKnownNames) {
  try {
    find_pde("no_such_pde");
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("acoustic"), std::string::npos);
  }
}

TEST(PdeRegistry, RejectsDuplicateRegistration) {
  auto acoustic = find_pde("acoustic");
  EXPECT_THROW(PdeRegistry::instance().add(acoustic), std::invalid_argument);
}

TEST(PdeRegistry, FactoryInfoMatchesRuntime) {
  for (const std::string& name : PdeRegistry::instance().names()) {
    auto factory = find_pde(name);
    EXPECT_EQ(factory->name(), name);
    EXPECT_EQ(factory->info().quants, factory->runtime()->info().quants);
    EXPECT_EQ(factory->info().name, name);
  }
}

TEST(ScenarioRegistry, ListsTheBuiltinScenarios) {
  for (const char* name : {"planewave", "loh1", "maxwell_cavity", "gaussian"})
    EXPECT_TRUE(ScenarioRegistry::instance().contains(name)) << name;
}

TEST(ScenarioRegistry, UnknownNameThrows) {
  EXPECT_THROW(find_scenario("no_such_scenario"), std::invalid_argument);
}

TEST(ConfigParse, KeyValuePairsOverrideScenarioDefaults) {
  const SimulationConfig config = parse_simulation_args(
      {"scenario=planewave", "order=6", "cells=4x2x1", "t_end=0.5",
       "variant=log", "stepper=rk4", "bc=outflow,periodic,wall",
       "extent=2,1,1", "cfl=0.3"});
  EXPECT_EQ(config.scenario, "planewave");
  EXPECT_EQ(config.order, 6);
  EXPECT_EQ(config.grid.cells, (std::array<int, 3>{4, 2, 1}));
  EXPECT_DOUBLE_EQ(config.t_end, 0.5);
  EXPECT_EQ(config.variant, StpVariant::kLog);
  EXPECT_EQ(config.stepper, "rk4");
  EXPECT_EQ(config.grid.boundary[0], BoundaryKind::kOutflow);
  EXPECT_EQ(config.grid.boundary[2], BoundaryKind::kWall);
  EXPECT_DOUBLE_EQ(config.grid.extent[0], 2.0);
  EXPECT_DOUBLE_EQ(config.cfl, 0.3);
}

TEST(ConfigParse, ScenarioDefaultsApplyWithoutOverrides) {
  const SimulationConfig config = parse_simulation_args({"scenario=loh1"});
  EXPECT_EQ(config.grid.cells, (std::array<int, 3>{4, 4, 4}));
  EXPECT_DOUBLE_EQ(config.grid.extent[2], 8.0);
  EXPECT_EQ(config.grid.boundary[2], BoundaryKind::kWall);
  EXPECT_DOUBLE_EQ(config.t_end, 2.0);
}

TEST(ConfigParse, ShorthandsExpandToCubes) {
  const SimulationConfig config =
      parse_simulation_args({"cells=5", "extent=2.0", "bc=wall"});
  EXPECT_EQ(config.grid.cells, (std::array<int, 3>{5, 5, 5}));
  EXPECT_DOUBLE_EQ(config.grid.extent[1], 2.0);
  EXPECT_EQ(config.grid.boundary[1], BoundaryKind::kWall);
}

TEST(ConfigParse, RejectsMalformedInput) {
  EXPECT_THROW(parse_simulation_args({"no_equals_sign"}),
               std::invalid_argument);
  EXPECT_THROW(parse_simulation_args({"unknown_key=1"}),
               std::invalid_argument);
  EXPECT_THROW(parse_simulation_args({"order=abc"}), std::invalid_argument);
  EXPECT_THROW(parse_simulation_args({"cells=1x2"}), std::invalid_argument);
  EXPECT_THROW(parse_simulation_args({"bc=open"}), std::invalid_argument);
  EXPECT_THROW(parse_simulation_args({"scenario=nope"}),
               std::invalid_argument);
  // Values that std::stod accepts but no run can use fail at parse time,
  // naming their key: nan/inf would run zero steps, never end, or fail in
  // the first step.
  for (const char* arg :
       {"t_end=nan", "t_end=inf", "t_end=-inf", "output.interval=nan",
        "cfl=nan", "cfl=inf", "cfl=-1", "cfl=0", "extent=1,nan,1",
        "origin=inf", "receivers=0.5,nan,0.5", "stepper=rk",
        "stepper=euler"}) {
    const std::string key = std::string(arg).substr(
        0, std::string(arg).find('='));
    try {
      parse_simulation_args({"scenario=planewave", arg});
      ADD_FAILURE() << arg << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key + "="), std::string::npos)
          << arg << ": " << e.what();
    }
  }
}

TEST(ConfigParse, DuplicateKeyIsAHardErrorNamingTheKey) {
  try {
    parse_simulation_args({"scenario=planewave", "order=3", "order=4"});
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate config key \"order\""),
              std::string::npos)
        << e.what();
  }
  // Also for dotted keys — no silent last-one-wins anywhere.
  EXPECT_THROW(parse_simulation_args({"scenario=loh1", "scenario.half_cs=4",
                                      "scenario.half_cs=5"}),
               std::invalid_argument);
  // A key and its alias are one key; accepting both would silently write
  // only the second path.
  for (const auto& [first, second] :
       std::vector<std::pair<std::string, std::string>>{
           {"csv=a.csv", "output.csv=b.csv"},
           {"output.vtk=a.vtk", "vtk=b.vtk"}}) {
    try {
      parse_simulation_args({"scenario=planewave", first, second});
      ADD_FAILURE() << first << " " << second << " parsed";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("duplicate config key \"" +
                          second.substr(0, second.find('=')) + "\""),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("\"" + first.substr(0, first.find('=')) + "\""),
                std::string::npos)
          << what;
    }
  }
}

TEST(ConfigParse, StreamingOutputAndReceiverKeys) {
  const SimulationConfig config = parse_simulation_args(
      {"receivers=0.5,0.5,0.5;0.1,0.2,0.3", "output.receivers_csv=a.csv",
       "output.receivers_bin=a.bin", "output.series=snap",
       "output.interval=0.25", "output.quantities=0,3", "output.csv=n.csv",
       "output.vtk=n.vtk"});
  ASSERT_EQ(config.receivers.size(), 2u);
  EXPECT_EQ(config.receivers[1], (std::array<double, 3>{0.1, 0.2, 0.3}));
  EXPECT_EQ(config.output.receivers_csv, "a.csv");
  EXPECT_EQ(config.output.receivers_bin, "a.bin");
  EXPECT_EQ(config.output.series, "snap");
  EXPECT_DOUBLE_EQ(config.output.interval, 0.25);
  EXPECT_EQ(config.output.quantities, (std::vector<int>{0, 3}));
  EXPECT_EQ(config.output.csv, "n.csv");  // output.csv aliases csv
  EXPECT_EQ(config.output.vtk, "n.vtk");
  EXPECT_THROW(parse_simulation_args({"receivers="}), std::invalid_argument);
  EXPECT_THROW(parse_simulation_args({"receivers=0.5,0.5"}),
               std::invalid_argument);
  // Quantity lists split on ',' only — the 'x' shorthand is for triples.
  EXPECT_THROW(parse_simulation_args({"output.quantities=0x3"}),
               std::invalid_argument);
}

TEST(ConfigParse, ScenarioParamsPassThroughWithPrefixStripped) {
  const SimulationConfig config = parse_simulation_args(
      {"scenario=loh1", "scenario.layer_rho=3.5", "scenario.half_cs=4.0"});
  ASSERT_EQ(config.scenario_params.size(), 2u);
  EXPECT_EQ(config.scenario_params.at("layer_rho"), "3.5");
  EXPECT_DOUBLE_EQ(scenario_param(config, "layer_rho", 0.0), 3.5);
  EXPECT_DOUBLE_EQ(scenario_param(config, "absent", 7.0), 7.0);
  EXPECT_THROW(parse_simulation_args({"scenario.=1"}),
               std::invalid_argument);
}

TEST(Facade, UnknownScenarioParamThrowsWithKnownKeys) {
  SimulationConfig config = parse_simulation_args(
      {"scenario=loh1", "scenario.layer_rho=3.5"});
  config.scenario_params["bogus"] = "1";
  try {
    Simulation::from_config(std::move(config));
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("layer_rho"), std::string::npos);
  }
}

TEST(Facade, PlanewaveWavenumberParamsKeepTheExactSolution) {
  // A diagonal (kx, ky) = (1, 1) wave is still exact on the periodic unit
  // box: the parameterized initial condition and exact solution must stay
  // consistent with each other.
  Simulation sim = Simulation::from_args(
      {"scenario=planewave", "order=5", "cells=3x3x3", "t_end=0.1",
       "scenario.kx=1", "scenario.ky=1"});
  sim.run();
  EXPECT_LT(sim.l2_error(), 5e-3);
  EXPECT_THROW(Simulation::from_args({"scenario=planewave", "scenario.kx=0",
                                      "scenario.ky=0", "scenario.kz=0"}),
               std::invalid_argument);
}

TEST(Facade, Loh1MaterialParamsChangeTheMedium) {
  // Doubling the halfspace density must show up in the initialized
  // parameter field below the interface (rho is quantity kRho).
  Simulation stock = Simulation::from_args({"scenario=loh1", "order=3"});
  Simulation dense = Simulation::from_args(
      {"scenario=loh1", "order=3", "scenario.half_rho=5.4"});
  const std::array<double, 3> below{4.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(stock.solver().sample(below, ElasticPde::kRho), 2.7);
  EXPECT_DOUBLE_EQ(dense.solver().sample(below, ElasticPde::kRho), 5.4);
}

TEST(Facade, GaussianSigmaParamShapesThePulse) {
  Simulation wide = Simulation::from_args(
      {"scenario=gaussian", "cells=2x2x2", "scenario.sigma=0.4"});
  Simulation narrow = Simulation::from_args(
      {"scenario=gaussian", "cells=2x2x2", "scenario.sigma=0.05"});
  const std::array<double, 3> off_center{0.75, 0.5, 0.5};
  EXPECT_GT(wide.solver().sample(off_center, 0),
            narrow.solver().sample(off_center, 0) + 0.5);
}

TEST(VariantNames, ParseAndNameAreInverse) {
  int count = 0;
  for (StpVariant v : kAllVariants) {
    EXPECT_EQ(parse_variant(variant_name(v)), v) << variant_name(v);
    ++count;
  }
  EXPECT_EQ(count, 5) << "kAllVariants must cover every dispatched variant";
  EXPECT_THROW(parse_variant("nope"), std::invalid_argument);
}

/// Unpadded nodal snapshot of every quantity in every cell.
std::vector<double> snapshot(const SolverBase& solver) {
  const AosLayout& layout = solver.layout();
  std::vector<double> values;
  for (int c = 0; c < solver.grid().num_cells(); ++c) {
    const double* qc = solver.cell_dofs(c);
    for (int k3 = 0; k3 < layout.n; ++k3)
      for (int k2 = 0; k2 < layout.n; ++k2)
        for (int k1 = 0; k1 < layout.n; ++k1)
          for (int s = 0; s < layout.m; ++s)
            values.push_back(qc[layout.idx(k3, k2, k1, s)]);
  }
  return values;
}

// The issue's registry guard: every registered PDE name x every kernel
// variant builds through the string-keyed path, takes a step, stays finite,
// and the optimized variants agree with the generic reference kernel.
TEST(EngineMatrix, EveryPdeRunsEveryVariantAndMatchesGeneric) {
  for (const std::string& pde_name : PdeRegistry::instance().names()) {
    std::vector<double> reference;
    for (StpVariant v : kAllVariants) {
      SimulationConfig config;
      config.scenario = "gaussian";
      config.pde = pde_name;
      config.variant = v;
      config.order = 3;
      config.grid.cells = {2, 2, 2};
      Simulation sim = Simulation::from_config(std::move(config));
      sim.solver().step(1e-3);
      sim.solver().step(1e-3);

      const std::vector<double> state = snapshot(sim.solver());
      for (double value : state) ASSERT_TRUE(std::isfinite(value))
          << pde_name << " " << variant_name(v);
      if (v == StpVariant::kGeneric) {
        reference = state;
        continue;
      }
      ASSERT_EQ(state.size(), reference.size());
      for (std::size_t i = 0; i < state.size(); ++i)
        ASSERT_NEAR(state[i], reference[i], 1e-9)
            << pde_name << " " << variant_name(v) << " node " << i;
    }
  }
}

TEST(Facade, PlanewaveMeetsTheAccuracyBudget) {
  Simulation sim = Simulation::from_args(
      {"pde=acoustic", "scenario=planewave", "variant=aosoa_splitck",
       "order=5", "cells=3x3x3", "t_end=0.25"});
  sim.run();
  EXPECT_LT(sim.l2_error(), 1e-3);
  EXPECT_NEAR(sim.solver().sample({0.5, 0.5, 0.5}, 0), 1.0, 1e-2);
}

TEST(Facade, RkStepperRunsTheSameScenario) {
  Simulation sim = Simulation::from_args(
      {"scenario=planewave", "stepper=rk4", "order=3", "t_end=0.1"});
  EXPECT_EQ(sim.solver().stepper_name(), "rk4");
  const int steps = sim.run();
  EXPECT_GT(steps, 0);
  EXPECT_LT(sim.l2_error(), 0.05);
}

TEST(Facade, RkStepperAcceptsPointSourceScenarios) {
  // LOH1 needs a point source; the RK baseline injects it per stage now.
  Simulation sim = Simulation::from_args(
      {"scenario=loh1", "stepper=rk4", "cells=4x4x4", "order=3",
       "t_end=0.4"});
  sim.run();
  // The Ricker source must have injected a signal into its cell.
  const double vz = sim.solver().sample({4.5, 4.5, 2.5}, ElasticPde::kVz);
  EXPECT_TRUE(std::isfinite(vz));
  EXPECT_NE(vz, 0.0);
}

TEST(Facade, MaxwellCavityTracksTheExactStandingMode) {
  Simulation sim = Simulation::from_args(
      {"scenario=maxwell_cavity", "order=3", "t_end=0.4"});
  sim.run();
  EXPECT_TRUE(sim.has_exact_solution());
  EXPECT_LT(sim.l2_error(), 2e-2);
}

TEST(Facade, GaussianAdvectionHasAnExactTranslate) {
  Simulation sim = Simulation::from_args(
      {"scenario=gaussian", "order=4", "cells=4x4x4", "t_end=0.2"});
  EXPECT_EQ(sim.pde().name(), "advection");
  sim.run();
  EXPECT_LT(sim.l2_error(), 5e-3);
}

TEST(Facade, BothSteppersSampleIdenticallyThroughTheBase) {
  // Same scenario, same nodal initial condition -> the shared
  // SolverBase::sample must return bit-identical values at t = 0.
  Simulation ader = Simulation::from_args(
      {"scenario=gaussian", "pde=acoustic", "order=4", "cells=2x2x2"});
  Simulation rk = Simulation::from_args(
      {"scenario=gaussian", "pde=acoustic", "order=4", "cells=2x2x2",
       "stepper=rk4"});
  for (const std::array<double, 3>& x :
       {std::array<double, 3>{0.5, 0.5, 0.5}, {0.3, 0.3, 0.3},
        {0.8, 0.1, 0.6}}) {
    const double a = ader.solver().sample(x, 0);
    EXPECT_TRUE(std::isfinite(a));
    EXPECT_DOUBLE_EQ(a, rk.solver().sample(x, 0));
  }
}

TEST(Facade, UnsupportedIsaThrows) {
  SimulationConfig config;
  config.isa = "bogus";
  EXPECT_THROW(Simulation::from_config(std::move(config)),
               std::invalid_argument);
}

}  // namespace
}  // namespace exastp

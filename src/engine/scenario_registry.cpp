#include "exastp/engine/scenario_registry.h"

#include <cmath>

#include "exastp/common/check.h"
#include "exastp/pde/acoustic.h"
#include "exastp/pde/advection.h"
#include "exastp/pde/maxwell.h"
#include "exastp/scenarios/loh1.h"
#include "exastp/scenarios/planewave.h"

namespace exastp {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// Exact acoustic plane wave (scenarios/planewave.h) on a periodic box.
/// The wave has unit wavelength, so the solution stays exact on any box
/// with integer extents; fractional extents break periodicity. The integer
/// wavenumbers are scenario parameters (scenario.kx/ky/kz, default 1,0,0).
class PlaneWaveScenario final : public Scenario {
 public:
  /// The parameterized wave shared by initial condition and exact solution.
  static PlaneWave wave(const SimulationConfig& config) {
    PlaneWave wave;
    const int kx = scenario_param_int(config, "kx", 1);
    const int ky = scenario_param_int(config, "ky", 0);
    const int kz = scenario_param_int(config, "kz", 0);
    EXASTP_CHECK_MSG(kx != 0 || ky != 0 || kz != 0,
                     "planewave needs a non-zero wavenumber");
    wave.wave_vector = {2.0 * kPi * kx, 2.0 * kPi * ky, 2.0 * kPi * kz};
    return wave;
  }

  const std::string& name() const override {
    static const std::string n = "planewave";
    return n;
  }
  std::string default_pde() const override { return "acoustic"; }
  std::vector<std::string> param_keys() const override {
    return {"kx", "ky", "kz"};
  }

  void configure(SimulationConfig& config) const override {
    config.grid.cells = {3, 3, 3};
    config.grid.extent = {1.0, 1.0, 1.0};  // one wavelength per dimension
    config.t_end = 0.25;
  }

  InitialCondition initial_condition(
      const std::shared_ptr<const KernelFactory>& /*pde*/,
      const SimulationConfig& config) const override {
    const PlaneWave w = wave(config);
    return [w](const std::array<double, 3>& x, double* q) {
      w.initial_condition(x, q);
    };
  }

  int error_quantity(const KernelFactory& /*pde*/) const override {
    return AcousticPde::kP;
  }
  ExactSolution exact_solution(
      const KernelFactory& /*pde*/,
      const SimulationConfig& config) const override {
    const PlaneWave w = wave(config);
    return [w](const std::array<double, 3>& x, double t) {
      return w.pressure(x, t);
    };
  }
};

/// PDE-agnostic Gaussian pulse on quantity 0 over the factory's background
/// medium; the smoke-test workload for any PDE.
class GaussianScenario final : public Scenario {
 public:
  /// Pulse placement shared by the initial condition and exact solution.
  struct Pulse {
    std::array<double, 3> center{};
    double sigma = 0.0;
  };
  static Pulse pulse(const SimulationConfig& config) {
    const GridSpec& grid = config.grid;
    Pulse p;
    double width = 0.0;
    for (int d = 0; d < 3; ++d) {
      p.center[d] = grid.origin[d] + 0.5 * grid.extent[d];
      width = std::max(width, grid.extent[d]);
    }
    p.sigma = scenario_param(config, "sigma", 0.1 * width);
    EXASTP_CHECK_MSG(p.sigma > 0.0, "gaussian sigma must be positive");
    return p;
  }

  const std::string& name() const override {
    static const std::string n = "gaussian";
    return n;
  }
  std::string default_pde() const override { return "advection"; }
  bool compatible_with(const std::string& /*pde_name*/) const override {
    return true;
  }
  std::vector<std::string> param_keys() const override { return {"sigma"}; }

  void configure(SimulationConfig& config) const override {
    config.grid.cells = {3, 3, 3};
  }

  InitialCondition initial_condition(
      const std::shared_ptr<const KernelFactory>& pde,
      const SimulationConfig& config) const override {
    const PdeInfo info = pde->info();
    const Pulse p = pulse(config);
    return [info, pde, p](const std::array<double, 3>& x, double* q) {
      double r2 = 0.0;
      for (int d = 0; d < 3; ++d)
        r2 += (x[d] - p.center[d]) * (x[d] - p.center[d]);
      for (int s = 0; s < info.vars; ++s) q[s] = 0.0;
      q[0] = std::exp(-r2 / (2.0 * p.sigma * p.sigma));
      pde->default_parameters(q);
    };
  }

  int error_quantity(const KernelFactory& pde) const override {
    // Only plain advection translates the pulse rigidly.
    return pde.name() == "advection" ? 0 : -1;
  }
  ExactSolution exact_solution(
      const KernelFactory& pde,
      const SimulationConfig& config) const override {
    if (error_quantity(pde) < 0) return nullptr;
    // Assumes periodic boundaries (the scenario default); with outflow
    // walls the wrapped translate stops being the true solution once the
    // pulse reaches a boundary.
    const GridSpec grid = config.grid;
    const Pulse p = pulse(config);
    const std::array<double, 3> velocity = AdvectionPde{}.velocity;
    return [grid, p, velocity](const std::array<double, 3>& x, double t) {
      double r2 = 0.0;
      for (int d = 0; d < 3; ++d) {
        // Periodic distance to the advected pulse center.
        double dx = x[d] - (p.center[d] + velocity[d] * t);
        dx -= grid.extent[d] * std::round(dx / grid.extent[d]);
        r2 += dx * dx;
      }
      return std::exp(-r2 / (2.0 * p.sigma * p.sigma));
    };
  }
};

/// LOH1-like layer over halfspace (scenarios/loh1.h): heterogeneous elastic
/// material, Ricker point source, absorbing sides, reflecting top.
class Loh1Scenario final : public Scenario {
 public:
  /// Loh1Config with the scenario.* material/source overrides applied; the
  /// grid itself stays under the ordinary cells/extent/origin keys.
  static Loh1Config loh1_config(const SimulationConfig& config) {
    Loh1Config c;
    c.layer_depth = scenario_param(config, "layer_depth", c.layer_depth);
    c.layer_rho = scenario_param(config, "layer_rho", c.layer_rho);
    c.layer_cp = scenario_param(config, "layer_cp", c.layer_cp);
    c.layer_cs = scenario_param(config, "layer_cs", c.layer_cs);
    c.half_rho = scenario_param(config, "half_rho", c.half_rho);
    c.half_cp = scenario_param(config, "half_cp", c.half_cp);
    c.half_cs = scenario_param(config, "half_cs", c.half_cs);
    c.source_frequency =
        scenario_param(config, "source_frequency", c.source_frequency);
    c.source_delay = scenario_param(config, "source_delay", c.source_delay);
    for (double v : {c.layer_rho, c.layer_cp, c.layer_cs, c.half_rho,
                     c.half_cp, c.half_cs, c.source_frequency})
      EXASTP_CHECK_MSG(v > 0.0,
                       "loh1 materials and source frequency must be positive");
    return c;
  }

  const std::string& name() const override {
    static const std::string n = "loh1";
    return n;
  }
  std::string default_pde() const override { return "elastic"; }
  std::vector<std::string> param_keys() const override {
    return {"layer_depth", "layer_rho", "layer_cp",
            "layer_cs",    "half_rho",  "half_cp",
            "half_cs",     "source_frequency", "source_delay"};
  }

  void configure(SimulationConfig& config) const override {
    const Loh1Config defaults;
    config.grid.cells = defaults.cells;
    config.grid.origin = {0.0, 0.0, 0.0};
    config.grid.extent = defaults.extent;
    config.grid.boundary = {BoundaryKind::kOutflow, BoundaryKind::kOutflow,
                            BoundaryKind::kWall};
    config.t_end = 2.0;
  }

  InitialCondition initial_condition(
      const std::shared_ptr<const KernelFactory>& /*pde*/,
      const SimulationConfig& config) const override {
    return loh1_initial_condition(loh1_config(config));
  }

  std::vector<MeshPointSource> sources(
      const SimulationConfig& config) const override {
    return {loh1_point_source(loh1_config(config))};
  }
};

/// TE101-like eigenmode of a perfectly conducting unit box; the Ey
/// component oscillates as a standing wave at omega = sqrt(2) pi. The
/// initial condition fixes the wavenumbers at pi, so the mode (and its
/// exact solution) remains valid on any integer-extent PEC box.
class MaxwellCavityScenario final : public Scenario {
 public:
  const std::string& name() const override {
    static const std::string n = "maxwell_cavity";
    return n;
  }
  std::string default_pde() const override { return "maxwell"; }

  void configure(SimulationConfig& config) const override {
    config.grid.cells = {3, 3, 3};
    config.grid.extent = {1.0, 1.0, 1.0};
    config.grid.boundary = {BoundaryKind::kWall, BoundaryKind::kWall,
                            BoundaryKind::kWall};  // PEC box
    config.t_end = 1.0;
  }

  InitialCondition initial_condition(
      const std::shared_ptr<const KernelFactory>& /*pde*/,
      const SimulationConfig& /*config*/) const override {
    return [](const std::array<double, 3>& x, double* q) {
      for (int s = 0; s < MaxwellPde::kVars; ++s) q[s] = 0.0;
      q[MaxwellPde::kEy] = std::sin(kPi * x[0]) * std::sin(kPi * x[2]);
      MaxwellPde::default_parameters(q);
    };
  }

  int error_quantity(const KernelFactory& /*pde*/) const override {
    return MaxwellPde::kEy;
  }
  ExactSolution exact_solution(
      const KernelFactory& /*pde*/,
      const SimulationConfig& /*config*/) const override {
    return [](const std::array<double, 3>& x, double t) {
      const double omega = std::sqrt(2.0) * kPi;
      return std::sin(kPi * x[0]) * std::sin(kPi * x[2]) *
             std::cos(omega * t);
    };
  }
};

const std::vector<std::shared_ptr<const Scenario>>& scenario_table() {
  static const std::vector<std::shared_ptr<const Scenario>> table = {
      std::make_shared<GaussianScenario>(),
      std::make_shared<PlaneWaveScenario>(),
      std::make_shared<Loh1Scenario>(),
      std::make_shared<MaxwellCavityScenario>(),
  };
  return table;
}

}  // namespace

std::shared_ptr<const Scenario> find_scenario(const std::string& name) {
  return find_named(scenario_table(), name, "scenario");
}

std::vector<std::string> scenario_names() {
  return names_of(scenario_table());
}

}  // namespace exastp

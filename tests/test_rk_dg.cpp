// Tests for the RK4-DG baseline solver: it must solve the same problems as
// the ADER-DG engine (it shares the spatial discretization), converge at
// min(spatial, RK4) order, and agree with ADER-DG trajectories to
// discretization accuracy.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "exastp/kernels/registry.h"
#include "exastp/pde/acoustic.h"
#include "exastp/pde/advection.h"
#include "exastp/scenarios/planewave.h"
#include "exastp/solver/ader_dg_solver.h"
#include "exastp/solver/norms.h"
#include "exastp/solver/rk_dg_solver.h"

namespace exastp {
namespace {

constexpr double kPi = std::numbers::pi;

RkDgSolver make_rk(int order, int cells_x) {
  AdvectionPde pde;
  pde.velocity = {1.0, 0.0, 0.0};
  GridSpec grid;
  grid.cells = {cells_x, 1, 1};
  auto runtime = std::make_shared<PdeAdapter<AdvectionPde>>(pde);
  return RkDgSolver(runtime, order, host_best_isa(), grid);
}

void sine_ic(const std::array<double, 3>& x, double* q) {
  for (int s = 0; s < AdvectionPde::kQuants; ++s)
    q[s] = std::sin(2.0 * kPi * x[0]);
}

TEST(RkDg, TransportsSineWave) {
  auto solver = make_rk(4, 8);
  solver.set_initial_condition(sine_ic);
  solver.run_until(0.1);
  const double err = l2_error(
      solver, 0, [](const std::array<double, 3>& x, double t) {
        return std::sin(2.0 * kPi * (x[0] - t));
      });
  EXPECT_LT(err, 1e-4);
}

TEST(RkDg, FourOperatorEvaluationsPerStep) {
  auto solver = make_rk(3, 2);
  solver.set_initial_condition(sine_ic);
  solver.step(1e-3);
  EXPECT_EQ(solver.operator_evaluations(), 4);
  solver.step(1e-3);
  EXPECT_EQ(solver.operator_evaluations(), 8);
}

TEST(RkDg, ConvergesAtDesignOrder) {
  // Order 3 spatial + RK4 time: expect ~3rd order overall.
  double errs[2];
  const int meshes[2] = {4, 8};
  for (int i = 0; i < 2; ++i) {
    auto solver = make_rk(3, meshes[i]);
    solver.set_initial_condition(sine_ic);
    solver.run_until(0.1);
    errs[i] = l2_error(solver, 0,
                       [](const std::array<double, 3>& x, double t) {
                         return std::sin(2.0 * kPi * (x[0] - t));
                       });
  }
  EXPECT_GT(std::log2(errs[0] / errs[1]), 2.3)
      << errs[0] << " -> " << errs[1];
}

TEST(RkDg, MatchesAderTrajectory) {
  // Same acoustic plane wave, both solvers, same end time: the solutions
  // must agree to the discretization error, not just qualitatively.
  AcousticPde pde;
  PlaneWave wave;
  GridSpec grid;
  grid.cells = {3, 1, 1};
  auto runtime = std::make_shared<PdeAdapter<AcousticPde>>(pde);

  RkDgSolver rk(runtime, 4, host_best_isa(), grid);
  rk.set_initial_condition([&](const std::array<double, 3>& x, double* q) {
    wave.initial_condition(x, q);
  });
  rk.run_until(0.1);

  AderDgSolver ader(
      runtime, make_stp_kernel(pde, StpVariant::kSplitCk, 4, host_best_isa()),
      grid);
  ader.set_initial_condition(
      [&](const std::array<double, 3>& x, double* q) {
        wave.initial_condition(x, q);
      });
  ader.run_until(0.1);

  auto exact = [&](const std::array<double, 3>& x, double t) {
    return wave.pressure(x, t);
  };
  const double err_rk = l2_error(rk, AcousticPde::kP, exact);
  const double err_ader = l2_error(ader, AcousticPde::kP, exact);
  EXPECT_LT(err_rk, 5e-3);
  EXPECT_LT(err_ader, 5e-3);
  // Cross-difference bounded by the sum of the two errors.
  double cross = 0.0;
  for (int c = 0; c < rk.grid().num_cells(); ++c) {
    const double* a = rk.cell_dofs(c);
    const double* b = ader.cell_dofs(c);
    for (std::size_t i = 0; i < rk.layout().size(); ++i)
      cross = std::max(cross, std::abs(a[i] - b[i]));
  }
  EXPECT_LT(cross, 2.0 * (err_rk + err_ader) + 1e-6);
}

TEST(RkDg, PointSourceMatchesAder) {
  // Same Ricker source, same spatial discretization: the RK4 per-stage
  // injection and the ADER direct time integral must agree to time-
  // integration accuracy (both fourth order).
  AcousticPde pde;
  GridSpec grid;
  grid.cells = {3, 3, 3};
  auto runtime = std::make_shared<PdeAdapter<AcousticPde>>(pde);
  auto quiet = [](const std::array<double, 3>&, double* q) {
    for (int s = 0; s < AcousticPde::kVars; ++s) q[s] = 0.0;
    q[AcousticPde::kRho] = 1.0;
    q[AcousticPde::kC] = 1.0;
  };
  MeshPointSource src;
  src.position = {0.5, 0.5, 0.5};
  src.quantity = AcousticPde::kP;
  src.wavelet = std::make_shared<RickerWavelet>(2.0, 0.4);

  RkDgSolver rk(runtime, 4, host_best_isa(), grid);
  rk.set_initial_condition(quiet);
  rk.add_point_source(src);
  rk.run_until(0.6, /*cfl=*/0.2);

  AderDgSolver ader(
      runtime, make_stp_kernel(pde, StpVariant::kSplitCk, 4, host_best_isa()),
      grid);
  ader.set_initial_condition(quiet);
  ader.add_point_source(src);
  ader.run_until(0.6, /*cfl=*/0.2);

  const double p_rk = rk.sample({0.55, 0.5, 0.5}, AcousticPde::kP);
  const double p_ader = ader.sample({0.55, 0.5, 0.5}, AcousticPde::kP);
  EXPECT_NE(p_rk, 0.0);
  EXPECT_NEAR(p_rk, p_ader, 2e-2 * std::abs(p_ader) + 1e-8);
}

TEST(RkDg, ConservesMassOnPeriodicMesh) {
  auto solver = make_rk(4, 4);
  solver.set_initial_condition(sine_ic);
  const double before = integral(solver, 2);
  solver.run_until(0.05);
  EXPECT_NEAR(integral(solver, 2), before, 1e-11);
}

TEST(RkDg, DetectsBlowUpAndBadDt) {
  auto solver = make_rk(3, 2);
  solver.set_initial_condition(sine_ic);
  EXPECT_THROW(solver.step(-1.0), std::invalid_argument);
  EXPECT_THROW(
      {
        for (int i = 0; i < 100; ++i) solver.step(100.0 * solver.stable_dt());
      },
      std::runtime_error);
}

}  // namespace
}  // namespace exastp

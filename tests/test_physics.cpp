// Physics-level integration tests: exact elastic plane waves (P and S),
// kernel linearity (the predictor is a linear operator in the wave state),
// Gauss-Lobatto end-to-end runs, the LOH1 scenario plumbing, and the
// convergence order of the 3-D acoustic plane wave under global and
// clustered local time stepping.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <string>
#include <vector>

#include "exastp/engine/simulation.h"
#include "exastp/kernels/registry.h"
#include "exastp/pde/elastic.h"
#include "exastp/scenarios/loh1.h"
#include "exastp/solver/norms.h"
#include "exastp/tensor/transpose.h"

namespace exastp {
namespace {

constexpr double kPi = std::numbers::pi;

// --------------------------------------------------------------------------
// Elastic plane waves. For propagation along x in an isotropic medium:
//  P wave: vx = f(x - cp t),  sxx = -rho cp f,  syy = szz = -lambda/cp f
//          (from d(sxx)/dt = (lam+2mu) d(vx)/dx etc.)
//  S wave: vy = f(x - cs t),  sxy = -rho cs f.
// We verify both propagate at their design speeds through the full solver.

struct ElasticMaterial {
  double rho = 2.7, cp = 6.0, cs = 3.464;
  double lambda() const { return rho * (cp * cp - 2.0 * cs * cs); }
  double mu() const { return rho * cs * cs; }
};

AderDgSolver make_elastic_solver(StpVariant variant, int order, int cells,
                                 NodeFamily family) {
  ElasticPde pde;
  GridSpec grid;
  grid.cells = {cells, 1, 1};
  auto runtime = std::make_shared<PdeAdapter<ElasticPde>>(pde);
  StpKernel kernel = make_stp_kernel(pde, variant, order, host_best_isa(),
                                     family);
  return AderDgSolver(runtime, std::move(kernel), grid, family);
}

struct WaveCase {
  StpVariant variant;
  NodeFamily family;
};

void PrintTo(const WaveCase& c, std::ostream* os) {
  *os << variant_name(c.variant)
      << (c.family == NodeFamily::kGaussLegendre ? "_legendre" : "_lobatto");
}

class ElasticWaveP : public ::testing::TestWithParam<WaveCase> {};

TEST_P(ElasticWaveP, PWavePropagatesAtCp) {
  const ElasticMaterial mat;
  auto solver = make_elastic_solver(GetParam().variant, 5, 6,
                                    GetParam().family);
  auto profile = [](double xi) { return std::sin(2.0 * kPi * xi); };
  solver.set_initial_condition(
      [&](const std::array<double, 3>& x, double* q) {
        const double f = profile(x[0]);
        for (int s = 0; s < ElasticPde::kVars; ++s) q[s] = 0.0;
        q[ElasticPde::kVx] = f;
        q[ElasticPde::kSxx] = -mat.rho * mat.cp * f;
        q[ElasticPde::kSyy] = -mat.lambda() / mat.cp * f;
        q[ElasticPde::kSzz] = -mat.lambda() / mat.cp * f;
        q[ElasticPde::kRho] = mat.rho;
        q[ElasticPde::kCp] = mat.cp;
        q[ElasticPde::kCs] = mat.cs;
      });
  const double t_end = 0.02;
  solver.run_until(t_end);
  const double err = l2_error(
      solver, ElasticPde::kVx,
      [&](const std::array<double, 3>& x, double t) {
        return profile(x[0] - mat.cp * t);
      });
  EXPECT_LT(err, 2e-4) << "P wave did not travel at cp";
}

TEST_P(ElasticWaveP, SWavePropagatesAtCs) {
  const ElasticMaterial mat;
  auto solver = make_elastic_solver(GetParam().variant, 5, 6,
                                    GetParam().family);
  auto profile = [](double xi) { return std::cos(2.0 * kPi * xi); };
  solver.set_initial_condition(
      [&](const std::array<double, 3>& x, double* q) {
        const double f = profile(x[0]);
        for (int s = 0; s < ElasticPde::kVars; ++s) q[s] = 0.0;
        q[ElasticPde::kVy] = f;
        q[ElasticPde::kSxy] = -mat.rho * mat.cs * f;
        q[ElasticPde::kRho] = mat.rho;
        q[ElasticPde::kCp] = mat.cp;
        q[ElasticPde::kCs] = mat.cs;
      });
  const double t_end = 0.03;
  solver.run_until(t_end);
  const double err = l2_error(
      solver, ElasticPde::kVy,
      [&](const std::array<double, 3>& x, double t) {
        return profile(x[0] - mat.cs * t);
      });
  EXPECT_LT(err, 2e-4) << "S wave did not travel at cs";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ElasticWaveP,
    ::testing::Values(
        WaveCase{StpVariant::kGeneric, NodeFamily::kGaussLegendre},
        WaveCase{StpVariant::kLog, NodeFamily::kGaussLegendre},
        WaveCase{StpVariant::kSplitCk, NodeFamily::kGaussLegendre},
        WaveCase{StpVariant::kAosoaSplitCk, NodeFamily::kGaussLegendre},
        WaveCase{StpVariant::kSplitCk, NodeFamily::kGaussLobatto},
        WaveCase{StpVariant::kAosoaSplitCk, NodeFamily::kGaussLobatto}));

// --------------------------------------------------------------------------
// Predictor linearity: for fixed parameters the CK predictor is a linear
// map of the wave state. qavg(a*q1 + q2) == a*qavg(q1) + qavg(q2).

class LinearityP : public ::testing::TestWithParam<StpVariant> {};

TEST_P(LinearityP, PredictorIsLinearInWaveState) {
  ElasticPde pde;
  const int order = 4;
  StpKernel kernel =
      make_stp_kernel(pde, GetParam(), order, host_best_isa());
  const AosLayout& aos = kernel.layout();

  auto fill = [&](AlignedVector& q, int seed) {
    q.assign(aos.size(), 0.0);
    for (int k3 = 0; k3 < order; ++k3)
      for (int k2 = 0; k2 < order; ++k2)
        for (int k1 = 0; k1 < order; ++k1) {
          double* node = q.data() + aos.idx(k3, k2, k1, 0);
          for (int s = 0; s < ElasticPde::kVars; ++s)
            node[s] = std::sin(0.3 * (k1 + 2 * k2 + 3 * k3) + s + seed);
          node[ElasticPde::kRho] = 2.7;
          node[ElasticPde::kCp] = 6.0;
          node[ElasticPde::kCs] = 3.4;
        }
  };
  AlignedVector q1, q2, qc;
  fill(q1, 0);
  fill(q2, 5);
  const double alpha = -1.3;
  qc = q1;
  for (int k3 = 0; k3 < order; ++k3)
    for (int k2 = 0; k2 < order; ++k2)
      for (int k1 = 0; k1 < order; ++k1)
        for (int s = 0; s < ElasticPde::kVars; ++s) {
          const std::size_t i = aos.idx(k3, k2, k1, s);
          qc[i] = alpha * q1[i] + q2[i];
        }

  auto run = [&](const AlignedVector& q) {
    AlignedVector qavg(aos.size()), f0(aos.size()), f1(aos.size()),
        f2(aos.size());
    StpOutputs out{qavg.data(), {f0.data(), f1.data(), f2.data()}};
    kernel.run(q.data(), 1e-3, {4.0, 4.0, 4.0}, nullptr, out);
    return qavg;
  };
  AlignedVector r1 = run(q1), r2 = run(q2), rc = run(qc);
  for (int k3 = 0; k3 < order; ++k3)
    for (int k2 = 0; k2 < order; ++k2)
      for (int k1 = 0; k1 < order; ++k1)
        for (int s = 0; s < ElasticPde::kVars; ++s) {
          const std::size_t i = aos.idx(k3, k2, k1, s);
          ASSERT_NEAR(rc[i], alpha * r1[i] + r2[i], 1e-10)
              << "not linear at " << i;
        }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, LinearityP,
                         ::testing::Values(StpVariant::kGeneric,
                                           StpVariant::kLog,
                                           StpVariant::kSplitCk,
                                           StpVariant::kAosoaSplitCk),
                         [](const auto& info) {
                           return variant_name(info.param);
                         });

// --------------------------------------------------------------------------
// LOH1 scenario plumbing.

TEST(Loh1, MaterialsSplitAtTheInterface) {
  Loh1Config config;
  config.order = 3;
  config.cells = {2, 2, 4};
  auto solver = make_loh1_solver(config, host_best_isa());
  // Sample material above and below the interface plane.
  const double above = solver->sample({4.0, 4.0, 0.5}, ElasticPde::kCp);
  const double below = solver->sample({4.0, 4.0, 6.0}, ElasticPde::kCp);
  EXPECT_NEAR(above, config.layer_cp, 1e-9);
  EXPECT_NEAR(below, config.half_cp, 1e-9);
}

TEST(Loh1, SourceRadiatesIntoBothLayers) {
  Loh1Config config;
  config.order = 3;
  config.cells = {2, 2, 2};
  config.source_frequency = 2.0;
  config.source_delay = 0.6;
  auto solver = make_loh1_solver(config, host_best_isa());
  solver->run_until(1.2);
  double layer_energy = l2_error(
      *solver, ElasticPde::kVz,
      [](const std::array<double, 3>&, double) { return 0.0; });
  EXPECT_GT(layer_energy, 1e-8) << "no wavefield produced";
  for (int s = 0; s < ElasticPde::kVars; ++s) {
    const double v = solver->sample({5.0, 4.0, 5.0}, s);
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(Loh1, AllVariantsProduceTheSameSeismogramSample) {
  double reference = 0.0;
  for (StpVariant v : kAllVariants) {
    Loh1Config config;
    config.order = 3;
    config.cells = {2, 2, 2};
    config.variant = v;
    config.source_delay = 0.5;
    auto solver = make_loh1_solver(config, host_best_isa());
    solver->run_until(0.8);
    const double sample =
        solver->sample(config.receiver_position, ElasticPde::kVz);
    if (v == StpVariant::kGeneric) {
      reference = sample;
    } else {
      EXPECT_NEAR(sample, reference,
                  1e-8 * std::max(1.0, std::abs(reference)))
          << variant_name(v);
    }
  }
}

// --------------------------------------------------------------------------
// Convergence of the 3-D acoustic plane wave: a diagonal wave vector on a
// periodic mesh, order 4, at two mesh levels (h and h/2), with global
// stepping and with the forced three-cluster schedule of
// LtsSolver.ForcedMultiClusterTracksGlobalOnPlaneWave. The bitwise matrices
// show that decompositions agree with each other; this shows that the
// answer converges at the design order, including across cluster faces.

double planewave_l2_error(int cells, bool lts) {
  const std::string n = std::to_string(cells);
  Simulation sim = Simulation::from_args(
      {"scenario=planewave", "order=4", "cells=" + n + "x" + n + "x" + n,
       "scenario.kx=1", "scenario.ky=1", "scenario.kz=1", "t_end=0.05",
       "cfl=0.1", "threads=1", "shards=1"});
  if (lts) {
    // x-bands 0|1|2|1 by quarter of the box: at most one cluster apart
    // across every face, the periodic wrap included, at both mesh levels.
    const Grid& grid = sim.solver().grid();
    const int band_by_quarter[4] = {0, 1, 2, 1};
    std::vector<int> assignment(static_cast<std::size_t>(grid.num_cells()));
    for (int c = 0; c < grid.num_cells(); ++c)
      assignment[static_cast<std::size_t>(c)] =
          band_by_quarter[grid.coords(c)[0] * 4 / cells];
    sim.solver().enable_lts(assignment, 3);
  }
  sim.run();
  return sim.l2_error();
}

TEST(PlaneWaveConvergence, AcousticOrder4GlobalAndForcedThreeClusterLts) {
  const int order = 4;
  for (const bool lts : {false, true}) {
    const double coarse = planewave_l2_error(4, lts);
    const double fine = planewave_l2_error(8, lts);
    const double rate = std::log2(coarse / fine);
    EXPECT_GE(rate, order - 0.7)
        << (lts ? "forced three-cluster LTS" : "global stepping")
        << ": L2 error " << coarse << " -> " << fine;
  }
}

}  // namespace
}  // namespace exastp

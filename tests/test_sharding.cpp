// Domain decomposition: partition/halo-plan correctness, grid-view
// geometry, and the sharded bitwise-equivalence matrix.
//
// The contract under test (see README "Sharding"): for every tested shard
// block grid (ragged splits included), stepper, PDE and thread count, the
// field state after run_until is bitwise-identical to the monolithic
// shards=1 path, and observers (receiver networks, VTK series) produce
// equivalent output. These tests carry the `sharded` ctest label the TSan
// CI job runs.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exastp/engine/simulation.h"
#include "exastp/engine/sweep.h"
#include "exastp/mesh/partition.h"
#include "exastp/solver/sharded_solver.h"

namespace exastp {
namespace {

/// Largest absolute DOF difference over global cells; 0.0 means
/// bitwise-identical (all test states are finite).
double max_dof_difference(const SolverBase& a, const SolverBase& b) {
  EXPECT_EQ(a.grid().num_cells(), b.grid().num_cells());
  EXPECT_EQ(a.layout().size(), b.layout().size());
  double worst = 0.0;
  for (int c = 0; c < a.grid().num_cells(); ++c) {
    const double* qa = a.cell_dofs(c);
    const double* qb = b.cell_dofs(c);
    for (std::size_t i = 0; i < a.layout().size(); ++i)
      worst = std::max(worst, std::abs(qa[i] - qb[i]));
  }
  return worst;
}

Simulation run_with(const std::vector<std::string>& args,
                    const std::vector<std::string>& extra) {
  std::vector<std::string> full = args;
  full.insert(full.end(), extra.begin(), extra.end());
  Simulation sim = Simulation::from_args(full);
  sim.run();
  return sim;
}

/// The acceptance matrix: every decomposition x thread count must be
/// bitwise-identical to the monolithic serial run.
void expect_shard_invariant(const std::vector<std::string>& args,
                            const std::vector<std::string>& shard_grids = {
                                "2x1x1", "2x2x1", "3x2x1"}) {
  Simulation mono = run_with(args, {"shards=1", "threads=1"});
  EXPECT_EQ(mono.solver().num_shards(), 1);
  for (const std::string& shards : shard_grids) {
    for (int threads : {1, 4}) {
      Simulation sharded = run_with(
          args, {"shards=" + shards, "threads=" + std::to_string(threads)});
      EXPECT_GT(sharded.solver().num_shards(), 1) << shards;
      EXPECT_EQ(mono.solver().time(), sharded.solver().time());
      EXPECT_EQ(max_dof_difference(mono.solver(), sharded.solver()), 0.0)
          << "shards=" << shards << " threads=" << threads
          << " diverged from the monolithic run";
      if (mono.has_exact_solution()) {
        EXPECT_EQ(mono.l2_error(), sharded.l2_error())
            << "shards=" << shards << " threads=" << threads;
      }
    }
  }
}

TEST(Partition, SplitsAreRaggedAndExhaustive) {
  EXPECT_EQ(Partition::split_sizes(5, 2), (std::vector<int>{3, 2}));
  EXPECT_EQ(Partition::split_sizes(6, 3), (std::vector<int>{2, 2, 2}));
  EXPECT_THROW(Partition::split_sizes(2, 3), std::invalid_argument);

  GridSpec spec;
  spec.cells = {5, 4, 3};
  Partition partition(spec, {2, 2, 1});
  ASSERT_EQ(partition.num_shards(), 4);
  EXPECT_EQ(partition.min_cells_per_shard(), 2 * 2 * 3);
  EXPECT_EQ(partition.max_cells_per_shard(), 3 * 2 * 3);

  // Every global cell is owned by exactly the shard the maps report, and
  // the local <-> global round trip is the identity.
  const int total = 5 * 4 * 3;
  std::vector<int> seen(static_cast<std::size_t>(total), 0);
  for (int s = 0; s < partition.num_shards(); ++s) {
    const Subdomain& sub = partition.subdomain(s);
    for (int c = 0; c < sub.grid.num_cells(); ++c) {
      const int g = partition.global_cell(s, c);
      ASSERT_GE(g, 0);
      ASSERT_LT(g, total);
      ++seen[static_cast<std::size_t>(g)];
      EXPECT_EQ(partition.owner_of(g), s);
      EXPECT_EQ(partition.local_cell(g), c);
    }
  }
  for (int g = 0; g < total; ++g) EXPECT_EQ(seen[static_cast<std::size_t>(g)], 1);
}

TEST(Partition, FactorAssignsShardsToLargeDimensions) {
  EXPECT_EQ(Partition::factor(1, {4, 4, 4}), (std::array<int, 3>{1, 1, 1}));
  EXPECT_EQ(Partition::factor(4, {8, 4, 2}), (std::array<int, 3>{4, 1, 1}));
  EXPECT_EQ(Partition::factor(4, {4, 4, 4}), (std::array<int, 3>{2, 2, 1}));
  // Factors no dimension can absorb shrink the effective shard count.
  EXPECT_EQ(Partition::factor(7, {3, 3, 3}), (std::array<int, 3>{1, 1, 1}));
}

TEST(GridView, GeometryIsBitwiseIdenticalToTheGlobalGrid) {
  GridSpec spec;
  spec.cells = {5, 4, 3};
  spec.origin = {-1.0, 0.25, 2.0};
  spec.extent = {3.0, 2.0, 1.5};
  Grid global(spec);
  Partition partition(spec, {2, 2, 1});
  for (int s = 0; s < partition.num_shards(); ++s) {
    const Grid& view = partition.subdomain(s).grid;
    EXPECT_TRUE(view.partitioned());
    for (int d = 0; d < 3; ++d) EXPECT_EQ(view.dx(d), global.dx(d));
    for (int c = 0; c < view.num_cells(); ++c) {
      const int g = view.global_cell(c);
      EXPECT_EQ(view.cell_origin(c), global.cell_origin(g));
      // locate through the view resolves to the same global cell and the
      // same reference coordinates.
      const auto o = view.cell_origin(c);
      const std::array<double, 3> x{o[0] + 0.3 * view.dx(0),
                                    o[1] + 0.6 * view.dx(1),
                                    o[2] + 0.9 * view.dx(2)};
      std::array<double, 3> xi_view{}, xi_global{};
      EXPECT_EQ(view.global_cell(view.locate(x, &xi_view)),
                global.locate(x, &xi_global));
      EXPECT_EQ(xi_view, xi_global);
    }
  }
  // Points outside a view's box are rejected even though they are inside
  // the domain.
  const Grid& first = partition.subdomain(0).grid;
  EXPECT_THROW(first.locate({1.9, 2.2, 3.4}), std::invalid_argument);
}

TEST(HaloPlan, PeriodicBoundariesWrapAcrossShards) {
  GridSpec spec;
  spec.cells = {4, 4, 4};  // all-periodic default
  Partition partition(spec, {2, 1, 1});
  ASSERT_EQ(partition.num_shards(), 2);
  for (int s = 0; s < 2; ++s) {
    const Subdomain& sub = partition.subdomain(s);
    // Only the x faces are remote (y/z wrap inside the full-span view).
    ASSERT_EQ(sub.halos.size(), 2u);
    EXPECT_EQ(sub.grid.num_halo_cells(), 2 * 4 * 4);
    for (const HaloPlan& plan : sub.halos) {
      EXPECT_EQ(plan.dir, 0);
      EXPECT_EQ(plan.src_shard, 1 - s) << "two shards neighbour each other "
                                          "on both faces (one via the wrap)";
      EXPECT_EQ(plan.src_cells.size(), 16u);
      EXPECT_GE(plan.dst_begin, sub.grid.num_cells());
      // The packed plane hugs the shared face: lower halo <- source's
      // upper plane, upper halo <- source's lower plane.
      const Subdomain& src = partition.subdomain(plan.src_shard);
      for (std::size_t i = 0; i < plan.src_cells.size(); ++i) {
        const auto c = src.grid.coords(plan.src_cells[i]);
        EXPECT_EQ(c[0], plan.side == 0 ? src.size[0] - 1 : 0);
      }
    }
  }
  // neighbor() hands out exactly those halo slots at the view edge.
  const Subdomain& sub = partition.subdomain(0);
  const NeighborRef lower = sub.grid.neighbor(sub.grid.index(0, 2, 1), 0, 0);
  EXPECT_FALSE(lower.boundary);
  EXPECT_GE(lower.cell, sub.grid.num_cells());
  EXPECT_LT(lower.cell, sub.grid.num_cells() + sub.grid.num_halo_cells());
}

TEST(HaloPlan, OutflowAndWallEdgesStayBoundaries) {
  for (const BoundaryKind kind :
       {BoundaryKind::kOutflow, BoundaryKind::kWall}) {
    GridSpec spec;
    spec.cells = {4, 3, 3};
    spec.boundary = {kind, kind, kind};
    Partition partition(spec, {2, 1, 1});
    for (int s = 0; s < 2; ++s) {
      const Subdomain& sub = partition.subdomain(s);
      // Exactly one remote face per shard: the inter-shard interface. The
      // true domain edge builds ghost states, not halos.
      ASSERT_EQ(sub.halos.size(), 1u);
      EXPECT_EQ(sub.halos[0].dir, 0);
      EXPECT_EQ(sub.halos[0].side, s == 0 ? 1 : 0);
      EXPECT_EQ(sub.halos[0].src_shard, 1 - s);
      EXPECT_EQ(sub.grid.num_halo_cells(), 3 * 3);

      const int edge_x = s == 0 ? 0 : sub.size[0] - 1;
      const NeighborRef nb =
          sub.grid.neighbor(sub.grid.index(edge_x, 1, 1), 0, s == 0 ? 0 : 1);
      EXPECT_TRUE(nb.boundary);
      EXPECT_EQ(nb.kind, kind);
    }
  }
}

// ---- Bitwise-equivalence matrix ---------------------------------------
// Ragged decompositions come free from the 5x4x3 box (5 cells over 2 or 3
// x-shards, 4 cells over ... see Partition::split_sizes).

TEST(ShardDeterminism, AderAcousticPlanewave) {
  expect_shard_invariant({"scenario=planewave", "pde=acoustic",
                          "stepper=ader", "order=3", "cells=5x4x3",
                          "t_end=0.08"});
}

TEST(ShardDeterminism, AderMaxwellGaussian) {
  expect_shard_invariant({"scenario=gaussian", "pde=maxwell", "stepper=ader",
                          "order=3", "cells=5x4x3", "t_end=0.08"});
}

TEST(ShardDeterminism, RkAcousticPlanewave) {
  expect_shard_invariant({"scenario=planewave", "pde=acoustic",
                          "stepper=rk4", "order=3", "cells=5x4x3",
                          "t_end=0.08"});
}

TEST(ShardDeterminism, RkMaxwellGaussian) {
  expect_shard_invariant({"scenario=gaussian", "pde=maxwell", "stepper=rk4",
                          "order=3", "cells=5x4x3", "t_end=0.08"});
}

// Non-periodic boundaries: ghost faces at the true domain edge must build
// the same states under sharding (plans exist only between shards).
TEST(ShardDeterminism, AderOutflowWallPeriodicMix) {
  expect_shard_invariant({"scenario=planewave", "order=3", "cells=5x4x3",
                          "bc=outflow,wall,periodic", "t_end=0.08"});
}

// Point sources route to their owning shard (LOH1: heterogeneous material,
// Ricker wavelet, absorbing + wall boundaries, both steppers).
TEST(ShardDeterminism, AderLoh1PointSource) {
  expect_shard_invariant({"scenario=loh1", "stepper=ader", "order=3",
                          "t_end=0.3"},
                         {"2x2x1"});
}

TEST(ShardDeterminism, RkLoh1PointSource) {
  expect_shard_invariant({"scenario=loh1", "stepper=rk4", "order=3",
                          "t_end=0.3"},
                         {"2x2x1"});
}

// The sharded composite drives its shards' phases inside step(), so to a
// caller it is what SolverBase's defaults describe: one phase, no halo
// fields of its own, and step_phase(0) is step(dt). Checked on a genuine
// multi-cluster LTS schedule (the softened layer bins LOH1 into clusters).
TEST(ShardDeterminism, StepPhasesInOrderEqualOneStep) {
  const std::vector<std::string> args{
      "scenario=loh1",         "order=3",
      "cells=6x6x6",           "lts=on",
      "scenario.layer_cp=1.5", "scenario.layer_cs=0.75",
      "shards=2x2x1"};
  Simulation stepped = Simulation::from_args(args);
  Simulation phased = Simulation::from_args(args);
  SolverBase& by_step = stepped.solver();
  SolverBase& by_phase = phased.solver();
  ASSERT_GT(by_phase.num_shards(), 1);
  EXPECT_GT(by_phase.lts_num_clusters(), 1);
  ASSERT_EQ(by_phase.num_step_phases(), 1);
  EXPECT_TRUE(by_phase.step_phase_halo_fields(0).empty());
  for (int step = 0; step < 2; ++step) {
    const double dt = by_step.plan_step(by_step.stable_dt());
    by_step.step(dt);
    by_phase.step_phase(0, dt);
  }
  EXPECT_EQ(by_step.time(), by_phase.time());
  EXPECT_EQ(max_dof_difference(by_step, by_phase), 0.0);
}

// ---- Observer equivalence under sharding ------------------------------

TEST(Sharding, ReceiversMatchTheAnalyticPlanewaveAndTheMonolithicRun) {
  // One receiver sits exactly on the upper domain corner — the Grid::locate
  // clamp regression (it used to throw "point outside the domain").
  const std::vector<std::string> args = {
      "scenario=planewave", "order=5",  "cells=4x4x4",
      "t_end=0.2",          "threads=2",
      "receivers=0.3,0.45,0.6;0.5,0.5,0.5;1.0,1.0,1.0"};
  Simulation mono = run_with(args, {"shards=1"});
  Simulation sharded = run_with(args, {"shards=2x2x1"});
  ASSERT_NE(mono.receivers(), nullptr);
  ASSERT_NE(sharded.receivers(), nullptr);
  const ReceiverNetwork& a = *mono.receivers();
  const ReceiverNetwork& b = *sharded.receivers();
  ASSERT_EQ(a.num_samples(), b.num_samples());
  ASSERT_EQ(a.quantities(), b.quantities());

  // Sharded traces are bitwise-identical to the monolithic ones ...
  for (std::size_t i = 0; i < a.num_samples(); ++i)
    for (std::size_t r = 0; r < a.num_receivers(); ++r)
      for (std::size_t q = 0; q < a.quantities().size(); ++q)
        EXPECT_EQ(a.value(i, r, q), b.value(i, r, q))
            << "sample " << i << " receiver " << r << " slot " << q;

  // ... and track the analytic plane wave. Quantity slots are the evolved
  // quantities in order, so the error quantity's slot is its own index.
  const int quantity = sharded.error_quantity();
  ASSERT_GE(quantity, 0);
  const ExactSolution exact =
      sharded.scenario().exact_solution(sharded.pde(), sharded.config());
  ASSERT_NE(exact, nullptr);
  double worst = 0.0;
  for (std::size_t i = 0; i < b.num_samples(); ++i)
    for (std::size_t r = 0; r < b.num_receivers(); ++r)
      worst = std::max(
          worst, std::abs(b.value(i, r, static_cast<std::size_t>(quantity)) -
                          exact(b.positions()[r], b.times()[i])));
  EXPECT_LT(worst, 2e-3) << "sharded receiver traces drifted off the "
                            "analytic plane wave";
}

/// Reads the first SCALARS block of a legacy-VTK file written by
/// write_vtk_cell_averages (one value per cell, cell-index order).
std::vector<double> read_first_scalars(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("LOOKUP_TABLE", 0) == 0) break;
  std::vector<double> values;
  double v = 0.0;
  while (in >> v) {
    values.push_back(v);
    if (in.peek() == 'S') break;  // next SCALARS section
  }
  return values;
}

TEST(Sharding, VtkSeriesTilesTheDomainIntoPieces) {
  const std::string mono_base = "/tmp/exastp_shard_series_mono";
  const std::string shard_base = "/tmp/exastp_shard_series_split";
  const std::vector<std::string> args = {"scenario=planewave", "order=3",
                                         "cells=4x4x2", "t_end=0.06",
                                         "output.interval=0.03"};
  Simulation mono =
      run_with(args, {"shards=1", "output.series=" + mono_base});
  Simulation sharded =
      run_with(args, {"shards=2x2x1", "output.series=" + shard_base});

  const auto* composite =
      dynamic_cast<const ShardedSolver*>(&sharded.solver());
  ASSERT_NE(composite, nullptr);
  const Partition& partition = composite->partition();

  // The index lists every piece of every snapshot under its part id.
  std::ifstream index(shard_base + ".pvd");
  ASSERT_TRUE(index.good());
  std::stringstream ss;
  ss << index.rdbuf();
  for (int p = 0; p < partition.num_shards(); ++p)
    EXPECT_NE(ss.str().find("part=\"" + std::to_string(p) + "\""),
              std::string::npos);

  // Snapshot 0 reassembled from the pieces equals the monolithic snapshot
  // value-for-value (cell averages of bitwise-identical fields, printed by
  // the same writer).
  const std::vector<double> mono_values =
      read_first_scalars(mono_base + "_0000.vtk");
  ASSERT_EQ(mono_values.size(),
            static_cast<std::size_t>(mono.solver().grid().num_cells()));
  int pieces = 0;
  for (int p = 0; p < partition.num_shards(); ++p) {
    char suffix[24];
    std::snprintf(suffix, sizeof(suffix), "_0000_p%02d.vtk", p);
    const std::vector<double> piece = read_first_scalars(shard_base + suffix);
    ASSERT_EQ(piece.size(), static_cast<std::size_t>(
                                partition.subdomain(p).grid.num_cells()));
    for (std::size_t c = 0; c < piece.size(); ++c)
      EXPECT_EQ(piece[c],
                mono_values[static_cast<std::size_t>(
                    partition.global_cell(p, static_cast<int>(c)))])
          << "piece " << p << " cell " << c;
    ++pieces;
  }
  EXPECT_EQ(pieces, 4);

  // Cleanup (best effort).
  for (int i = 0; i < 8; ++i) {
    char suffix[24];
    std::snprintf(suffix, sizeof(suffix), "_%04d.vtk", i);
    std::remove((mono_base + suffix).c_str());
    for (int p = 0; p < 4; ++p) {
      std::snprintf(suffix, sizeof(suffix), "_%04d_p%02d.vtk", i, p);
      std::remove((shard_base + suffix).c_str());
    }
  }
  std::remove((mono_base + ".pvd").c_str());
  std::remove((shard_base + ".pvd").c_str());
}

TEST(Sharding, SweepAcceptsShardsAsAKey) {
  SweepSpec spec;
  spec.key = "shards";
  spec.values = {"1", "2", "4"};
  std::ostringstream out;
  const int runs = run_sweep({"scenario=planewave", "order=3", "cells=4x4x4",
                              "t_end=0.05", "threads=2"},
                             spec, out);
  EXPECT_EQ(runs, 3);
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("shards,", 0), 0u);
  // Sharding never changes the physics: the l2_error column repeats the
  // same value (bitwise, so the formatted text matches) for every count.
  std::string first_error;
  int rows = 0;
  while (std::getline(lines, line)) {
    const auto c1 = line.find(',');
    const auto c2 = line.find(',', c1 + 1);
    const auto c3 = line.find(',', c2 + 1);
    const auto c4 = line.find(',', c3 + 1);
    const std::string err = line.substr(c3 + 1, c4 - c3 - 1);
    if (rows == 0) first_error = err;
    EXPECT_EQ(err, first_error) << line;
    ++rows;
  }
  EXPECT_EQ(rows, 3);
}

TEST(Sharding, SummaryReportsTheEffectiveTopology) {
  Simulation sim = Simulation::from_args(
      {"scenario=planewave", "order=3", "cells=5x4x3", "shards=2x2x1",
       "threads=2"});
  const std::string summary = sim.summary();
  EXPECT_NE(summary.find("shards=2x2x1"), std::string::npos) << summary;
  EXPECT_NE(summary.find("threads=2"), std::string::npos) << summary;
  EXPECT_NE(summary.find("cells/shard=12-18"), std::string::npos) << summary;
  EXPECT_EQ(sim.shard_grid(), (std::array<int, 3>{2, 2, 1}));

  // shards=N and shards=auto factor onto the mesh; the summary shows what
  // was actually built.
  Simulation factored = Simulation::from_args(
      {"scenario=planewave", "order=3", "cells=4x4x4", "shards=4"});
  EXPECT_EQ(factored.shard_grid(), (std::array<int, 3>{2, 2, 1}));
  EXPECT_NE(factored.summary().find("shards=2x2x1"), std::string::npos);
}

TEST(Sharding, PlanewaveHaloCarriesOneTracePerHaloCell) {
  // The perfbench planewave partition: 64 shards of 4^3 cells, each with
  // six 16-cell halo faces. One order-4 acoustic trace is 16 nodes x 8
  // padded doubles, so a field moves 6144 x 1024 B (a whole cell tensor
  // per halo cell moved 4x as much).
  if (!host_supports(Isa::kAvx2)) GTEST_SKIP() << "needs the padded layout";
  Simulation sim = Simulation::from_args(
      {"scenario=planewave", "pde=acoustic", "order=4", "precision=fp32",
       "variant=aosoa_splitck", "isa=avx2", "cells=16x16x16",
       "shards=4x4x4", "threads=1"});
  const auto& sharded = dynamic_cast<const ShardedSolver&>(sim.solver());
  EXPECT_EQ(sharded.exchange_backend().payload_bytes_per_exchange(),
            6291456u);
  EXPECT_EQ(sharded.exchange_backend().copied_bytes_per_exchange(),
            6291456u);
}

}  // namespace
}  // namespace exastp

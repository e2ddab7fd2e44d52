// Distributed execution: backend=mpi equivalence against backend=inprocess,
// run under mpirun (see CMakeLists.txt: test_mpi_np2 / test_mpi_np3 /
// test_mpi_np4, `ctest -L mpi`).
//
// Every rank runs this binary. The acceptance contract: for every
// decomposition of the matrix matching the launch size — one shard per
// rank, over-decomposed rank maps (shards_per_rank > 1) and ragged
// groupings (5 shards on 2 or 3 ranks) — the fields after run_until are
// bitwise-identical between `backend=inprocess shards=N` (each rank
// replays the local run, which is deterministic) and `backend=mpi` — and
// the merged receiver/VTK artifacts match the local run's byte for byte.
// Tests skip decompositions that do not match the launch size, so one
// binary serves -np 2, 3 and 4.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exastp/common/mpi_runtime.h"
#include "exastp/engine/simulation.h"
#include "exastp/io/receiver_sinks.h"

namespace exastp {
namespace {

/// Decomposition key sets that fit this launch size. The first entry is
/// always the plain one-shard-per-rank split (the artifact tests use it);
/// the rest over-decompose — shards_per_rank=2 and the ragged 5-shard
/// grouping (5 on 2 ranks -> 3|2, 5 on 3 -> 2|2|1).
std::vector<std::vector<std::string>> decompositions_for(int ranks) {
  switch (ranks) {
    case 2:
      return {{"shards=2x1x1"},
              {"shards=5x1x1"},
              {"shards=auto", "shards_per_rank=2"}};
    case 3:
      return {{"shards=3x1x1"},
              {"shards=5x1x1"},
              {"shards=auto", "shards_per_rank=2"}};
    case 4:
      return {{"shards=2x2x1"},
              {"shards=4x1x1"},
              {"shards=auto", "shards_per_rank=2"}};
    case 6:
      return {{"shards=3x2x1"}};
    default:
      return {};
  }
}

std::string label_of(const std::vector<std::string>& keys) {
  std::string label;
  for (const std::string& key : keys)
    label += (label.empty() ? "" : " ") + key;
  return label;
}

Simulation run_with(const std::vector<std::string>& args,
                    const std::vector<std::string>& extra) {
  std::vector<std::string> full = args;
  full.insert(full.end(), extra.begin(), extra.end());
  Simulation sim = Simulation::from_args(full);
  sim.run();
  return sim;
}

/// Bitwise comparison of every shard this rank materializes (one under
/// the plain rank map, several under an over-decomposed one) between a
/// distributed run and the locally-replayed in-process reference.
void expect_local_shard_bitwise_equal(const Simulation& mpi,
                                      const Simulation& local,
                                      const std::string& label) {
  ASSERT_EQ(mpi.solver().num_ranks(), MpiRuntime::size()) << label;
  ASSERT_EQ(mpi.solver().num_shards(), local.solver().num_shards()) << label;
  EXPECT_EQ(mpi.solver().time(), local.solver().time()) << label;
  int local_shards = 0;
  for (int s = 0; s < mpi.solver().num_shards(); ++s) {
    if (!mpi.solver().shard_is_local(s)) continue;
    ++local_shards;
    const SolverBase& mine = mpi.solver().shard(s);
    const SolverBase& ref = local.solver().shard(s);
    ASSERT_EQ(mine.grid().num_cells(), ref.grid().num_cells()) << label;
    for (int c = 0; c < mine.grid().num_cells(); ++c) {
      const double* qa = mine.cell_dofs(c);
      const double* qb = ref.cell_dofs(c);
      for (std::size_t i = 0; i < mine.layout().size(); ++i)
        ASSERT_EQ(qa[i], qb[i])
            << label << ": rank " << MpiRuntime::rank() << " shard " << s
            << " cell " << c << " slot " << i
            << " diverged from the in-process run";
    }
  }
  EXPECT_GE(local_shards, 1) << label;
}

/// The acceptance matrix body: every launch-compatible decomposition must
/// be bitwise-identical between the two backends.
void expect_mpi_invariant(const std::vector<std::string>& args) {
  const auto decompositions = decompositions_for(MpiRuntime::size());
  if (decompositions.empty())
    GTEST_SKIP() << "no matrix decomposition for " << MpiRuntime::size()
                 << " ranks";
  for (const std::vector<std::string>& keys : decompositions) {
    std::vector<std::string> mpi_keys = keys;
    mpi_keys.push_back("backend=mpi");
    std::vector<std::string> local_keys = keys;
    local_keys.push_back("backend=inprocess");
    // A local replay of an over-decomposed auto split materializes
    // shards_per_rank x size shards; tell the resolver how many ranks'
    // worth to build. shards=auto + shards_per_rank=N resolves locally to
    // N shards, so pin the total explicitly instead.
    Simulation mpi = run_with(args, mpi_keys);
    std::vector<std::string> replay_keys = local_keys;
    for (std::string& key : replay_keys)
      if (key == "shards=auto")
        key = "shards=" + std::to_string(mpi.solver().num_shards());
    // Drop a now-redundant shards_per_rank on the local replay — locally
    // it would demand total == 1 * N.
    std::vector<std::string> final_keys;
    for (const std::string& key : replay_keys)
      if (key.rfind("shards_per_rank=", 0) != 0) final_keys.push_back(key);
    Simulation local = run_with(args, final_keys);
    expect_local_shard_bitwise_equal(mpi, local, label_of(keys));
    if (local.has_exact_solution()) {
      // The distributed L2 sums per shard then per rank; same value up to
      // the changed floating-point association.
      const double mpi_l2 = mpi.l2_error();
      const double local_l2 = local.l2_error();
      EXPECT_NEAR(mpi_l2, local_l2, 1e-12 * (1.0 + std::abs(local_l2)))
          << label_of(keys);
    }
  }
}

TEST(MpiEquivalence, AderAcousticPlanewave) {
  expect_mpi_invariant({"scenario=planewave", "pde=acoustic", "stepper=ader",
                        "order=3", "cells=5x4x3", "t_end=0.08", "threads=1"});
}

TEST(MpiEquivalence, RkAcousticPlanewave) {
  expect_mpi_invariant({"scenario=planewave", "pde=acoustic", "stepper=rk4",
                        "order=3", "cells=5x4x3", "t_end=0.08", "threads=1"});
}

TEST(MpiEquivalence, AderMaxwellGaussian) {
  expect_mpi_invariant({"scenario=gaussian", "pde=maxwell", "stepper=ader",
                        "order=3", "cells=5x4x3", "t_end=0.08", "threads=1"});
}

TEST(MpiEquivalence, RkMaxwellGaussian) {
  expect_mpi_invariant({"scenario=gaussian", "pde=maxwell", "stepper=rk4",
                        "order=3", "cells=5x4x3", "t_end=0.08", "threads=1"});
}

TEST(MpiEquivalence, AderOutflowWallPeriodicMix) {
  expect_mpi_invariant({"scenario=planewave", "order=3", "cells=5x4x3",
                        "bc=outflow,wall,periodic", "t_end=0.08",
                        "threads=1"});
}

TEST(MpiEquivalence, AderLoh1PointSourceThreaded) {
  // Point sources route to the owning rank; threads=2 exercises the
  // MPI_THREAD_FUNNELED claim (cell loops threaded, MPI on the driver).
  expect_mpi_invariant(
      {"scenario=loh1", "stepper=ader", "order=3", "t_end=0.3", "threads=2"});
}

TEST(MpiRankMismatch, FailsWithAClearMessage) {
  // Inconsistent topology requests must fail loudly — on every rank,
  // before any communication (no hang). An explicit shards= that
  // contradicts shards_per_rank= is refused by the engine's consistency
  // check ...
  const std::string shards =
      std::to_string(MpiRuntime::size() + 1) + "x1x1";
  try {
    Simulation::from_args({"scenario=planewave", "order=3", "cells=16x4x4",
                           "t_end=0.05", "shards=" + shards,
                           "shards_per_rank=1", "backend=mpi"});
    FAIL() << "contradictory shards=/shards_per_rank= must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("shards_per_rank"),
              std::string::npos)
        << e.what();
  }
  // ... and fewer shards than ranks cannot give every rank work.
  if (MpiRuntime::size() > 2) {
    try {
      Simulation::from_args({"scenario=planewave", "order=3", "cells=16x4x4",
                             "t_end=0.05", "shards=2x1x1", "backend=mpi"});
      FAIL() << "fewer shards than ranks must throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("at least one shard per rank"),
                std::string::npos)
          << e.what();
    }
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(MpiArtifacts, ReceiverStreamsMergeToTheLocalRunsFiles) {
  const int ranks = MpiRuntime::size();
  if (decompositions_for(ranks).empty())
    GTEST_SKIP() << "no matrix decomposition for " << ranks << " ranks";
  const std::vector<std::string> shards = decompositions_for(ranks).front();
  const std::string tag = "/tmp/exastp_mpi_recv_" + std::to_string(ranks);
  std::vector<std::string> args = {
      "scenario=planewave", "order=4",  "cells=4x4x4",
      "t_end=0.1",          "threads=1",
      "receivers=0.2,0.5,0.5;0.8,0.5,0.5;1.0,1.0,1.0"};
  args.insert(args.end(), shards.begin(), shards.end());

  // The collective distributed run first (all ranks), then the local
  // reference on rank 0 alone.
  Simulation mpi = run_with(
      args, {"backend=mpi",
             "output.receivers_bin=" + tag + "_mpi.bin",
             "output.receivers_csv=" + tag + "_mpi.csv"});
  (void)mpi;
  if (MpiRuntime::rank() != 0) return;

  run_with(args, {"backend=inprocess",
                  "output.receivers_bin=" + tag + "_local.bin",
                  "output.receivers_csv=" + tag + "_local.csv"});

  const ReceiverRecords merged = read_receiver_records(tag + "_mpi.bin");
  const ReceiverRecords reference = read_receiver_records(tag + "_local.bin");
  ASSERT_EQ(merged.positions, reference.positions);
  ASSERT_EQ(merged.quantities, reference.quantities);
  ASSERT_EQ(merged.times, reference.times);
  ASSERT_EQ(merged.data.size(), reference.data.size());
  for (std::size_t i = 0; i < merged.data.size(); ++i)
    ASSERT_EQ(merged.data[i], reference.data[i]) << "slot " << i;

  // The merged CSV is byte-identical to a local streaming run's.
  EXPECT_EQ(slurp(tag + "_mpi.csv"), slurp(tag + "_local.csv"));
}

TEST(MpiArtifacts, VtkPiecesAndIndexMatchTheLocalRun) {
  const int ranks = MpiRuntime::size();
  if (decompositions_for(ranks).empty())
    GTEST_SKIP() << "no matrix decomposition for " << ranks << " ranks";
  const std::vector<std::string> shards = decompositions_for(ranks).front();
  const std::string tag = "/tmp/exastp_mpi_vtk_" + std::to_string(ranks);
  std::vector<std::string> args = {"scenario=planewave", "order=3",
                                   "cells=4x4x2", "t_end=0.06",
                                   "threads=1",
                                   "output.interval=0.03"};
  args.insert(args.end(), shards.begin(), shards.end());

  Simulation mpi = run_with(args, {"backend=mpi",
                                   "output.series=" + tag + "_mpi"});
  // Simulation::run barriers, so every rank's pieces are on disk here.
  if (MpiRuntime::rank() != 0) return;

  run_with(args, {"backend=inprocess",
                  "output.series=" + tag + "_local"});

  // Same piece files (every shard, every snapshot) and the same index —
  // modulo the base-name difference.
  const std::string mpi_index = slurp(tag + "_mpi.pvd");
  std::string local_index = slurp(tag + "_local.pvd");
  std::string expected = mpi_index;
  for (std::string::size_type at = 0;
       (at = expected.find("_mpi_", at)) != std::string::npos;)
    expected.replace(at, 5, "_local_");
  EXPECT_EQ(expected, local_index);

  // Both runs take identical steps, so they emit the same snapshot set;
  // compare every piece the local run produced.
  int snapshots = 0;
  for (int snapshot = 0;; ++snapshot) {
    char probe[24];
    std::snprintf(probe, sizeof(probe), "_%04d_p00.vtk", snapshot);
    if (!std::ifstream(tag + "_local" + probe).good()) break;
    ++snapshots;
    for (int p = 0; p < mpi.solver().num_shards(); ++p) {
      char suffix[24];
      std::snprintf(suffix, sizeof(suffix), "_%04d_p%02d.vtk", snapshot, p);
      EXPECT_EQ(slurp(tag + "_mpi" + suffix), slurp(tag + "_local" + suffix))
          << suffix;
    }
  }
  EXPECT_GE(snapshots, 2);
}

TEST(MpiSummary, ReportsBackendAndRank) {
  if (decompositions_for(MpiRuntime::size()).empty())
    GTEST_SKIP() << "no matrix decomposition";
  // The first matrix entry is always a literal one-shard-per-rank
  // "shards=AxBxC", so the summary echoes it verbatim.
  const std::vector<std::string> shards =
      decompositions_for(MpiRuntime::size()).front();
  std::vector<std::string> args = {"scenario=planewave", "order=3",
                                   "cells=5x4x3", "threads=1",
                                   "backend=mpi"};
  args.insert(args.end(), shards.begin(), shards.end());
  Simulation sim = Simulation::from_args(args);
  const std::string summary = sim.summary();
  EXPECT_NE(summary.find("backend=mpi rank=" +
                         std::to_string(MpiRuntime::rank()) + "/" +
                         std::to_string(MpiRuntime::size())),
            std::string::npos)
      << summary;
  EXPECT_NE(summary.find(shards.front()), std::string::npos) << summary;
}

TEST(MpiSummary, ReportsShardGroupingWhenOverDecomposed) {
  // shards_per_rank=2 gives every rank a two-shard group; the summary
  // surfaces the grouping next to the rank.
  Simulation sim = Simulation::from_args(
      {"scenario=planewave", "order=3", "cells=8x4x3", "threads=1",
       "shards=auto", "shards_per_rank=2", "backend=mpi"});
  EXPECT_EQ(sim.solver().num_shards(), 2 * MpiRuntime::size());
  const std::string summary = sim.summary();
  EXPECT_NE(summary.find("shards/rank=2"), std::string::npos) << summary;
}

}  // namespace
}  // namespace exastp

int main(int argc, char** argv) {
  exastp::MpiRuntime::init(&argc, &argv);
  ::testing::InitGoogleTest(&argc, argv);
  const int result = RUN_ALL_TESTS();
  exastp::MpiRuntime::finalize();
  return result;
}

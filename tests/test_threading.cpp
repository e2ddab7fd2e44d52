// Thread-parallel stepping: determinism and correctness matrix.
//
// The contract under test (see README "Threading"): for every PDE and both
// steppers, running the same configuration with threads=N must produce
// bitwise-identical DOFs to threads=1 — the parallel traversals are
// per-cell, interior Riemann solves are recomputed per side from identical
// inputs, and every global reduction is ordered. The ParallelFor utility
// itself is unit-tested at the bottom.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exastp/common/parallel.h"
#include "exastp/engine/simulation.h"
#include "exastp/solver/norms.h"

namespace exastp {
namespace {

/// Largest absolute DOF difference between the two solvers; 0.0 means
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

Simulation run_with_threads(const std::vector<std::string>& args,
                            int threads) {
  std::vector<std::string> full = args;
  full.push_back("threads=" + std::to_string(threads));
  Simulation sim = Simulation::from_args(full);
  sim.run();
  return sim;
}

/// Serial vs threads=4: bitwise-identical DOFs and identical functionals.
void expect_thread_invariant(const std::vector<std::string>& args) {
  Simulation serial = run_with_threads(args, 1);
  Simulation threaded = run_with_threads(args, 4);
  EXPECT_EQ(serial.solver().num_threads(), 1);
  EXPECT_EQ(threaded.solver().num_threads(), 4);
  EXPECT_EQ(serial.solver().time(), threaded.solver().time());
  EXPECT_EQ(max_dof_difference(serial.solver(), threaded.solver()), 0.0)
      << "threads=4 diverged from serial";
  if (serial.has_exact_solution()) {
    EXPECT_EQ(serial.l2_error(), threaded.l2_error());
  }
}

// One case per registered PDE for each stepper, periodic boxes via the
// PDE-agnostic gaussian scenario.
TEST(ThreadDeterminism, AderAcoustic) {
  expect_thread_invariant({"scenario=gaussian", "pde=acoustic",
                           "stepper=ader", "order=3", "cells=3x3x3",
                           "t_end=0.08"});
}

TEST(ThreadDeterminism, AderAdvection) {
  expect_thread_invariant({"scenario=gaussian", "pde=advection",
                           "stepper=ader", "order=3", "cells=3x3x3",
                           "t_end=0.08"});
}

TEST(ThreadDeterminism, AderElastic) {
  expect_thread_invariant({"scenario=gaussian", "pde=elastic",
                           "stepper=ader", "order=3", "cells=3x3x3",
                           "t_end=0.05"});
}

TEST(ThreadDeterminism, AderMaxwell) {
  expect_thread_invariant({"scenario=gaussian", "pde=maxwell",
                           "stepper=ader", "order=3", "cells=3x3x3",
                           "t_end=0.08"});
}

TEST(ThreadDeterminism, RkAcoustic) {
  expect_thread_invariant({"scenario=gaussian", "pde=acoustic",
                           "stepper=rk4", "order=3", "cells=3x3x3",
                           "t_end=0.08"});
}

TEST(ThreadDeterminism, RkMaxwell) {
  expect_thread_invariant({"scenario=gaussian", "pde=maxwell",
                           "stepper=rk4", "order=3", "cells=3x3x3",
                           "t_end=0.08"});
}

// Non-periodic boundaries exercise the ghost-state path; the generic
// kernel exercises the fork of the virtual-PDE variant.
TEST(ThreadDeterminism, AderPlanewaveOutflowWalls) {
  expect_thread_invariant({"scenario=planewave", "order=4", "cells=3x3x3",
                           "bc=outflow,wall,periodic", "t_end=0.1"});
}

TEST(ThreadDeterminism, AderGenericVariant) {
  expect_thread_invariant({"scenario=planewave", "variant=generic",
                           "order=3", "cells=3x3x3", "t_end=0.1"});
}

// Point sources on both steppers (LOH1: heterogeneous material, Ricker
// source, absorbing + wall boundaries).
TEST(ThreadDeterminism, AderLoh1PointSource) {
  expect_thread_invariant(
      {"scenario=loh1", "stepper=ader", "order=3", "t_end=0.3"});
}

TEST(ThreadDeterminism, RkLoh1PointSource) {
  expect_thread_invariant(
      {"scenario=loh1", "stepper=rk4", "order=3", "t_end=0.3"});
}

// Thread counts that do not divide the cell count, and oversubscription
// beyond the 27 cells, must not change the bits either.
TEST(ThreadDeterminism, RaggedAndOversubscribedPartitions) {
  const std::vector<std::string> args = {"scenario=planewave", "order=3",
                                         "cells=3x3x3", "t_end=0.1"};
  Simulation serial = run_with_threads(args, 1);
  for (int threads : {3, 5, 32}) {
    Simulation threaded = run_with_threads(args, threads);
    EXPECT_EQ(max_dof_difference(serial.solver(), threaded.solver()), 0.0)
        << "threads=" << threads;
  }
}

TEST(ThreadDeterminism, EnergyAndNormsAreOrderedReductions) {
  const std::vector<std::string> args = {"scenario=maxwell_cavity",
                                         "order=3", "t_end=0.2"};
  Simulation serial = run_with_threads(args, 1);
  Simulation threaded = run_with_threads(args, 4);
  EXPECT_EQ(serial.l2_error(), threaded.l2_error());
  EXPECT_EQ(integral(serial.solver(), 0), integral(threaded.solver(), 0));
}

// Blow-up detection must fire identically when threaded.
TEST(ThreadDeterminism, ThreadedBlowUpDetectionThrows) {
  Simulation sim = Simulation::from_args(
      {"scenario=planewave", "order=3", "cells=3x3x3", "threads=4"});
  EXPECT_THROW(
      {
        for (int i = 0; i < 200; ++i)
          sim.solver().step(50.0 * sim.solver().stable_dt());
      },
      std::runtime_error);
}

TEST(ParallelFor, ResolvesAutoThreadCounts) {
  EXPECT_GE(hardware_threads(), 1);
  EXPECT_EQ(resolve_threads(0), hardware_threads());
  EXPECT_EQ(resolve_threads(-3), hardware_threads());
  EXPECT_EQ(resolve_threads(7), 7);
}

/// Runs check(team) on every hand-off path of the worker pool: after a
/// sleep past the pool's 1 ms poll (the blocking wait), on a team destroyed
/// right after its region, and `back_to_back` times in a row (the polling
/// wait). Stops at the first fatal failure.
void on_every_hand_off(int back_to_back,
                       const std::function<void(const ParallelFor&)>& check) {
  for (int threads : {1, 2, 3, 8}) {
    ParallelFor team(threads);
    for (int r = 0; r < 2; ++r) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      check(team);
      if (::testing::Test::HasFatalFailure()) return;
    }
    check(ParallelFor(threads));
    if (::testing::Test::HasFatalFailure()) return;
  }
  const ParallelFor team(std::clamp(hardware_threads(), 2, 8));
  for (int r = 0; r < back_to_back; ++r) {
    check(team);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  // 2,000 x 5 sizes: about 10,000 tiny regions back to back.
  on_every_hand_off(2000, [](const ParallelFor& par) {
    for (long n : {0L, 1L, 7L, 64L, 1000L}) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      par.for_each(n, [&](int, long i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      });
      for (long i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1)
            << i << " of " << n << " on " << par.num_threads() << " threads";
    }
  });
}

TEST(ParallelFor, RespectsChunkGranularity) {
  ParallelFor par(4);
  std::vector<long> starts;
  std::mutex m;
  par.run(100, 8, [&](int, long begin, long end) {
    std::lock_guard<std::mutex> lock(m);
    EXPECT_LE(end, 100);
    starts.push_back(begin);
  });
  for (long b : starts) EXPECT_EQ(b % 8, 0) << b;
}

TEST(ParallelFor, PropagatesTheFirstChunkException) {
  on_every_hand_off(2000, [](const ParallelFor& par) {
    try {
      par.for_each(100, [](int, long i) {
        if (i >= 50) throw std::runtime_error("chunk " + std::to_string(i));
      });
      FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
      // Chunk order, not completion order: the lowest throwing chunk wins.
      ASSERT_EQ(std::string(e.what()), "chunk 50")
          << "on " << par.num_threads() << " threads";
    }
  });
}

TEST(ParallelFor, OrderedPartialsAreThreadCountInvariant) {
  auto f = [](long i) { return 1.0 / (1.0 + static_cast<double>(i)); };
  const std::vector<double> serial = ordered_partials(ParallelFor(1), 97, f);
  const std::vector<double> threaded =
      ordered_partials(ParallelFor(5), 97, f);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], threaded[i]);
}

}  // namespace
}  // namespace exastp

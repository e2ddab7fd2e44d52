// Error norms against reference solutions, evaluated with the quadrature
// rule underlying the nodal basis (exact for the ansatz space).
//
// Template over the solver type: any class exposing grid(), basis(),
// layout(), time(), cell_dofs(), node_position() and parallel() qualifies —
// both AderDgSolver and the RK-DG baseline.
//
// All reductions run cell-parallel on the solver's thread team with the
// ordered-reduction pattern (one partial per cell, combined serially in
// cell order), so every norm is bitwise-independent of the thread count.
#pragma once

#include <cmath>
#include <functional>

#include "exastp/common/parallel.h"
#include "exastp/solver/solver_base.h"

namespace exastp {

/// Squared L2 norm of (q_h - exact) for one quantity over the solver's
/// cells — the summable building block distributed runs reduce across
/// ranks (one partial per shard, added in rank order; see
/// Simulation::l2_error).
template <class Solver>
double l2_error_squared(const Solver& solver, int quantity,
                        const ExactSolution& exact) {
  const auto& basis = solver.basis();
  const auto& layout = solver.layout();
  const int n = layout.n;
  const double vol = solver.grid().cell_volume();
  const std::vector<double> partials = ordered_partials(
      solver.parallel(), solver.grid().num_cells(), [&](long c) {
        const double* qc = solver.cell_dofs(static_cast<int>(c));
        double cell_sum = 0.0;
        for (int k3 = 0; k3 < n; ++k3)
          for (int k2 = 0; k2 < n; ++k2)
            for (int k1 = 0; k1 < n; ++k1) {
              const double w = basis.weights[k1] * basis.weights[k2] *
                               basis.weights[k3] * vol;
              const double e =
                  qc[layout.idx(k3, k2, k1, quantity)] -
                  exact(solver.node_position(static_cast<int>(c), k1, k2, k3),
                        solver.time());
              cell_sum += w * e * e;
            }
        return cell_sum;
      });
  double sum = 0.0;
  for (double p : partials) sum += p;
  return sum;
}

/// L2 norm of (q_h - exact) for one quantity over the whole mesh.
template <class Solver>
double l2_error(const Solver& solver, int quantity,
                const ExactSolution& exact) {
  return std::sqrt(l2_error_squared(solver, quantity, exact));
}

/// Integral of one quantity over the domain (conservation checks).
template <class Solver>
double integral(const Solver& solver, int quantity) {
  const auto& basis = solver.basis();
  const auto& layout = solver.layout();
  const int n = layout.n;
  const double vol = solver.grid().cell_volume();
  const std::vector<double> partials = ordered_partials(
      solver.parallel(), solver.grid().num_cells(), [&](long c) {
        const double* qc = solver.cell_dofs(static_cast<int>(c));
        double cell_sum = 0.0;
        for (int k3 = 0; k3 < n; ++k3)
          for (int k2 = 0; k2 < n; ++k2)
            for (int k1 = 0; k1 < n; ++k1)
              cell_sum += basis.weights[k1] * basis.weights[k2] *
                          basis.weights[k3] * vol *
                          qc[layout.idx(k3, k2, k1, quantity)];
        return cell_sum;
      });
  double sum = 0.0;
  for (double p : partials) sum += p;
  return sum;
}

}  // namespace exastp

#include "exastp/solver/rk_dg_solver.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "exastp/gemm/vecops.h"
#include "exastp/kernels/derivative_ops.h"
#include "exastp/telemetry/telemetry.h"

namespace exastp {
namespace {

/// Chunk granularity (doubles) of the element-wise RK sweeps: one cache
/// line / AVX-512 register, so every chunk start stays 64-byte aligned and
/// the vector/remainder split of each element is independent of the
/// partition — chunked sweeps are bitwise-identical to serial ones.
constexpr long kVecGranularity =
    static_cast<long>(kAlignment / sizeof(double));

}  // namespace

RkDgSolver::RkDgSolver(std::shared_ptr<const PdeRuntime> pde, int order,
                       Isa isa, const GridSpec& grid_spec, NodeFamily family)
    : RkDgSolver(std::move(pde), order, isa, Grid(grid_spec), family) {}

RkDgSolver::RkDgSolver(std::shared_ptr<const PdeRuntime> pde, int order,
                       Isa isa, const Grid& grid, NodeFamily family)
    : DgSolver(pde, grid, AosLayout(order, pde->info().quants, isa), isa,
               family) {
  stage_.assign(q_.size(), 0.0);
  rhs_.assign(q_.size(), 0.0);
  accum_.assign(q_.size(), 0.0);
  rebuild_scratch();
}

void RkDgSolver::set_thread_team(const ParallelFor& team) {
  SolverBase::set_thread_team(team);
  rebuild_scratch();
}

void RkDgSolver::rebuild_scratch() {
  scratch_.clear();
  scratch_.reserve(static_cast<std::size_t>(num_threads()));
  for (int tid = 0; tid < num_threads(); ++tid) {
    ThreadScratch ts;
    ts.flux.assign(cell_size_, 0.0);
    ts.gradq.assign(cell_size_, 0.0);
    ts.jump.assign(6 * trace_layout_.size(), 0.0);
    ts.ncp_tmp.resize(static_cast<std::size_t>(layout_.m));
    scratch_.push_back(std::move(ts));
  }
}

void RkDgSolver::set_initial_condition(const InitialCondition& init) {
  DgSolver::set_initial_condition(init);
  project_state(q_);
}

void RkDgSolver::project_state(const AlignedVector& state) {
  par_.run(grid_.num_cells(), 1, [&](int /*tid*/, long begin, long end) {
    for (long c = begin; c < end; ++c)
      project_faces(isa_, layout_, basis_,
                    state.data() + static_cast<std::size_t>(c) * cell_size_,
                    traces_of(traces_, static_cast<int>(c)));
  });
}

void RkDgSolver::operator_cell(ThreadScratch& ts, const AlignedVector& state,
                               double t, int c, AlignedVector& rhs) {
  const int n = layout_.n;
  const int mp = layout_.m_pad;
  const auto inv_dx = grid_.inv_dx();
  const std::size_t nodes = static_cast<std::size_t>(n) * n * n;
  FlopCounter& fc = FlopCounter::instance();

  const double* qc = state.data() + static_cast<std::size_t>(c) * cell_size_;
  double* rc = rhs.data() + static_cast<std::size_t>(c) * cell_size_;
  std::memset(rc, 0, cell_size_ * sizeof(double));

  // Volume terms.
  for (int d = 0; d < 3; ++d) {
    for (std::size_t k = 0; k < nodes; ++k)
      pde_->flux(qc + k * mp, d, ts.flux.data() + k * mp);
    fc.add(WidthClass::kScalar, nodes * pde_->flux_flops());
    aos_derivative(isa_, layout_, basis_.diff.data(), inv_dx[d], d,
                   ts.flux.data(), rc, /*accumulate=*/true);
    aos_derivative(isa_, layout_, basis_.diff.data(), inv_dx[d], d, qc,
                   ts.gradq.data(), /*accumulate=*/false);
    for (std::size_t k = 0; k < nodes; ++k) {
      pde_->ncp(qc + k * mp, ts.gradq.data() + k * mp, d, ts.ncp_tmp.data());
      for (int s = 0; s < layout_.m; ++s) rc[k * mp + s] += ts.ncp_tmp[s];
    }
    fc.add(WidthClass::kScalar, nodes * (pde_->ncp_flops() + layout_.m));
  }

  // Surface terms: the lift from this cell's own six faces, solved from
  // the stage state's traces (interior Riemann solves run once per side —
  // identical bits, so the cell-parallel traversal needs no face
  // ownership).
  const std::size_t trace = trace_layout_.size();
  FaceUpdate u;
  u.layout = trace_layout_;
  u.basis = &basis_;
  u.own = traces_of(traces_, c);
  u.jump = ts.jump.data();
  u.out = rc;
  u.scale = inv_dx;
  for (int f = 0; f < 6; ++f) {
    const NeighborRef nb = grid_.neighbor(c, f / 2, f % 2);
    u.neighbour[static_cast<std::size_t>(f)] =
        nb.boundary ? nullptr
                    : traces_.data() +
                          trace_slot(grid_, nb.cell, f / 2, 1 - f % 2) * trace;
    u.boundary[static_cast<std::size_t>(f)] = nb.kind;
  }
  pde_->surface_update(isa_, u);

  // Point-source injection at the stage time.
  for (const auto& prepared : sources_) {
    if (prepared.cell != c) continue;
    const double s = prepared.source.wavelet->derivative(t, 0);
    const int quantity = prepared.source.quantity;
    for (std::size_t k = 0; k < nodes; ++k)
      rc[k * mp + quantity] += prepared.psi[k] * s;
    fc.add(WidthClass::kScalar, 2 * nodes);
  }
}

void RkDgSolver::evaluate_operator(const AlignedVector& state, double t,
                                   AlignedVector& rhs,
                                   const std::vector<int>& cells) {
  // One fused cell-parallel traversal over a classification set: volume
  // terms, own-face surface corrections and source injection all write
  // only the listed cell's rhs slice, so the interior/boundary split
  // never changes any cell's bits.
  par_.run(static_cast<long>(cells.size()), 1,
           [&](int tid, long begin, long end) {
             ThreadScratch& ts = scratch_[static_cast<std::size_t>(tid)];
             for (long i = begin; i < end; ++i)
               operator_cell(ts, state, t, cells[static_cast<std::size_t>(i)],
                             rhs);
           });
}

void RkDgSolver::step_phase_interior(int phase, double dt) {
  if (dt <= 0.0) throw std::invalid_argument("RkDgSolver: dt must be > 0");
  EXASTP_CHECK(phase >= 0 && phase < 4);
  // The stage operator over the interior set: these cells read no halo
  // tensors of the stage's input state, so the sweep runs while the
  // exchange is in flight. The input state itself is only read, never
  // written, until step_phase_boundary's element-wise sweeps.
  ScopedSpan span(SpanId::kRkStageInterior, /*arg=*/phase);
  ++operator_evals_;
  evaluate_operator(stage_state(phase), stage_time(phase, dt), rhs_,
                    interior_cells_);
}

void RkDgSolver::step_phase_boundary(int phase, double dt) {
  EXASTP_CHECK(phase >= 0 && phase < 4);
  ScopedSpan span(SpanId::kRkStageBoundary, /*arg=*/phase);
  // Boundary remainder of the stage operator, after the halo completed.
  evaluate_operator(stage_state(phase), stage_time(phase, dt), rhs_,
                    boundary_cells_);

  const long total =
      static_cast<long>(grid_.num_cells()) * static_cast<long>(cell_size_);

  // Element-wise stage sweeps, chunked at cache-line granularity so the
  // partition never changes any element's bits (see kVecGranularity).
  auto par_copy = [&](const AlignedVector& x, AlignedVector& y) {
    par_.run(total, kVecGranularity, [&](int, long b, long e) {
      vec_copy(e - b, x.data() + b, y.data() + b);
    });
  };
  auto par_axpy = [&](double a, const AlignedVector& x, AlignedVector& y) {
    par_.run(total, kVecGranularity, [&](int, long b, long e) {
      vec_axpy(isa_, e - b, a, x.data() + b, y.data() + b);
    });
  };
  auto par_add = [&](const AlignedVector& x, AlignedVector& y) {
    par_.run(total, kVecGranularity, [&](int, long b, long e) {
      vec_add(isa_, e - b, x.data() + b, y.data() + b);
    });
  };

  // Classical RK4: q += dt/6 (k1 + 2 k2 + 2 k3 + k4), with the stage
  // operator evaluated at t_n, t_n + dt/2 (twice) and t_n + dt. Each phase
  // starts after its input state's trace halos are valid (q's for k1, the
  // stage buffer's afterwards; the monolithic grid has no halo to wait
  // for), and ends by projecting the next stage's input onto the faces.
  switch (phase) {
    case 0:
      par_copy(rhs_, accum_);                             // k1
      par_copy(q_, stage_);
      par_axpy(0.5 * dt, rhs_, stage_);
      project_state(stage_);
      break;
    case 1:
      par_axpy(2.0, rhs_, accum_);                        // k2
      par_copy(q_, stage_);
      par_axpy(0.5 * dt, rhs_, stage_);
      project_state(stage_);
      break;
    case 2:
      par_axpy(2.0, rhs_, accum_);                        // k3
      par_copy(q_, stage_);
      par_axpy(dt, rhs_, stage_);
      project_state(stage_);
      break;
    default:
      par_add(rhs_, accum_);                              // k4
      par_axpy(dt / 6.0, accum_, q_);
      project_state(q_);
      time_ += dt;
      check_finite();
      break;
  }
}

void RkDgSolver::check_finite() const {
  // Per-chunk verdicts with early exit; "any non-finite" commutes, so the
  // outcome is thread-count-independent.
  std::vector<char> bad(static_cast<std::size_t>(par_.num_threads()), 0);
  par_.run(grid_.num_cells(), 1, [&](int tid, long begin, long end) {
    for (long c = begin; c < end; ++c) {
      const double* cell = cell_dofs(static_cast<int>(c));
      for (std::size_t i = 0; i < cell_size_; ++i) {
        if (!std::isfinite(cell[i])) {
          bad[static_cast<std::size_t>(tid)] = 1;
          return;
        }
      }
    }
  });
  for (char b : bad) {
    if (b != 0) throw_nonfinite("RkDgSolver");
  }
}

}  // namespace exastp

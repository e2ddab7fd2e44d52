#include "exastp/solver/rk_dg_solver.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "exastp/gemm/vecops.h"
#include "exastp/kernels/derivative_ops.h"
#include "exastp/mesh/partition.h"
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
    : pde_(std::move(pde)),
      grid_(grid),
      basis_(basis_tables(order, family)),
      isa_(isa),
      layout_(order, pde_->info().quants, isa),
      trace_layout_(layout_),
      cell_size_(layout_.size()),
      vars_(pde_->info().vars) {
  const std::size_t owned =
      static_cast<std::size_t>(grid_.num_cells()) * cell_size_;
  q_.assign(owned, 0.0);
  stage_.assign(owned, 0.0);
  rhs_.assign(owned, 0.0);
  accum_.assign(owned, 0.0);
  traces_.assign(trace_count(grid_) * trace_layout_.size(), 0.0);
  CellClassification cells = classify_cells(grid_);
  interior_cells_ = std::move(cells.interior);
  boundary_cells_ = std::move(cells.boundary);
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

void RkDgSolver::set_initial_condition(
    const std::function<void(const std::array<double, 3>&, double*)>& init) {
  const int n = layout_.n;
  std::vector<double> node(layout_.m);
  for (int c = 0; c < grid_.num_cells(); ++c) {
    double* cell = q_.data() + static_cast<std::size_t>(c) * cell_size_;
    for (int k3 = 0; k3 < n; ++k3)
      for (int k2 = 0; k2 < n; ++k2)
        for (int k1 = 0; k1 < n; ++k1) {
          init(node_position(c, k1, k2, k3), node.data());
          double* dst = cell + layout_.idx(k3, k2, k1, 0);
          std::memcpy(dst, node.data(), layout_.m * sizeof(double));
          for (int s = layout_.m; s < layout_.m_pad; ++s) dst[s] = 0.0;
        }
  }
  time_ = 0.0;
  project_state(q_);
}

void RkDgSolver::project_state(const AlignedVector& state) {
  const std::size_t t = trace_layout_.size();
  par_.run(grid_.num_cells(), 1, [&](int /*tid*/, long begin, long end) {
    for (long c = begin; c < end; ++c)
      project_faces(isa_, layout_, basis_,
                    state.data() + static_cast<std::size_t>(c) * cell_size_,
                    traces_.data() +
                        trace_slot(grid_, static_cast<int>(c), 0, 0) * t);
  });
}

void RkDgSolver::add_point_source(const MeshPointSource& source) {
  prepare_point_source(source, vars_);
}

std::array<double, 3> RkDgSolver::node_position(int cell, int k1, int k2,
                                                int k3) const {
  const auto o = grid_.cell_origin(cell);
  return {o[0] + grid_.dx(0) * basis_.nodes[k1],
          o[1] + grid_.dx(1) * basis_.nodes[k2],
          o[2] + grid_.dx(2) * basis_.nodes[k3]};
}

double RkDgSolver::stable_dt(double cfl) const {
  const int n = layout_.n;
  const std::size_t nodes = static_cast<std::size_t>(n) * n * n;
  // Per-chunk maxima: max commutes exactly, so the result stays bitwise-
  // independent of the thread count even though chunk bounds are not.
  std::vector<double> partials(static_cast<std::size_t>(par_.num_threads()),
                               0.0);
  par_.run(grid_.num_cells(), 1, [&](int tid, long begin, long end) {
    double chunk_max = 0.0;
    for (long c = begin; c < end; ++c) {
      const double* cell = cell_dofs(static_cast<int>(c));
      for (std::size_t k = 0; k < nodes; ++k)
        for (int d = 0; d < 3; ++d)
          chunk_max = std::max(
              chunk_max, pde_->max_wave_speed(cell + k * layout_.m_pad, d));
    }
    partials[static_cast<std::size_t>(tid)] = chunk_max;
  });
  double smax = 1e-300;
  for (double s : partials) smax = std::max(smax, s);
  const double hmin = std::min({grid_.dx(0), grid_.dx(1), grid_.dx(2)});
  return cfl * hmin / (smax * (2.0 * n - 1.0) * 3.0);
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
  u.own = traces_.data() + trace_slot(grid_, c, 0, 0) * trace;
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

void RkDgSolver::step(double dt) {
  for (int phase = 0; phase < num_step_phases(); ++phase)
    step_phase(phase, dt);
}

void RkDgSolver::step_phase(int phase, double dt) {
  step_phase_interior(phase, dt);
  step_phase_boundary(phase, dt);
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
    if (b != 0)
      throw std::runtime_error("RkDgSolver: solution became non-finite");
  }
}

}  // namespace exastp

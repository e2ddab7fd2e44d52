#include "exastp/solver/ader_dg_solver.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "exastp/basis/lagrange.h"
#include "exastp/common/taylor.h"
#include "exastp/gemm/vecops.h"
#include "exastp/mesh/partition.h"
#include "exastp/telemetry/telemetry.h"

namespace exastp {

AderDgSolver::AderDgSolver(std::shared_ptr<const PdeRuntime> pde,
                           StpKernel kernel, const GridSpec& grid_spec,
                           NodeFamily family)
    : AderDgSolver(std::move(pde), std::move(kernel), Grid(grid_spec),
                   family) {}

AderDgSolver::AderDgSolver(std::shared_ptr<const PdeRuntime> pde,
                           StpKernel kernel, const Grid& grid,
                           NodeFamily family)
    : pde_(std::move(pde)),
      kernel_(std::move(kernel)),
      grid_(grid),
      basis_(basis_tables(kernel_.layout().n, family)),
      layout_(kernel_.layout()),
      isa_(kernel_.isa()),
      trace_layout_(layout_),
      cell_size_(layout_.size()),
      vars_(pde_ ? pde_->info().vars : 0) {
  EXASTP_CHECK_MSG(pde_ != nullptr && kernel_, "solver needs pde and kernel");
  EXASTP_CHECK_MSG(pde_->info().quants == layout_.m,
                   "kernel layout does not match the PDE");
  const std::size_t owned =
      static_cast<std::size_t>(grid_.num_cells()) * cell_size_;
  q_.assign(owned, 0.0);
  qnew_.assign(owned, 0.0);
  traces_.assign(trace_count(grid_) * trace_layout_.size(), 0.0);
  CellClassification cells = classify_cells(grid_);
  interior_cells_ = std::move(cells.interior);
  boundary_cells_ = std::move(cells.boundary);
  rebuild_scratch();
}

void AderDgSolver::set_thread_team(const ParallelFor& team) {
  // Validate before touching par_/scratch_, so a throw leaves the solver
  // in its previous, consistent configuration.
  EXASTP_CHECK_MSG(team.num_threads() == 1 || kernel_.can_fork(),
                   "multi-threaded stepping needs a forkable kernel "
                   "(built via make_stp_kernel)");
  SolverBase::set_thread_team(team);
  rebuild_scratch();
}

void AderDgSolver::rebuild_scratch() {
  scratch_.clear();
  scratch_.reserve(static_cast<std::size_t>(num_threads()));
  for (int tid = 0; tid < num_threads(); ++tid) {
    ThreadScratch ts;
    // Thread 0 is the caller and may share the primary kernel's workspace;
    // every other thread gets an independent clone.
    ts.kernel = tid == 0 ? kernel_ : kernel_.fork();
    ts.qavg.assign(cell_size_, 0.0);
    if (num_clusters_ > 1) ts.qavg_half.assign(cell_size_, 0.0);
    ts.work.assign(std::max(favg_offset(3), nb_traces_offset() +
                                                6 * trace_layout_.size()),
                   0.0);
    scratch_.push_back(std::move(ts));
  }
}

void AderDgSolver::set_initial_condition(
    const std::function<void(const std::array<double, 3>&, double*)>& init) {
  const int n = layout_.n;
  std::vector<double> node(layout_.m);
  for (int c = 0; c < grid_.num_cells(); ++c) {
    double* cell = mutable_cell_dofs(c);
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
  // Material parameters may have changed; the wave-speed cache rebuilds
  // on the next stable_dt call.
  wave_speed_cache_.clear();
}

void AderDgSolver::add_point_source(const MeshPointSource& source) {
  prepare_point_source(source, vars_);
}

std::array<double, 3> AderDgSolver::node_position(int cell, int k1, int k2,
                                                  int k3) const {
  const auto o = grid_.cell_origin(cell);
  return {o[0] + grid_.dx(0) * basis_.nodes[k1],
          o[1] + grid_.dx(1) * basis_.nodes[k2],
          o[2] + grid_.dx(2) * basis_.nodes[k3]};
}

double AderDgSolver::stable_dt(double cfl) const {
  const int n = layout_.n;
  if (wave_speed_cache_.empty()) {
    // Per-cell maxima, computed once per initial condition: every PDE's
    // max_wave_speed reads only material parameter rows, which the zero
    // flux rows keep constant in time, so the eigenvalue sweep need not
    // rerun every step. max commutes exactly, so the cached per-cell
    // values — and the reduction below — stay bitwise-independent of the
    // thread count.
    const std::size_t nodes = static_cast<std::size_t>(n) * n * n;
    wave_speed_cache_.assign(static_cast<std::size_t>(grid_.num_cells()),
                             0.0);
    par_.run(grid_.num_cells(), 1, [&](int /*tid*/, long begin, long end) {
      for (long c = begin; c < end; ++c) {
        const double* cell = cell_dofs(static_cast<int>(c));
        double cell_max = 0.0;
        for (std::size_t k = 0; k < nodes; ++k)
          for (int d = 0; d < 3; ++d)
            cell_max = std::max(
                cell_max, pde_->max_wave_speed(cell + k * layout_.m_pad, d));
        wave_speed_cache_[static_cast<std::size_t>(c)] = cell_max;
      }
    });
  }
  double smax = 1e-300;
  for (double s : wave_speed_cache_) smax = std::max(smax, s);
  const double hmin =
      std::min({grid_.dx(0), grid_.dx(1), grid_.dx(2)});
  // Standard explicit-DG CFL bound ~ h / (c (2N - 1)) per dimension.
  return cfl * hmin / (smax * (2.0 * n - 1.0) * 3.0);
}

void AderDgSolver::predict_cell(
    ThreadScratch& ts, int c, double dt, double t,
    const std::array<double, 3>& inv_dx,
    const std::array<double, kMaxOrder>& integral_coeff, bool sum_reset) {
  const double* qc = cell_dofs(c);
  double* qnew_c = qnew_.data() + static_cast<std::size_t>(c) * cell_size_;

  SourceTerm src;
  const SourceTerm* src_ptr = nullptr;
  for (const auto& prepared : sources_) {
    if (prepared.cell != c) continue;
    src.psi = prepared.psi.data();
    src.quantity = prepared.source.quantity;
    for (int o = 0; o <= layout_.n; ++o)
      src.dt_derivatives[o] = prepared.source.wavelet->derivative(t, o);
    src_ptr = &src;
    break;  // one source per cell supported; add_point_source validates
  }

  // A cell with a finer face neighbour also publishes the average over
  // [t, t + dt/2], which the kernel folds out of the same Taylor expansion.
  const bool half =
      lts_enabled_ && needs_half_[static_cast<std::size_t>(c)] != 0;
  // Every kernel output is consumed inside this call — favg by the volume
  // update, the averages by the face projection — so one set of per-thread
  // temporaries suffices; the kernel overwrites them in full
  // (stp_common.h).
  double* work = ts.work.data();
  StpOutputs out{ts.qavg.data(),
                 {work + favg_offset(0), work + favg_offset(1),
                  work + favg_offset(2)},
                 half ? ts.qavg_half.data() : nullptr};
  ts.kernel.run(qc, dt, inv_dx, src_ptr, out);

  // qnew = q + dt * favg0 + dt * favg1 + dt * favg2 in one sweep, each
  // element summed left to right in that order.
  const double* f0 = out.favg[0];
  const double* f1 = out.favg[1];
  const double* f2 = out.favg[2];
  for (std::size_t i = 0; i < cell_size_; ++i) {
    double v = qc[i];
    v += dt * f0[i];
    v += dt * f1[i];
    v += dt * f2[i];
    qnew_c[i] = v;
  }
  FlopCounter::instance().add(WidthClass::k128, 6ull * cell_size_);

  if (src_ptr != nullptr) {
    // Direct time integral of the source: qnew += psi * int s dt.
    double integral = 0.0;
    for (int o = 0; o < layout_.n; ++o)
      integral += src.dt_derivatives[o] * integral_coeff[o];
    const int n = layout_.n;
    for (int k3 = 0; k3 < n; ++k3)
      for (int k2 = 0; k2 < n; ++k2)
        for (int k1 = 0; k1 < n; ++k1)
          qnew_c[layout_.idx(k3, k2, k1, src.quantity)] +=
              src.psi[(static_cast<std::size_t>(k3) * n + k2) * n + k1] *
              integral;
  }

  // The averages leave the predictor only as face traces, projected while
  // they are still in cache.
  double* traces_c = traces_of(traces_, c);
  project_faces(isa_, layout_, basis_, ts.qavg.data(), traces_c);
  if (half)
    project_faces(isa_, layout_, basis_, ts.qavg_half.data(),
                  traces_of(half_traces_, c));

  if (lts_enabled_ && needs_sum_[static_cast<std::size_t>(c)] != 0) {
    // A coarser face neighbour averages this cell's two sub-averages over
    // its full interval; fold the traces into the running window sum.
    double* sum_c = traces_of(sum_traces_, c);
    const std::size_t count = 6 * trace_layout_.size();
    if (sum_reset)
      std::memcpy(sum_c, traces_c, count * sizeof(double));
    else
      for (std::size_t i = 0; i < count; ++i) sum_c[i] += traces_c[i];
  }
}

void AderDgSolver::step(double dt) {
  for (int phase = 0; phase < num_step_phases(); ++phase)
    step_phase(phase, dt);
}

void AderDgSolver::step_phase(int phase, double dt) {
  step_phase_interior(phase, dt);
  step_phase_boundary(phase, dt);
}

void AderDgSolver::step_phase_interior(int phase, double dt) {
  EXASTP_CHECK_MSG(dt > 0.0, "dt must be positive");
  if (lts_enabled_) {
    EXASTP_CHECK(phase >= 0 && phase < 2 * macro_substeps_);
    const int s = phase / 2;
    const double dt_fine = dt / macro_substeps_;
    if (phase % 2 == 0) {
      // Predict fine substep s: every cluster whose step starts here
      // (s aligned to its 2^k stride) expands at t = time_ + s dt_fine.
      ScopedSpan span(SpanId::kPredict);
      const auto inv_dx = grid_.inv_dx();
      for (int k = 0; k < num_clusters_; ++k) {
        if (s % (1 << k) != 0) continue;
        predict_cluster(k, s, dt_fine * (1 << k), time_ + s * dt_fine,
                        inv_dx);
      }
      return;
    }
    // Correct fine substep s, interior sweep: the clusters completing
    // their step here read only owned traces.
    ScopedSpan span(SpanId::kCorrectInterior);
    for (int k = 0; k < num_clusters_; ++k) {
      if ((s + 1) % (1 << k) != 0) continue;
      correct_cluster(k, s, dt_fine * (1 << k), cluster_interior_[k]);
    }
    return;
  }

  EXASTP_CHECK(phase == 0 || phase == 1);
  if (phase == 0) {
    ScopedSpan span(SpanId::kPredict);
    const auto inv_dx = grid_.inv_dx();
    const auto integral_coeff = taylor_coefficients(dt, layout_.n);
    // Predictor + volume update + projection: embarrassingly cell-parallel
    // — qnew_c and the cell's traces belong to the traversed cell, each
    // thread runs its own kernel clone and output scratch. No neighbour
    // reads, so the phase is all interior.
    par_.run(grid_.num_cells(), 1, [&](int tid, long begin, long end) {
      ThreadScratch& ts = scratch_[static_cast<std::size_t>(tid)];
      for (long c = begin; c < end; ++c)
        predict_cell(ts, static_cast<int>(c), dt, time_, inv_dx,
                     integral_coeff, false);
    });
    return;
  }

  // Corrector over the interior set: these cells read only owned traces,
  // so the sweep runs while the halo exchange is in flight.
  ScopedSpan span(SpanId::kCorrectInterior);
  apply_corrector(dt, interior_cells_);
}

void AderDgSolver::step_phase_boundary(int phase, double dt) {
  if (lts_enabled_) {
    EXASTP_CHECK(phase >= 0 && phase < 2 * macro_substeps_);
    if (phase % 2 == 0) return;
    const int s = phase / 2;
    const double dt_fine = dt / macro_substeps_;
    ScopedSpan span(SpanId::kCorrectBoundary);
    for (int k = 0; k < num_clusters_; ++k) {
      if ((s + 1) % (1 << k) != 0) continue;
      correct_cluster(k, s, dt_fine * (1 << k), cluster_boundary_[k]);
    }
    if (s == macro_substeps_ - 1) {
      // Every cluster completes at the last fine substep, so every owned
      // cell's qnew is fresh — the whole-buffer swap and finite check of
      // the global path apply verbatim (K == 1 IS the global path).
      finish_step(dt);
      return;
    }
    // Intermediate advance: only the completing clusters' cells move to
    // their substepped state; everyone else keeps stepping from q.
    for (int k = 0; k < num_clusters_; ++k) {
      if ((s + 1) % (1 << k) != 0) continue;
      const std::vector<int>& cells = cluster_cells_[k];
      par_.run(static_cast<long>(cells.size()), 1,
               [&](int /*tid*/, long begin, long end) {
                 for (long i = begin; i < end; ++i) {
                   const std::size_t off =
                       static_cast<std::size_t>(
                           cells[static_cast<std::size_t>(i)]) *
                       cell_size_;
                   std::memcpy(q_.data() + off, qnew_.data() + off,
                               cell_size_ * sizeof(double));
                 }
               });
    }
    return;
  }

  EXASTP_CHECK(phase == 0 || phase == 1);
  if (phase == 0) return;

  // Runs after the trace halos are valid (the monolithic grid has none, and
  // its boundary set is empty): boundary corrector, buffer swap, time
  // advance.
  ScopedSpan span(SpanId::kCorrectBoundary);
  apply_corrector(dt, boundary_cells_);
  finish_step(dt);
}

void AderDgSolver::correct_cell(ThreadScratch& ts, int c, double dt, int s) {
  const auto inv_dx = grid_.inv_dx();
  const std::size_t t = trace_layout_.size();
  FaceUpdate u;
  u.layout = trace_layout_;
  u.basis = &basis_;
  u.own = traces_of(traces_, c);
  u.jump = ts.work.data();
  u.out = qnew_.data() + static_cast<std::size_t>(c) * cell_size_;
  for (int dir = 0; dir < 3; ++dir) u.scale[dir] = dt * inv_dx[dir];
  const bool clustered = lts_enabled_ && num_clusters_ > 1;
  const int k = clustered ? cluster_[static_cast<std::size_t>(c)] : 0;
  for (int f = 0; f < 6; ++f) {
    const int dir = f / 2;
    const int side = f % 2;
    const NeighborRef nb = grid_.neighbor(c, dir, side);
    if (nb.boundary) {
      u.neighbour[static_cast<std::size_t>(f)] = nullptr;
      u.boundary[static_cast<std::size_t>(f)] = nb.kind;
      continue;
    }
    // The neighbour's trace of the shared face: its face on the far side.
    const std::size_t off = trace_slot(grid_, nb.cell, dir, 1 - side) * t;
    const double* avg = traces_.data() + off;
    const int nk = clustered ? cluster_[static_cast<std::size_t>(nb.cell)] : k;
    if (nk == k) {
      u.neighbour[static_cast<std::size_t>(f)] = avg;
      continue;
    }
    // Cross-cluster traces, derived from the CK/Taylor identity
    // avg[dt/2, dt] = 2 avg[0, dt] - avg[0, dt/2] on the neighbour's trace.
    // Parameter rows survive every derivation (2p - p = p,
    // 0.5 (p + p) = p), so face solves see valid materials.
    double* tmp = ts.work.data() + nb_traces_offset() +
                  static_cast<std::size_t>(f) * t;
    if (nk > k) {
      // Coarser neighbour: its interval spans two of my steps; my local
      // substep parity says which half I am in.
      const double* half = half_traces_.data() + off;
      if (((s >> k) & 1) == 0) {
        u.neighbour[static_cast<std::size_t>(f)] = half;
        continue;
      }
      for (std::size_t i = 0; i < t; ++i) tmp[i] = 2.0 * avg[i] - half[i];
    } else {
      // Finer neighbour: mean of its two sub-averages over my interval.
      const double* sum = sum_traces_.data() + off;
      for (std::size_t i = 0; i < t; ++i) tmp[i] = 0.5 * sum[i];
    }
    u.neighbour[static_cast<std::size_t>(f)] = tmp;
  }
  // The lift of the final (sub)step writes every owned DOF of the step's
  // result, so its finite flag is the blow-up check.
  const bool finite = pde_->surface_update(isa_, u);
  if (!finite && (!lts_enabled_ || s == macro_substeps_ - 1))
    ts.nonfinite = 1;
}

void AderDgSolver::apply_corrector(double dt, const std::vector<int>& cells) {
  // Cell-parallel surface sweep over one classification set: each cell
  // applies the lift from its own six faces to itself only (interior
  // Riemann solves run once per side — identical bits, no write races), so
  // the interior/boundary split never changes any cell's bits.
  par_.run(static_cast<long>(cells.size()), 1,
           [&](int tid, long begin, long end) {
             ThreadScratch& ts = scratch_[static_cast<std::size_t>(tid)];
             for (long i = begin; i < end; ++i)
               correct_cell(ts, cells[static_cast<std::size_t>(i)], dt, 0);
           });
}

void AderDgSolver::predict_cluster(int k, int s, double dt_k, double t,
                                   const std::array<double, 3>& inv_dx) {
  ScopedSpan span(SpanId::kLtsCluster, /*arg=*/k);
  const auto t0 = std::chrono::steady_clock::now();
  const auto integral_coeff = taylor_coefficients(dt_k, layout_.n);
  // A new sum window opens on every even local substep (the start of the
  // coarser neighbour's interval).
  const bool sum_reset = ((s >> k) & 1) == 0;
  const std::vector<int>& cells = cluster_cells_[static_cast<std::size_t>(k)];
  par_.run(static_cast<long>(cells.size()), 1,
           [&](int tid, long begin, long end) {
             ThreadScratch& ts = scratch_[static_cast<std::size_t>(tid)];
             for (long i = begin; i < end; ++i)
               predict_cell(ts, cells[static_cast<std::size_t>(i)], dt_k, t,
                            inv_dx, integral_coeff, sum_reset);
           });
  cluster_ns_[static_cast<std::size_t>(k)] +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  cluster_cell_substeps_[static_cast<std::size_t>(k)] +=
      static_cast<long long>(cells.size());
}

void AderDgSolver::correct_cluster(int k, int s, double dt_k,
                                   const std::vector<int>& cells) {
  ScopedSpan span(SpanId::kLtsCluster, /*arg=*/k);
  const auto t0 = std::chrono::steady_clock::now();
  par_.run(static_cast<long>(cells.size()), 1,
           [&](int tid, long begin, long end) {
             ThreadScratch& ts = scratch_[static_cast<std::size_t>(tid)];
             for (long i = begin; i < end; ++i)
               correct_cell(ts, cells[static_cast<std::size_t>(i)], dt_k, s);
           });
  cluster_ns_[static_cast<std::size_t>(k)] +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
}

void AderDgSolver::enable_lts(const std::vector<int>& cluster_of_cell,
                              int num_clusters) {
  const int total = grid_.num_cells() + grid_.num_halo_cells();
  EXASTP_CHECK_MSG(num_clusters >= 1, "lts needs at least one cluster");
  EXASTP_CHECK_MSG(
      static_cast<int>(cluster_of_cell.size()) == total,
      "lts cluster assignment must cover owned + halo cells");
  for (const int k : cluster_of_cell)
    EXASTP_CHECK_MSG(k >= 0 && k < num_clusters,
                     "lts cluster assignment out of range");
  // The CK/Taylor coupling covers exactly one rate level per face; the
  // engine's binning normalizes to this invariant, re-checked here so a
  // hand-built assignment cannot silently desynchronize.
  for (int c = 0; c < grid_.num_cells(); ++c) {
    for (int dir = 0; dir < 3; ++dir) {
      for (int side = 0; side < 2; ++side) {
        const NeighborRef nb = grid_.neighbor(c, dir, side);
        if (nb.boundary) continue;
        const int diff = cluster_of_cell[static_cast<std::size_t>(c)] -
                         cluster_of_cell[static_cast<std::size_t>(nb.cell)];
        EXASTP_CHECK_MSG(diff >= -1 && diff <= 1,
                         "lts face neighbours must be at most one rate "
                         "cluster apart");
      }
    }
  }

  cluster_ = cluster_of_cell;
  num_clusters_ = num_clusters;
  macro_substeps_ = 1 << (num_clusters - 1);
  lts_enabled_ = true;

  // Per-cluster sweep lists, filtered from the global orders so the
  // K == 1 degenerate case walks exactly the global sweeps.
  cluster_cells_.assign(static_cast<std::size_t>(num_clusters), {});
  for (int c = 0; c < grid_.num_cells(); ++c)
    cluster_cells_[static_cast<std::size_t>(cluster_[c])].push_back(c);
  cluster_interior_.assign(static_cast<std::size_t>(num_clusters), {});
  for (const int c : interior_cells_)
    cluster_interior_[static_cast<std::size_t>(cluster_[c])].push_back(c);
  cluster_boundary_.assign(static_cast<std::size_t>(num_clusters), {});
  for (const int c : boundary_cells_)
    cluster_boundary_[static_cast<std::size_t>(cluster_[c])].push_back(c);

  // Production flags: which owned cells must publish the extra
  // time-average traces. Halo neighbours count — the reader may live on
  // another shard, and the exchange moves whatever this shard produced.
  needs_half_.assign(static_cast<std::size_t>(total), 0);
  needs_sum_.assign(static_cast<std::size_t>(total), 0);
  for (int c = 0; c < grid_.num_cells(); ++c) {
    for (int dir = 0; dir < 3; ++dir) {
      for (int side = 0; side < 2; ++side) {
        const NeighborRef nb = grid_.neighbor(c, dir, side);
        if (nb.boundary) continue;
        const int nk = cluster_[static_cast<std::size_t>(nb.cell)];
        const int k = cluster_[static_cast<std::size_t>(c)];
        if (nk < k) needs_half_[static_cast<std::size_t>(c)] = 1;
        if (nk > k) needs_sum_[static_cast<std::size_t>(c)] = 1;
      }
    }
  }

  if (num_clusters_ > 1) {
    const std::size_t size = trace_count(grid_) * trace_layout_.size();
    half_traces_.assign(size, 0.0);
    sum_traces_.assign(size, 0.0);
    for (ThreadScratch& ts : scratch_) ts.qavg_half.assign(cell_size_, 0.0);
  }
  cluster_ns_.assign(static_cast<std::size_t>(num_clusters), 0);
  cluster_cell_substeps_.assign(static_cast<std::size_t>(num_clusters), 0);
}

std::vector<SolverBase::LtsClusterStats> AderDgSolver::lts_cluster_stats()
    const {
  if (!lts_enabled_) return {};
  std::vector<LtsClusterStats> stats(
      static_cast<std::size_t>(num_clusters_));
  for (int k = 0; k < num_clusters_; ++k) {
    LtsClusterStats& st = stats[static_cast<std::size_t>(k)];
    st.cells = static_cast<int>(
        cluster_cells_[static_cast<std::size_t>(k)].size());
    st.cell_substeps = cluster_cell_substeps_[static_cast<std::size_t>(k)];
    st.ns = cluster_ns_[static_cast<std::size_t>(k)];
  }
  return stats;
}

std::vector<SolverBase::PhaseHaloField> AderDgSolver::step_phase_halo_fields(
    int phase) {
  const bool correct = lts_enabled_ ? phase % 2 == 1 : phase == 1;
  if (!correct) return {};
  std::vector<PhaseHaloField> fields{PhaseHaloField{traces_.data(), 0}};
  if (num_clusters_ > 1) {
    // Over-exchange by design: not every correct phase reads every
    // buffer, but a fixed field set keeps all shards' field lists
    // structurally agreed without any cross-shard negotiation.
    fields.push_back(PhaseHaloField{half_traces_.data(), 1});
    fields.push_back(PhaseHaloField{sum_traces_.data(), 2});
  }
  return fields;
}

void AderDgSolver::finish_step(double dt) {
  q_.swap(qnew_);
  time_ += dt;
  bool bad = false;
  for (ThreadScratch& ts : scratch_) {
    bad = bad || ts.nonfinite != 0;
    ts.nonfinite = 0;
  }
  if (bad) throw_nonfinite("AderDgSolver");
}

}  // namespace exastp

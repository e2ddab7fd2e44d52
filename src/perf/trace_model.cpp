#include "exastp/perf/trace_model.h"

#include <array>
#include <vector>

#include "exastp/basis/basis_tables.h"
#include "exastp/common/aligned.h"
#include "exastp/common/check.h"
#include "exastp/kernels/face.h"
#include "exastp/perf/access_recorder.h"

namespace exastp {
namespace {

/// Routes the calling thread's FLOPs to `flops` for the scope's lifetime;
/// the previous routing comes back when the scope ends, also by an
/// exception.
class FlopScope {
 public:
  explicit FlopScope(FlopCounter& flops)
      : previous_(FlopCounter::thread_instance()) {
    FlopCounter::thread_instance() = &flops;
  }
  ~FlopScope() { FlopCounter::thread_instance() = previous_; }
  FlopScope(const FlopScope&) = delete;
  FlopScope& operator=(const FlopScope&) = delete;

 private:
  FlopCounter* previous_;
};

/// `nodes` nodes of `stride` values: the evolved quantities small, the
/// parameters 1, the padding 0 — an admissible state for every PDE.
AlignedVector node_states(std::size_t nodes, int stride, const PdeInfo& info,
                          int seed) {
  AlignedVector v(nodes * stride, 0.0);
  for (std::size_t k = 0; k < nodes; ++k)
    for (int s = 0; s < info.quants; ++s)
      v[k * stride + s] =
          s < info.vars ? 0.01 * ((k + s + seed) % 17) - 0.08 : 1.0;
  return v;
}

}  // namespace

TwinResult trace_stp(const StpKernel& kernel, const PdeRuntime& pde,
                     CacheSim& sim, int warmup, int reps,
                     bool include_corrector, bool half_window) {
  EXASTP_CHECK(kernel && warmup >= 0 && reps >= 1);
  const AosLayout& aos = kernel.layout();
  const PdeInfo info = pde.info();
  EXASTP_CHECK_MSG(info.quants == aos.m,
                   "kernel layout does not match the PDE");
  const std::size_t nodes = static_cast<std::size_t>(aos.n) * aos.n * aos.n;
  const FaceLayout face(aos);
  const std::size_t traces = 6 * face.size();
  const double dt = 1e-3;
  const std::array<double, 3> inv_dx{4.0, 4.0, 4.0};

  // Every buffer exists before recording starts: each call's input cell
  // and per-cell outputs fresh, the rest reused like the solver's
  // per-thread scratch.
  struct Cell {
    AlignedVector q, qnew, traces, half_traces, neighbours;
  };
  std::vector<Cell> cells(static_cast<std::size_t>(warmup + reps));
  for (std::size_t c = 0; c < cells.size(); ++c) {
    Cell& cell = cells[c];
    cell.q = node_states(nodes, aos.m_pad, info, static_cast<int>(c));
    if (!include_corrector) continue;
    cell.qnew.assign(aos.size(), 0.0);
    cell.traces.assign(traces, 0.0);
    if (half_window) cell.half_traces.assign(traces, 0.0);
    cell.neighbours =
        node_states(6 * static_cast<std::size_t>(aos.n) * aos.n, aos.m_pad,
                    info, static_cast<int>(c) + 1);
  }
  AlignedVector qavg, qavg_half, jump(traces);
  std::array<AlignedVector, 3> favg;
  if (!include_corrector) {
    qavg.assign(aos.size(), 0.0);
    if (half_window) qavg_half.assign(aos.size(), 0.0);
    for (AlignedVector& f : favg) f.assign(aos.size(), 0.0);
  }
  const BasisTables& basis = basis_tables(aos.n);

  // The first run of the call sequence learns the buffers' extents, the
  // second is simulated (access_recorder.h).
  AccessRecorder recorder;
  FlopCounter flops;
  {
    const AccessRecorder::Scope recording(recorder);
    const FlopScope counting(flops);
    for (int pass = 0; pass < 2; ++pass) {
      if (pass == 1) recorder.attach(sim);
      for (std::size_t c = 0; c < cells.size(); ++c) {
        if (c == static_cast<std::size_t>(warmup)) {
          sim.reset_stats();
          flops.reset();
        }
        Cell& cell = cells[c];
        StpOutputs out;
        if (!include_corrector) {
          out.qavg = qavg.data();
          out.qavg_half = half_window ? qavg_half.data() : nullptr;
          for (int d = 0; d < 3; ++d) out.favg[d] = favg[d].data();
          kernel.run(cell.q.data(), dt, inv_dx, nullptr, out);
          continue;
        }
        // The solver's request (AderDgSolver::predict_cell).
        out.qnew = cell.qnew.data();
        out.traces = cell.traces.data();
        out.traces_half = half_window ? cell.half_traces.data() : nullptr;
        kernel.run(cell.q.data(), dt, inv_dx, nullptr, out);
        FaceUpdate u;
        u.layout = face;
        u.basis = &basis;
        u.own = cell.traces.data();
        for (std::size_t f = 0; f < 6; ++f)
          u.neighbour[f] = cell.neighbours.data() + f * face.size();
        for (int d = 0; d < 3; ++d) u.scale[d] = dt * inv_dx[d];
        u.jump = jump.data();
        u.out = cell.qnew.data();
        pde.surface_update(kernel.isa(), u);
      }
    }
  }
  TwinResult result;
  result.cache = sim.stats();
  result.flops = flops;
  result.workspace_bytes = kernel.workspace_bytes();
  result.measured_reps = reps;
  return result;
}

}  // namespace exastp

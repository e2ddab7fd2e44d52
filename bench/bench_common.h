// Shared measurement harness for the figure benches.
//
// Workload = the paper's benchmark PDE (curvilinear elastic, m = 21
// quantities, Sec. VI) on a batch of cells processed round-robin like a mesh
// traversal, so kernel inputs do not stay cache-resident between calls.
// Each configuration reports:
//   * measured GFlop/s (wall clock x dynamically counted FLOPs) and the
//     percentage of the measured machine peak — the paper's
//     "Available Perf (%)" axis,
//   * the simulated memory-stall fraction from the trace twin + cache
//     hierarchy + stall model (the VTune substitute),
//   * the dynamic instruction mix (Fig. 9 axis).
#pragma once

#include <chrono>
#include <vector>

#include "exastp/kernels/registry.h"
#include "exastp/pde/curvilinear_elastic.h"
#include "exastp/perf/cachesim.h"
#include "exastp/perf/instr_mix.h"
#include "exastp/perf/peak.h"
#include "exastp/perf/report.h"
#include "exastp/perf/trace_model.h"
#include "exastp/tensor/transpose.h"

namespace exastp::bench {

/// Seconds for `steps` solver steps of size `dt` — the timing loop shared
/// by the end-to-end scaling benches (bench_threads, bench_shards).
/// Template over the façade type so the kernel-level benches including
/// this header do not pull in the engine; the callers pass a Simulation and
/// include engine/simulation.h.
template <class Sim>
double time_steps(Sim& sim, double dt, int steps) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int s = 0; s < steps; ++s) sim.solver().step(dt);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// time_steps at the stable dt, after one untimed warm-up step.
template <class Sim>
double time_fixed_steps(Sim& sim, int steps) {
  const double dt = sim.solver().stable_dt();
  sim.solver().step(dt);
  return time_steps(sim, dt, steps);
}

inline constexpr int kBenchMinOrder = 4;
inline constexpr int kBenchMaxOrder = 11;  // the paper sweeps N = 4..11

struct Measurement {
  double gflops = 0.0;
  double pct_peak = 0.0;
  double stall_pct = 0.0;
  InstrMix mix;
  std::size_t workspace_bytes = 0;
  double seconds_per_call = 0.0;
  std::uint64_t flops_per_call = 0;
};

/// Builds a physically admissible cell state for the benchmark PDE on the
/// kernel's layout.
inline AlignedVector benchmark_cell(const AosLayout& aos, int seed) {
  AlignedVector q(aos.size(), 0.0);
  const int n = aos.n;
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1) {
        double* node = q.data() + aos.idx(k3, k2, k1, 0);
        for (int s = 0; s < 9; ++s)
          node[s] = 0.01 * ((k1 + 2 * k2 + 3 * k3 + s + seed) % 17) - 0.08;
        node[CurvilinearElasticPde::kRho] = 2.7;
        node[CurvilinearElasticPde::kCp] = 6.0;
        node[CurvilinearElasticPde::kCs] = 3.464;
        for (int r = 0; r < 3; ++r)
          node[CurvilinearElasticPde::kMetric + 3 * r + r] = 1.0;
        node[CurvilinearElasticPde::kMetric + 1] = 0.05;  // mild curvature
      }
  return q;
}

/// Measures one (variant, order, isa, precision) configuration. The kernel
/// boundary stays double in both precisions, so the same harness (and the
/// same dynamically counted FLOPs — fp32 is classified at double lane
/// width, see gemm.h) serves both.
inline Measurement measure_stp(StpVariant variant, int order, Isa isa,
                               double min_seconds = 0.15, int mesh_cells = 8,
                               Precision precision = Precision::kF64) {
  StpKernel kernel =
      make_stp_kernel(CurvilinearElasticPde{}, variant, order, isa,
                      NodeFamily::kGaussLegendre, precision);
  const AosLayout& aos = kernel.layout();

  std::vector<AlignedVector> cells;
  cells.reserve(mesh_cells);
  for (int c = 0; c < mesh_cells; ++c)
    cells.push_back(benchmark_cell(aos, c));
  AlignedVector qavg(aos.size()), f0(aos.size()), f1(aos.size()),
      f2(aos.size());
  StpOutputs out{qavg.data(), {f0.data(), f1.data(), f2.data()}};
  const std::array<double, 3> inv_dx{8.0, 8.0, 8.0};
  const double dt = 1e-3;

  // FLOPs per call are deterministic: count one call.
  FlopSection section;
  kernel.run(cells[0].data(), dt, inv_dx, nullptr, out);
  const FlopCounter per_call = section.delta();

  using clock = std::chrono::steady_clock;
  int reps = 1;
  double elapsed = 0.0;
  // Grow the repetition count until the timed run is long enough.
  for (;;) {
    const auto t0 = clock::now();
    for (int r = 0; r < reps; ++r)
      kernel.run(cells[r % mesh_cells].data(), dt, inv_dx, nullptr, out);
    elapsed = std::chrono::duration<double>(clock::now() - t0).count();
    if (elapsed >= min_seconds) break;
    reps = std::max(reps * 2, static_cast<int>(reps * min_seconds /
                                               std::max(elapsed, 1e-6)));
  }

  Measurement m;
  m.flops_per_call = per_call.total();
  m.seconds_per_call = elapsed / reps;
  m.gflops = static_cast<double>(per_call.total()) * reps / elapsed / 1e9;
  m.pct_peak = 100.0 * m.gflops / available_peak_gflops();
  m.mix = instruction_mix(per_call);
  m.workspace_bytes = kernel.workspace_bytes();

  // Simulated memory-stall proxy (end-to-end step, like the paper's
  // full-application measurement): the twin runs the kernel just timed.
  CacheSim sim = CacheSim::skylake_sp();
  const TwinResult twin =
      trace_stp(kernel, PdeAdapter<CurvilinearElasticPde>(), sim,
                /*warmup=*/1, /*reps=*/2, /*include_corrector=*/true);
  m.stall_pct =
      100.0 * StallModel{}.stall_fraction(twin.cache, twin.flops.flops);
  return m;
}

}  // namespace exastp::bench

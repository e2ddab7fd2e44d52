// Trace twins: memory-access replicas of the four STP kernel variants.
//
// VTune substitute, part 2 (part 1 is the FLOP ledger, flop_count.h and
// instr_mix.h): each twin walks the exact loop nest of its kernel variant
// and issues the corresponding memory accesses (at cache-line granularity)
// into a CacheSim, while reporting FLOPs through the *same* accounting
// helpers the real kernels use. Two validation hooks keep the twins honest:
//   * their FLOP totals must equal a real kernel run's FlopCounter delta
//     (tests/test_trace_model.cpp),
//   * their workspace footprint must equal StpKernel::workspace_bytes().
//
// The twins exist because instrumenting the hot kernels with per-access
// callbacks would destroy the very code the paper measures; replaying the
// address pattern offline costs nothing at run time and reproduces the
// L2-capacity behaviour that drives Figs. 4, 6 and 10.
#pragma once

#include <array>
#include <cstdint>

#include "exastp/kernels/stp_common.h"
#include "exastp/pde/pde_base.h"
#include "exastp/perf/cachesim.h"
#include "exastp/perf/flop_count.h"

namespace exastp {

/// Runtime description of the PDE for the twin (no user code is executed).
/// flux_cover/ncp_zero carry the PDE's declared sparsity (pde_base.h
/// traits): the SplitCK twins must mask/skip exactly like the real fused
/// kernels or the FLOP ledgers drift apart.
struct TwinPde {
  int quants = 0;
  int vars = 0;
  std::uint64_t flux_flops = 0;
  std::uint64_t ncp_flops = 0;
  /// Per direction: past-the-end possibly-nonzero flux row
  /// (pde_flux_rows_end). Defaults to vars via twin_pde().
  std::array<int, 3> flux_cover{};
  /// True when the NCP stage is skipped entirely (kNcpIsZero).
  bool ncp_zero = false;
};

template <class Pde>
TwinPde twin_pde() {
  TwinPde t{Pde::kQuants, Pde::kVars, Pde::kFluxFlops, Pde::kNcpFlops,
            {pde_flux_rows_end<Pde>(0), pde_flux_rows_end<Pde>(1),
             pde_flux_rows_end<Pde>(2)},
            pde_ncp_is_zero<Pde>()};
  return t;
}

struct TwinResult {
  CacheStats cache;          ///< measured repetitions only (after warmup)
  FlopCounter flops;         ///< per measured repetition set
  std::size_t workspace_bytes = 0;
  int measured_reps = 0;
};

/// Replays `warmup + reps` kernel invocations (each on a fresh input cell,
/// reusing the same workspace — the mesh-traversal pattern) and returns the
/// cache statistics and FLOP counts of the measured repetitions.
///
/// With `include_corrector` each repetition is a full ADER-DG step: after
/// the predictor, the per-cell corrector pattern (volume update, the
/// one-pass projection onto six face traces, six Riemann solves from
/// traces, the one-pass surface lift) is replayed too, booking the face
/// work at the kernel's dispatched width like the solver does. The paper's
/// benchmarks measure the end-to-end application (Sec. VI), where the
/// corrector's memory-heavy O(N^2..N^3) share shrinks relative to the
/// O(N^4) predictor as the order grows.
///
/// With `half_window` each predictor also emits the half-window average
/// (StpOutputs::qavg_half, the clustered-LTS coarse-cell request): the
/// twin replays the second accumulator's vecops, its parameter-row
/// refresh and, for AoSoA, the transpose out of the borrowed favg tensor.
/// The workspace is the same either way.
TwinResult trace_stp(StpVariant variant, int order, const TwinPde& pde,
                     Isa isa, CacheSim& sim, int warmup = 1, int reps = 1,
                     bool include_corrector = false,
                     bool half_window = false);

}  // namespace exastp

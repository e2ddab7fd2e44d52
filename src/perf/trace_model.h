// Trace twins: the real STP kernels, run with an access recorder.
//
// VTune substitute, part 2 (part 1 is the FLOP ledger, flop_count.h and
// instr_mix.h). A twin runs a built kernel with an AccessRecorder
// (access_recorder.h) installed on the calling thread: every primitive the
// kernel calls reports its operand ranges once per call, and the recorder
// feeds them, at cache-line granularity, into a CacheSim. The FLOPs are
// the kernel's own bookings. So a twin cannot drift from its kernel: a
// kernel change reaches the cache statistics without a second copy of its
// loop nest, and recording costs the production path one predictable
// branch per call (a per-access callback would have changed the very code
// the paper measures). The simulated L2-capacity behaviour is what drives
// Figs. 4, 6 and 10.
#pragma once

#include <cstddef>

#include "exastp/kernels/stp_common.h"
#include "exastp/pde/pde_base.h"
#include "exastp/perf/cachesim.h"
#include "exastp/perf/flop_count.h"

namespace exastp {

struct TwinResult {
  CacheStats cache;          ///< measured repetitions only (after warmup)
  FlopCounter flops;         ///< per measured repetition set
  std::size_t workspace_bytes = 0;
  int measured_reps = 0;
};

/// Runs `kernel` `warmup + reps` times, each on a fresh input cell and
/// reusing the kernel's workspace (the mesh-traversal pattern), with its
/// accesses recorded into `sim`, and returns the cache statistics and the
/// FLOPs of the measured repetitions. The sequence runs twice: the first
/// run only teaches the recorder the buffers' extents (access_recorder.h).
/// The FLOPs are counted in a counter of the call's own, so the caller's
/// counts stay as they were. `pde` is the kernel's PDE: it fills the input
/// cells (evolved quantities small, parameters 1) and solves the
/// corrector's face problems.
///
/// Without `include_corrector` each call is a kernel probe's request: qavg
/// and the three favg[d] leave the kernel. With it each repetition is a
/// full ADER-DG step of one cell in AderDgSolver's order and buffer reuse:
/// the kernel takes the solver's request (qavg and the volume update qnew,
/// no favg) into the reused qavg buffer and a fresh qnew, project_faces
/// fills the cell's six traces from qavg, and surface_update adds the six
/// face terms from them and six fresh neighbour traces into qnew, with the
/// reused jump scratch. The paper's benchmarks measure the end-to-end
/// application (Sec. VI), where the corrector's memory-heavy O(N^2..N^3)
/// share shrinks relative to the O(N^4) predictor as the order grows.
///
/// With `half_window` each call also asks for the half-window average
/// (StpOutputs::qavg_half, the clustered-LTS coarse-cell request), and
/// with the corrector it is projected onto its traces too, as the solver
/// does.
TwinResult trace_stp(const StpKernel& kernel, const PdeRuntime& pde,
                     CacheSim& sim, int warmup = 1, int reps = 1,
                     bool include_corrector = false,
                     bool half_window = false);

}  // namespace exastp

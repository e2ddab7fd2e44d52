#include "exastp/perf/trace_model.h"

#include <array>
#include <utility>

#include "exastp/common/aligned.h"
#include "exastp/common/check.h"
#include "exastp/tensor/layout.h"

namespace exastp {
namespace {

constexpr std::uint64_t kWord = sizeof(double);

/// Bump allocator for virtual array addresses (64-byte aligned, padded so
/// distinct arrays never share a line).
class VirtualArena {
 public:
  std::uint64_t alloc(std::size_t doubles) {
    const std::uint64_t addr = next_;
    next_ += pad_to(static_cast<int>(doubles), 8) * kWord;
    next_ = (next_ + 63) / 64 * 64;
    logical_ += doubles * kWord;
    return addr;
  }
  /// Exact bytes of the allocated arrays (matches the real kernels'
  /// workspace_bytes accounting, which sums vector sizes).
  std::size_t bytes() const { return logical_; }

 private:
  std::uint64_t next_ = 4096;
  std::size_t logical_ = 0;
};

/// Mirrors the mini-GEMM inner loops: C rows and A rows stream once per i,
/// B rows restream per (i, l). FLOPs via the same helper gemm uses.
void trace_gemm(CacheSim& sim, Isa isa, int m, int n, int k, std::uint64_t a,
                int lda, std::uint64_t b, int ldb, std::uint64_t c, int ldc) {
  for (int i = 0; i < m; ++i) {
    sim.access(c + static_cast<std::uint64_t>(i) * ldc * kWord, n * kWord);
    sim.access(a + static_cast<std::uint64_t>(i) * lda * kWord, k * kWord);
    for (int l = 0; l < k; ++l)
      sim.access(b + static_cast<std::uint64_t>(l) * ldb * kWord, n * kWord);
  }
  count_packed_flops(isa, n, 2ull * m * k);
}

/// Mirrors aos_derivative_slab's batching and masking (derivative_ops.h),
/// one trace_gemm per GEMM of a batch, in the batch's order:
/// `cover` is the past-the-end possibly-nonzero source row; the masked GEMM
/// width is the cover padded up to the vector width (so lanes stay packed),
/// clamped to the full padded row. cover == mp reproduces the unmasked
/// full-cell wrapper; cover <= 0 is a no-op, exactly like the kernels.
/// Fusion blocking is NOT modeled: blocked slabs split the fused calls at
/// multiples of the padded leading dimension, which changes neither the
/// per-width-class FLOP totals nor the set of touched lines.
void trace_aos_derivative(CacheSim& sim, Isa isa, int n, int mp, int cover,
                          std::uint64_t diff, std::uint64_t src,
                          std::uint64_t dst, int dir) {
  if (cover <= 0) return;
  const int padded = pad_to(cover, vector_width(isa));
  const int ncols = padded < mp ? padded : mp;
  const bool masked = ncols < mp;
  const std::uint64_t row = static_cast<std::uint64_t>(mp) * kWord;
  const std::uint64_t slab = static_cast<std::uint64_t>(n) * row;
  switch (dir) {
    case 0:
      for (int k3 = 0; k3 < n; ++k3)
        for (int k2 = 0; k2 < n; ++k2) {
          const std::uint64_t off = (static_cast<std::uint64_t>(k3) * n + k2) * slab;
          trace_gemm(sim, isa, n, ncols, n, diff, n, src + off, mp, dst + off,
                     mp);
        }
      break;
    case 1:
      if (masked) {
        for (int k3 = 0; k3 < n; ++k3)
          for (int k1 = 0; k1 < n; ++k1) {
            const std::uint64_t off =
                static_cast<std::uint64_t>(k3) * n * slab + k1 * row;
            trace_gemm(sim, isa, n, ncols, n, diff, n, src + off, n * mp,
                       dst + off, n * mp);
          }
      } else {
        for (int k3 = 0; k3 < n; ++k3) {
          const std::uint64_t off = static_cast<std::uint64_t>(k3) * n * slab;
          trace_gemm(sim, isa, n, n * mp, n, diff, n, src + off, n * mp,
                     dst + off, n * mp);
        }
      }
      break;
    default:
      if (masked) {
        for (int k2 = 0; k2 < n; ++k2)
          for (int k1 = 0; k1 < n; ++k1) {
            const std::uint64_t off =
                (static_cast<std::uint64_t>(k2) * n + k1) * row;
            trace_gemm(sim, isa, n, ncols, n, diff, n, src + off, n * n * mp,
                       dst + off, n * n * mp);
          }
      } else {
        trace_gemm(sim, isa, n, n * n * mp, n, diff, n, src, n * n * mp, dst,
                   n * n * mp);
      }
  }
}

/// Mirrors aosoa_derivative_slab's batching and masking, GEMM by GEMM as
/// above. In the AoSoA
/// layout the quantity index is the slow (row) dimension, so the cover maps
/// to a row prefix (dir 0) or a contiguous column prefix of whole lanes
/// (dirs 1/2) — no padding needed. cover == m is the unmasked wrapper.
void trace_aosoa_derivative(CacheSim& sim, Isa isa, int n, int m, int np,
                            int cover, std::uint64_t diff,
                            std::uint64_t diff_t, std::uint64_t src,
                            std::uint64_t dst, int dir) {
  if (cover <= 0) return;
  const bool masked = cover < m;
  const std::uint64_t line = static_cast<std::uint64_t>(m) * np * kWord;
  switch (dir) {
    case 0: {
      const int nrows = masked ? cover : m;
      for (int k3 = 0; k3 < n; ++k3)
        for (int k2 = 0; k2 < n; ++k2) {
          const std::uint64_t off =
              (static_cast<std::uint64_t>(k3) * n + k2) * line;
          trace_gemm(sim, isa, nrows, np, n, src + off, np, diff_t, np,
                     dst + off, np);
        }
      break;
    }
    case 1: {
      const int ncols = (masked ? cover : m) * np;
      for (int k3 = 0; k3 < n; ++k3) {
        const std::uint64_t off = static_cast<std::uint64_t>(k3) * n * line;
        trace_gemm(sim, isa, n, ncols, n, diff, n, src + off, m * np,
                   dst + off, m * np);
      }
      break;
    }
    default:
      if (masked) {
        for (int k2 = 0; k2 < n; ++k2) {
          const std::uint64_t off = static_cast<std::uint64_t>(k2) * line;
          trace_gemm(sim, isa, n, cover * np, n, diff, n, src + off,
                     n * m * np, dst + off, n * m * np);
        }
      } else {
        trace_gemm(sim, isa, n, n * m * np, n, diff, n, src, n * m * np, dst,
                   n * m * np);
      }
  }
}

/// Pointwise user-function sweep over a cell: stream src, stream dst.
void trace_pointwise(CacheSim& sim, std::uint64_t src, std::uint64_t dst,
                     std::size_t cell_bytes, std::uint64_t nodes,
                     std::uint64_t flops_per_node) {
  sim.access(src, cell_bytes);
  sim.access(dst, cell_bytes);
  FlopCounter::instance().add(WidthClass::kScalar, nodes * flops_per_node);
}

/// Element-wise vecop over a full tensor.
void trace_vecop(CacheSim& sim, Isa isa, std::uint64_t src, std::uint64_t dst,
                 std::size_t elems, std::uint64_t flops_per_elem) {
  sim.access(src, elems * kWord);
  sim.access(dst, elems * kWord);
  if (flops_per_elem > 0)
    count_packed_flops(isa, static_cast<long>(elems), flops_per_elem);
}

/// The kernel's volume update of one dimension (add_volume_update in
/// kernels/stp_common.h): qnew = base + dt * f, booked at 128 bits.
void trace_update(CacheSim& sim, std::uint64_t base, std::uint64_t f,
                  std::uint64_t qnew, std::size_t elems) {
  sim.access(base, elems * kWord);
  sim.access(f, elems * kWord);
  sim.access(qnew, elems * kWord);
  FlopCounter::instance().add(WidthClass::k128, 2ull * elems);
}

/// Per-cell corrector pattern (mirrors solver/ader_dg_solver.cpp and
/// kernels/face_impl.h) after a predictor that wrote qavg and the volume
/// update qnew: one pass over qavg that fills the cell's six face traces,
/// six Rusanov solves from the own and the neighbour traces (two normal
/// fluxes each), and one lift pass adding the six jumps into qnew. The
/// face work books at the dispatched width.
void trace_corrector_cell(CacheSim& sim, int n, int mp, Isa isa,
                          const TwinPde& pde, std::uint64_t qavg,
                          std::uint64_t qnew, VirtualArena& arena) {
  const std::size_t cell = static_cast<std::size_t>(n) * n * n * mp;
  const std::size_t cell_bytes = cell * kWord;
  const std::size_t face = static_cast<std::size_t>(n) * n * mp;
  const std::size_t face_bytes = face * kWord;
  const std::uint64_t nn = static_cast<std::uint64_t>(n) * n;
  FlopCounter& fc = FlopCounter::instance();
  const WidthClass packed = packed_width_class(isa);

  const std::uint64_t traces = arena.alloc(6 * face);
  const std::uint64_t nb_traces = arena.alloc(6 * face);
  const std::uint64_t jump = arena.alloc(6 * face);

  // Projection: every element of qavg feeds all six traces.
  sim.access(qavg, cell_bytes);
  sim.access(traces, 6 * face_bytes);
  fc.add(packed, 6ull * 2 * n * nn * mp);

  // Six face solves: own trace + the neighbour's trace -> jump.
  const std::uint64_t normal_flux =
      pde.ncp_zero ? pde.flux_flops
                   : pde.flux_flops + pde.ncp_flops + pde.quants;
  for (int f = 0; f < 6; ++f) {
    const std::uint64_t off = static_cast<std::uint64_t>(f) * face_bytes;
    sim.access(traces + off, face_bytes);
    sim.access(nb_traces + off, face_bytes);
    sim.access(jump + off, face_bytes);
    fc.add(packed, nn * (2 * normal_flux + (5ull * pde.vars + 1) + pde.vars));
  }

  // One lift pass: six jumps into qnew.
  sim.access(jump, 6 * face_bytes);
  sim.access(qnew, cell_bytes);
  fc.add(packed, 6ull * 2 * n * nn * mp);
}

/// Replays `rep` warmup + reps times — each on a fresh input cell, reusing
/// the workspace (the mesh-traversal pattern) — and returns the cache
/// statistics and FLOPs of the measured repetitions.
template <class Rep>
TwinResult replay_reps(CacheSim& sim, std::size_t workspace, int warmup,
                       int reps, Rep&& rep) {
  for (int r = 0; r < warmup + reps; ++r) {
    if (r == warmup) {
      sim.reset_stats();
      FlopCounter::instance().reset();
    }
    rep();
  }
  TwinResult result;
  result.cache = sim.stats();
  result.flops = FlopCounter::instance();
  result.workspace_bytes = workspace;
  result.measured_reps = reps;
  return result;
}

// ---------------------------------------------------------------------------
// Generic twin (mirrors generic_stp.cpp).

TwinResult trace_generic(int order, const TwinPde& pde, CacheSim& sim,
                         int warmup, int reps, bool corrector, bool half) {
  const int n = order, m = pde.quants;
  const std::size_t cell = static_cast<std::size_t>(n) * n * n * m;
  const std::size_t cell_bytes = cell * kWord;
  const std::uint64_t nodes = static_cast<std::uint64_t>(n) * n * n;

  VirtualArena arena;
  std::uint64_t p = arena.alloc((n + 1) * cell);
  std::uint64_t flux = arena.alloc(3ull * n * cell);
  std::uint64_t df = arena.alloc(3ull * n * cell);
  std::uint64_t gradq = arena.alloc(3ull * n * cell);
  const std::size_t workspace = arena.bytes();
  std::uint64_t qavg = arena.alloc(cell);
  const std::array<std::uint64_t, 3> favg = {
      arena.alloc(cell), arena.alloc(cell), arena.alloc(cell)};
  const std::uint64_t qavg_half = half ? arena.alloc(cell) : 0;

  auto p_at = [&](int o) { return p + static_cast<std::uint64_t>(o) * cell_bytes; };
  auto od_at = [&](std::uint64_t base, int o, int d) {
    return base + (static_cast<std::uint64_t>(o) * 3 + d) * cell_bytes;
  };

  return replay_reps(sim, workspace, warmup, reps, [&] {
    std::uint64_t q = arena.alloc(cell);
    trace_vecop(sim, Isa::kScalar, q, p_at(0), cell, 0);  // memcpy

    const int node_bytes = m * static_cast<int>(kWord);
    for (int o = 0; o < n; ++o) {
      for (int d = 0; d < 3; ++d)
        trace_pointwise(sim, p_at(o), od_at(flux, o, d), cell_bytes, nodes,
                        pde.flux_flops);
      // Naive derivative: per output node, one strided read sweep.
      for (int d = 0; d < 3; ++d) {
        const std::uint64_t stride =
            (d == 0 ? static_cast<std::uint64_t>(m)
                    : d == 1 ? static_cast<std::uint64_t>(m) * n
                             : static_cast<std::uint64_t>(m) * n * n) * kWord;
        for (std::uint64_t k = 0; k < nodes; ++k) {
          const std::uint64_t out = k * m * kWord;
          sim.access(od_at(df, o, d) + out, node_bytes);
          sim.access(od_at(gradq, o, d) + out, node_bytes);
          // Line base along the derivative dimension.
          const int kd = d == 0 ? static_cast<int>(k % n)
                       : d == 1 ? static_cast<int>((k / n) % n)
                                : static_cast<int>(k / (static_cast<std::uint64_t>(n) * n));
          const std::uint64_t line0 = out - kd * stride;
          sim.access_strided(od_at(flux, o, d) + line0, n, node_bytes,
                             stride);
          sim.access_strided(p_at(o) + line0, n, node_bytes, stride);
        }
        FlopCounter::instance().add(WidthClass::kScalar,
                                    nodes * m * (4ull * n + 2));
      }
      for (int d = 0; d < 3; ++d) {
        trace_pointwise(sim, p_at(o), od_at(df, o, d), cell_bytes, nodes,
                        pde.ncp_flops + m);
        sim.access(od_at(gradq, o, d), cell_bytes);
      }
      // p[o+1] = sum_d dF.
      sim.access(p_at(o + 1), cell_bytes);
      for (int d = 0; d < 3; ++d) sim.access(od_at(df, o, d), cell_bytes);
      FlopCounter::instance().add(WidthClass::k128, 3 * cell);
    }
    // Taylor accumulation. The solver's request (corrector) reads qnew
    // only, so the favg sums go to the finished flux[0][d].
    const std::array<std::uint64_t, 3> fsum =
        corrector ? std::array<std::uint64_t, 3>{od_at(flux, 0, 0),
                                                 od_at(flux, 0, 1),
                                                 od_at(flux, 0, 2)}
                  : favg;
    sim.access(qavg, cell_bytes);
    for (auto f : fsum) sim.access(f, cell_bytes);
    for (int o = 0; o < n; ++o) {
      sim.access(p_at(o), cell_bytes);
      sim.access(qavg, cell_bytes);
      for (int d = 0; d < 3; ++d) {
        sim.access(od_at(df, o, d), cell_bytes);
        sim.access(fsum[d], cell_bytes);
      }
    }
    FlopCounter::instance().add(WidthClass::k128, 8ull * n * cell);
    const std::uint64_t qnew = corrector ? arena.alloc(cell) : 0;
    if (corrector)
      for (int d = 0; d < 3; ++d)
        trace_update(sim, d == 0 ? q : qnew, fsum[d], qnew, cell);
    if (half) {
      sim.access(qavg_half, cell_bytes);
      for (int o = 0; o < n; ++o) {
        sim.access(p_at(o), cell_bytes);
        sim.access(qavg_half, cell_bytes);
      }
      FlopCounter::instance().add(WidthClass::k128, 2ull * n * cell);
    }
    if (corrector)
      trace_corrector_cell(sim, n, m, Isa::kScalar, pde, qavg, qnew, arena);
  });
}

// ---------------------------------------------------------------------------
// LoG twin (mirrors log_stp.h).

TwinResult trace_log(int order, const TwinPde& pde, Isa isa, CacheSim& sim,
                     int warmup, int reps, bool corrector, bool half) {
  const int n = order;
  const int mp = pad_to(pde.quants, vector_width(isa));
  const std::size_t cell = static_cast<std::size_t>(n) * n * n * mp;
  const std::size_t cell_bytes = cell * kWord;
  const std::uint64_t nodes = static_cast<std::uint64_t>(n) * n * n;

  VirtualArena arena;
  std::uint64_t p = arena.alloc((n + 1) * cell);
  std::uint64_t flux = arena.alloc(3ull * n * cell);
  std::uint64_t df = arena.alloc(3ull * n * cell);
  std::uint64_t gradq = arena.alloc(3ull * n * cell);
  const std::size_t workspace = arena.bytes();
  std::uint64_t diff = arena.alloc(static_cast<std::size_t>(n) * n);
  std::uint64_t qavg = arena.alloc(cell);
  const std::array<std::uint64_t, 3> favg = {
      arena.alloc(cell), arena.alloc(cell), arena.alloc(cell)};
  const std::uint64_t qavg_half = half ? arena.alloc(cell) : 0;

  auto p_at = [&](int o) { return p + static_cast<std::uint64_t>(o) * cell_bytes; };
  auto od_at = [&](std::uint64_t base, int o, int d) {
    return base + (static_cast<std::uint64_t>(o) * 3 + d) * cell_bytes;
  };

  return replay_reps(sim, workspace, warmup, reps, [&] {
    std::uint64_t q = arena.alloc(cell);
    trace_vecop(sim, isa, q, p_at(0), cell, 0);

    for (int o = 0; o < n; ++o) {
      for (int d = 0; d < 3; ++d)
        trace_pointwise(sim, p_at(o), od_at(flux, o, d), cell_bytes, nodes,
                        pde.flux_flops);
      for (int d = 0; d < 3; ++d) {
        trace_aos_derivative(sim, isa, n, mp, mp, diff, od_at(flux, o, d),
                             od_at(df, o, d), d);
        trace_aos_derivative(sim, isa, n, mp, mp, diff, p_at(o),
                             od_at(gradq, o, d), d);
      }
      for (int d = 0; d < 3; ++d) {
        trace_pointwise(sim, p_at(o), od_at(df, o, d), cell_bytes, nodes,
                        pde.ncp_flops + pde.quants);
        sim.access(od_at(gradq, o, d), cell_bytes);
      }
      sim.access(p_at(o + 1), cell_bytes);
      for (int d = 0; d < 3; ++d)
        trace_vecop(sim, isa, od_at(df, o, d), p_at(o + 1), cell, 1);
      sim.access(q, cell_bytes);  // parameter-row refresh reads q
    }
    // The solver's request (corrector) reads qnew only, so the favg sums
    // go to the finished flux[0][d].
    const std::array<std::uint64_t, 3> fsum =
        corrector ? std::array<std::uint64_t, 3>{od_at(flux, 0, 0),
                                                 od_at(flux, 0, 1),
                                                 od_at(flux, 0, 2)}
                  : favg;
    sim.access(qavg, cell_bytes);
    for (auto f : fsum) sim.access(f, cell_bytes);
    for (int o = 0; o < n; ++o) {
      trace_vecop(sim, isa, p_at(o), qavg, cell, 2);
      for (int d = 0; d < 3; ++d)
        trace_vecop(sim, isa, od_at(df, o, d), fsum[d], cell, 2);
    }
    const std::uint64_t qnew = corrector ? arena.alloc(cell) : 0;
    if (corrector)
      for (int d = 0; d < 3; ++d)
        trace_update(sim, d == 0 ? q : qnew, fsum[d], qnew, cell);
    sim.access(q, cell_bytes);
    if (half) {
      sim.access(qavg_half, cell_bytes);
      for (int o = 0; o < n; ++o)
        trace_vecop(sim, isa, p_at(o), qavg_half, cell, 2);
      sim.access(q, cell_bytes);
    }
    if (corrector)
      trace_corrector_cell(sim, n, mp, isa, pde, qavg, qnew, arena);
  });
}

// ---------------------------------------------------------------------------
// SplitCK-family twins (mirror kernels/splitck_driver.h and the sweeps of
// splitck_stp.h and aosoa_stp.h).

/// A SplitCK-family twin's tensors: the working-layout ones the driver
/// computes in, and the caller-layout outputs they leave through (the same
/// addresses when the kernel works in place). 0 marks an output the call
/// does not request, and a favg[d] with no working target is formed in p.
struct SplitTwinTensors {
  std::size_t cell = 0;  ///< elements of one working-layout tensor
  std::uint64_t p = 0, ptemp = 0, qavg = 0, qavg_half = 0, qnew = 0;
  std::array<std::uint64_t, 3> favg{};
  std::uint64_t qavg_out = 0, qavg_half_out = 0, qnew_out = 0;
  std::array<std::uint64_t, 3> favg_out{};
};

/// Replays one SplitCkDriver::run from the working-layout state `q`: the
/// Taylor loop with its parameter-row refreshes, the averaged states'
/// refreshes, and the favg stage, which hands out the requested favg[d]
/// and adds each into qnew. `volume(d, src, dst)` replays the variant's
/// sweep, `leave(working, out)` its exit transpose of one tensor.
template <class Volume, class Leave>
void replay_split_ck(CacheSim& sim, Isa isa, int n, std::uint64_t q,
                     SplitTwinTensors& t, bool half, Volume&& volume,
                     Leave&& leave) {
  const std::size_t cell_bytes = t.cell * kWord;
  trace_vecop(sim, isa, q, t.p, t.cell, 0);     // copy
  trace_vecop(sim, isa, q, t.qavg, t.cell, 1);  // scale
  if (half) trace_vecop(sim, isa, q, t.qavg_half, t.cell, 1);
  for (int o = 0; o + 1 < n; ++o) {
    sim.access(t.ptemp, cell_bytes);  // zero
    for (int d = 0; d < 3; ++d) volume(d, t.p, t.ptemp);
    trace_vecop(sim, isa, t.ptemp, t.qavg, t.cell, 2);
    if (half) trace_vecop(sim, isa, t.ptemp, t.qavg_half, t.cell, 2);
    std::swap(t.p, t.ptemp);
    sim.access(q, cell_bytes);  // param refresh
    sim.access(t.p, cell_bytes);
  }
  sim.access(q, cell_bytes);
  sim.access(t.qavg, cell_bytes);
  if (half) {
    sim.access(q, cell_bytes);
    sim.access(t.qavg_half, cell_bytes);
    leave(t.qavg_half, t.qavg_half_out);
  }
  for (int d = 0; d < 3; ++d) {
    const std::uint64_t f = t.favg[d] != 0 ? t.favg[d] : t.p;
    sim.access(f, cell_bytes);  // zero
    volume(d, t.qavg, f);
    if (t.favg_out[d] != 0) leave(f, t.favg_out[d]);
    if (t.qnew != 0) trace_update(sim, d == 0 ? q : t.qnew, f, t.qnew, t.cell);
  }
  leave(t.qavg, t.qavg_out);
  if (t.qnew != 0) leave(t.qnew, t.qnew_out);
}

TwinResult trace_splitck(int order, const TwinPde& pde, Isa isa,
                         CacheSim& sim, int warmup, int reps, bool corrector,
                         bool half) {
  const int n = order;
  const int mp = pad_to(pde.quants, vector_width(isa));
  const std::size_t cell = static_cast<std::size_t>(n) * n * n * mp;
  const std::size_t cell_bytes = cell * kWord;
  const std::uint64_t nodes = static_cast<std::uint64_t>(n) * n * n;

  VirtualArena arena;
  SplitTwinTensors t;
  t.cell = cell;
  t.p = arena.alloc(cell);
  t.ptemp = arena.alloc(cell);
  const std::uint64_t flux = arena.alloc(cell);
  const std::uint64_t gradq = arena.alloc(cell);
  const std::size_t workspace = arena.bytes();
  const std::uint64_t diff = arena.alloc(static_cast<std::size_t>(n) * n);
  t.qavg = t.qavg_out = arena.alloc(cell);
  std::array<std::uint64_t, 3> favg;
  for (std::uint64_t& f : favg) f = arena.alloc(cell);
  // The solver's request (corrector) is qnew only; a kernel probe asks for
  // favg, which the in-place kernel forms straight in the caller's buffers.
  if (!corrector) t.favg = t.favg_out = favg;
  t.qavg_half = t.qavg_half_out = half ? arena.alloc(cell) : 0;

  // Mirrors SplitCkStpT::volume: the flux stage runs only over
  // declared-nonzero flux rows (skipped entirely at cover 0) and the
  // gradient/NCP stage vanishes for conservative PDEs.
  auto volume = [&](int d, std::uint64_t src, std::uint64_t dst) {
    const int cover = pde.flux_cover[d];
    if (cover > 0) {
      trace_pointwise(sim, src, flux, cell_bytes, nodes, pde.flux_flops);
      trace_aos_derivative(sim, isa, n, mp, cover, diff, flux, dst, d);
    }
    if (!pde.ncp_zero) {
      trace_aos_derivative(sim, isa, n, mp, mp, diff, src, gradq, d);
      trace_pointwise(sim, src, dst, cell_bytes, nodes,
                      pde.ncp_flops + pde.quants);
      sim.access(gradq, cell_bytes);
    }
  };

  return replay_reps(sim, workspace, warmup, reps, [&] {
    const std::uint64_t q = arena.alloc(cell);
    if (corrector) t.qnew = t.qnew_out = arena.alloc(cell);
    replay_split_ck(sim, isa, n, q, t, half, volume,
                    [](std::uint64_t, std::uint64_t) {});
    if (corrector)
      trace_corrector_cell(sim, n, mp, isa, pde, t.qavg, t.qnew, arena);
  });
}

TwinResult trace_aosoa(int order, const TwinPde& pde, Isa isa, CacheSim& sim,
                       int warmup, int reps, bool corrector, bool half) {
  const int n = order;
  const int m = pde.quants;
  const int np = pad_to(n, vector_width(isa));
  const std::size_t cell = static_cast<std::size_t>(n) * n * m * np;
  const std::size_t line = static_cast<std::size_t>(m) * np;
  const std::size_t line_bytes = line * kWord;
  const int mp = pad_to(m, vector_width(isa));
  const std::size_t aos_cell = static_cast<std::size_t>(n) * n * n * mp;

  VirtualArena arena;
  SplitTwinTensors t;
  t.cell = cell;
  const std::uint64_t q_a = arena.alloc(cell);
  t.p = arena.alloc(cell);
  t.ptemp = arena.alloc(cell);
  const std::uint64_t flux = arena.alloc(cell);
  const std::uint64_t gradq = arena.alloc(cell);
  t.qavg = arena.alloc(cell);
  const std::uint64_t qnew_staging = arena.alloc(cell);
  const std::uint64_t line_buf = pde.ncp_zero ? 0 : arena.alloc(line);
  const std::size_t workspace = arena.bytes();
  const std::uint64_t diff = arena.alloc(static_cast<std::size_t>(n) * n);
  const std::uint64_t diff_t =
      arena.alloc(static_cast<std::size_t>(n) * np);
  t.qavg_out = arena.alloc(aos_cell);
  // The solver's request (corrector) is qnew only; a kernel probe asks for
  // favg, which leaves out of p. The half-window accumulator borrows the
  // qnew staging (written only in the favg stage), exactly like
  // AosoaBoundary.
  std::array<std::uint64_t, 3> favg_out;
  for (std::uint64_t& f : favg_out) f = arena.alloc(aos_cell);
  if (!corrector) t.favg_out = favg_out;
  t.qavg_half_out = half ? arena.alloc(aos_cell) : 0;
  t.qavg_half = qnew_staging;

  // Mirrors AosoaStpT::volume (same gating as the SplitCK twin: flux stage
  // under cover > 0, gradient/NCP stage under !ncp_zero). The flux stage's
  // line-function calls book their lines' FLOPs once; the NCP stage runs
  // line by line through the one-line buffer.
  auto volume = [&](int d, std::uint64_t src, std::uint64_t dst) {
    const int cover = pde.flux_cover[d];
    const std::uint64_t lines = static_cast<std::uint64_t>(n) * n;
    if (cover > 0) {
      for (std::uint64_t l = 0; l < lines; ++l) {
        const std::uint64_t off = l * line_bytes;
        sim.access(src + off, line_bytes);
        sim.access(flux + off, line_bytes);
      }
      count_packed_flops(isa, np, lines * pde.flux_flops);
      trace_aosoa_derivative(sim, isa, n, m, np, cover, diff, diff_t, flux,
                             dst, d);
    }
    if (!pde.ncp_zero) {
      trace_aosoa_derivative(sim, isa, n, m, np, m, diff, diff_t, src, gradq,
                             d);
      for (std::uint64_t l = 0; l < lines; ++l) {
        const std::uint64_t off = l * line_bytes;
        sim.access(src + off, line_bytes);
        sim.access(gradq + off, line_bytes);
        sim.access(line_buf, line_bytes);
        count_packed_flops(isa, np, pde.ncp_flops);
        trace_vecop(sim, isa, line_buf, dst + off, line, 1);
      }
    }
  };
  // AosoaBoundary's transposes: AoS -> AoSoA on entry, back on exit.
  auto transpose = [&](std::uint64_t src, std::uint64_t dst) {
    trace_vecop(sim, Isa::kScalar, src, dst, cell, 0);
  };

  return replay_reps(sim, workspace, warmup, reps, [&] {
    const std::uint64_t q = arena.alloc(aos_cell);
    if (corrector) {
      t.qnew = qnew_staging;
      t.qnew_out = arena.alloc(aos_cell);
    }
    trace_vecop(sim, Isa::kScalar, q, q_a, aos_cell, 0);
    replay_split_ck(sim, isa, n, q_a, t, half, volume, transpose);
    if (corrector)
      trace_corrector_cell(sim, n, mp, isa, pde, t.qavg_out, t.qnew_out,
                           arena);
  });
}

}  // namespace

TwinResult trace_stp(StpVariant variant, int order, const TwinPde& pde,
                     Isa isa, CacheSim& sim, int warmup, int reps,
                     bool include_corrector, bool half_window) {
  EXASTP_CHECK(order >= 2 && pde.quants > 0 && reps >= 1);
  // Validate before touching global state: the exceptional path must not
  // clobber the caller's FLOP counter.
  EXASTP_CHECK_MSG(variant != StpVariant::kSoaUfSplitCk,
                   "no trace twin for the rejected SoA-UF ablation variant; "
                   "measure it directly");
  // The twin borrows the global FlopCounter; preserve the caller's counts.
  const FlopCounter saved = FlopCounter::instance();
  FlopCounter::instance().reset();
  TwinResult result;
  switch (variant) {
    case StpVariant::kGeneric:
      result = trace_generic(order, pde, sim, warmup, reps, include_corrector,
                             half_window);
      break;
    case StpVariant::kLog:
      result = trace_log(order, pde, isa, sim, warmup, reps, include_corrector,
                         half_window);
      break;
    case StpVariant::kSplitCk:
      result = trace_splitck(order, pde, isa, sim, warmup, reps,
                             include_corrector, half_window);
      break;
    case StpVariant::kAosoaSplitCk:
      result = trace_aosoa(order, pde, isa, sim, warmup, reps,
                           include_corrector, half_window);
      break;
    case StpVariant::kSoaUfSplitCk:
      EXASTP_CHECK_MSG(false,
                       "no trace twin for the rejected SoA-UF ablation "
                       "variant; measure it directly");
      break;
  }
  FlopCounter::instance() = saved;
  return result;
}

}  // namespace exastp

// Tests for src/perf/trace_model: the twins must report exactly the FLOPs
// the real kernels count, the footprints the real kernels allocate, and
// cache behaviour that reproduces the paper's qualitative claims.
#include <gtest/gtest.h>

#include "exastp/kernels/registry.h"
#include "exastp/pde/acoustic.h"
#include "exastp/pde/curvilinear_elastic.h"
#include "exastp/pde/elastic.h"
#include "exastp/perf/trace_model.h"
#include "exastp/solver/ader_dg_solver.h"
#include "exastp/tensor/transpose.h"

namespace exastp {
namespace {

// Runs the real kernel once and returns its FlopCounter delta; `half`
// also requests the half-window average.
template <class Pde>
FlopCounter real_kernel_flops(StpVariant variant, int order, Isa isa,
                              bool half = false) {
  StpKernel kernel = make_stp_kernel(Pde{}, variant, order, isa);
  const AosLayout& aos = kernel.layout();
  AlignedVector q(aos.size(), 0.0), qavg(aos.size(), 0.0),
      qavg_half(aos.size(), 0.0);
  std::array<AlignedVector, 3> favg;
  for (auto& f : favg) f.assign(aos.size(), 0.0);
  // Physically sane constant state (avoid division hazards).
  const int n = aos.n;
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1) {
        double* node = q.data() + aos.idx(k3, k2, k1, 0);
        for (int s = 0; s < Pde::kVars; ++s) node[s] = 0.1 * s;
        if constexpr (std::is_same_v<Pde, CurvilinearElasticPde>) {
          node[Pde::kRho] = 2.7;
          node[Pde::kCp] = 6.0;
          node[Pde::kCs] = 3.4;
          for (int r = 0; r < 3; ++r) node[Pde::kMetric + 3 * r + r] = 1.0;
        } else if constexpr (std::is_same_v<Pde, ElasticPde>) {
          node[Pde::kRho] = 2.7;
          node[Pde::kCp] = 6.0;
          node[Pde::kCs] = 3.4;
        } else if constexpr (std::is_same_v<Pde, AcousticPde>) {
          node[Pde::kRho] = 1.0;
          node[Pde::kC] = 2.0;
        }
      }
  StpOutputs out{qavg.data(),
                 {favg[0].data(), favg[1].data(), favg[2].data()},
                 half ? qavg_half.data() : nullptr};
  FlopSection section;
  kernel.run(q.data(), 1e-3, {4.0, 4.0, 4.0}, nullptr, out);
  return section.delta();
}

struct TwinCase {
  StpVariant variant;
  int order;
  bool half = false;  ///< also emit the half-window average
};

void PrintTo(const TwinCase& c, std::ostream* os) {
  *os << variant_name(c.variant) << "_n" << c.order << (c.half ? "_half" : "");
}

class TwinFlopP : public ::testing::TestWithParam<TwinCase> {};

TEST_P(TwinFlopP, TwinFlopsMatchRealCurvilinearKernel) {
  const auto [variant, order, half] = GetParam();
  const Isa isa = host_best_isa();
  FlopCounter real = real_kernel_flops<CurvilinearElasticPde>(variant, order,
                                                              isa, half);
  CacheSim sim = CacheSim::skylake_sp();
  TwinResult twin = trace_stp(variant, order,
                              twin_pde<CurvilinearElasticPde>(), isa, sim,
                              /*warmup=*/0, /*reps=*/1,
                              /*include_corrector=*/false, half);
  EXPECT_EQ(twin.flops.total(), real.total()) << "total FLOPs diverge";
  for (int c = 0; c < kNumWidthClasses; ++c)
    EXPECT_EQ(twin.flops.flops[c], real.flops[c])
        << "width class " << c << " diverges";
}

TEST_P(TwinFlopP, TwinFootprintMatchesKernelWorkspace) {
  // The half-window case shares the expectation: emitting qavg_half adds
  // no kernel workspace.
  const auto [variant, order, half] = GetParam();
  const Isa isa = host_best_isa();
  StpKernel kernel =
      make_stp_kernel(CurvilinearElasticPde{}, variant, order, isa);
  CacheSim sim = CacheSim::skylake_sp();
  TwinResult twin = trace_stp(variant, order,
                              twin_pde<CurvilinearElasticPde>(), isa, sim, 0,
                              1, /*include_corrector=*/false, half);
  EXPECT_EQ(twin.workspace_bytes, kernel.workspace_bytes());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TwinFlopP,
    ::testing::Values(TwinCase{StpVariant::kGeneric, 3},
                      TwinCase{StpVariant::kGeneric, 6},
                      TwinCase{StpVariant::kLog, 3},
                      TwinCase{StpVariant::kLog, 6},
                      TwinCase{StpVariant::kLog, 9},
                      TwinCase{StpVariant::kSplitCk, 3},
                      TwinCase{StpVariant::kSplitCk, 6},
                      TwinCase{StpVariant::kSplitCk, 9},
                      TwinCase{StpVariant::kAosoaSplitCk, 3},
                      TwinCase{StpVariant::kAosoaSplitCk, 6},
                      TwinCase{StpVariant::kAosoaSplitCk, 9},
                      TwinCase{StpVariant::kGeneric, 3, true},
                      TwinCase{StpVariant::kLog, 6, true},
                      TwinCase{StpVariant::kSplitCk, 3, true},
                      TwinCase{StpVariant::kSplitCk, 6, true},
                      TwinCase{StpVariant::kAosoaSplitCk, 6, true},
                      TwinCase{StpVariant::kAosoaSplitCk, 9, true}));

template <class Pde>
void expect_twins_match_per_width_class(int order) {
  for (StpVariant v : kAllVariants) {
    // The rejected SoA-UF ablation variant has no trace twin.
    if (v == StpVariant::kSoaUfSplitCk) continue;
    const Isa isa = host_best_isa();
    FlopCounter real = real_kernel_flops<Pde>(v, order, isa);
    CacheSim sim = CacheSim::skylake_sp();
    TwinResult twin = trace_stp(v, order, twin_pde<Pde>(), isa, sim, 0, 1);
    for (int c = 0; c < kNumWidthClasses; ++c)
      EXPECT_EQ(twin.flops.flops[c], real.flops[c])
          << Pde::kName << " " << variant_name(v) << " width class " << c;
  }
}

TEST(TraceModel, AcousticAndElasticTwinsMatchPerWidthClass) {
  // Two more PDEs pin the parameterization (quants, flux/ncp flops, flux
  // row masks), and the per-class ledger pins where the line functions
  // run: at the kernel's ISA, which the AoSoA twin assumes.
  expect_twins_match_per_width_class<AcousticPde>(4);
  expect_twins_match_per_width_class<ElasticPde>(8);
}

/// Corrector FLOPs per cell of one global ADER step on a periodic mesh:
/// the solver's step ledger minus its predictor kernel calls.
template <class Pde>
FlopCounter solver_corrector_flops_per_cell(int order, Isa isa) {
  Pde pde;
  GridSpec spec;
  spec.cells = {2, 2, 2};
  auto runtime = std::make_shared<PdeAdapter<Pde>>(pde);
  StpKernel kernel = make_stp_kernel(pde, StpVariant::kSplitCk, order, isa);
  StpKernel probe = kernel.fork();
  AderDgSolver solver(runtime, std::move(kernel), spec);
  solver.set_initial_condition([](const std::array<double, 3>& x, double* q) {
    for (int s = 0; s < Pde::kQuants; ++s) q[s] = 1.0 + 0.1 * s + 0.01 * x[0];
  });
  FlopSection step;
  solver.step(solver.stable_dt());
  FlopCounter per_cell = step.delta();

  const std::size_t size = probe.layout().size();
  AlignedVector qavg(size), f0(size), f1(size), f2(size);
  StpOutputs out{qavg.data(), {f0.data(), f1.data(), f2.data()}, nullptr};
  FlopSection call;
  probe.run(solver.cell_dofs(0), 1e-3, solver.grid().inv_dx(), nullptr, out);
  const FlopCounter kernel_flops = call.delta();
  const int cells = solver.grid().num_cells();
  for (int c = 0; c < kNumWidthClasses; ++c)
    per_cell.flops[c] = (per_cell.flops[c] - cells * kernel_flops.flops[c]) /
                        static_cast<std::uint64_t>(cells);
  return per_cell;
}

template <class Pde>
void expect_corrector_matches_twin(int order) {
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!host_supports(isa)) continue;
    const FlopCounter solver = solver_corrector_flops_per_cell<Pde>(order, isa);
    CacheSim sim = CacheSim::skylake_sp();
    const TwinResult with = trace_stp(StpVariant::kSplitCk, order,
                                      twin_pde<Pde>(), isa, sim, 0, 1,
                                      /*include_corrector=*/true);
    const TwinResult without = trace_stp(StpVariant::kSplitCk, order,
                                         twin_pde<Pde>(), isa, sim, 0, 1,
                                         /*include_corrector=*/false);
    for (int c = 0; c < kNumWidthClasses; ++c)
      EXPECT_EQ(solver.flops[c], with.flops.flops[c] - without.flops.flops[c])
          << Pde::kName << " order " << order << " " << isa_name(isa)
          << " width class " << c;
    EXPECT_GT(solver.flops[static_cast<int>(packed_width_class(isa))], 0u)
        << "face work books at the dispatched width";
  }
}

TEST(TraceModel, CorrectorFlopsMatchTheSolverPerWidthClass) {
  expect_corrector_matches_twin<ElasticPde>(8);
  expect_corrector_matches_twin<AcousticPde>(4);
}

TEST(TraceModel, LogStallsExceedSplitCkAtHighOrder) {
  // The paper's central memory claim (Figs. 6/10): from order ~6 the LoG
  // kernel's working set overflows L2 and its stall fraction stays high,
  // while SplitCK's keeps decreasing.
  const TwinPde pde = twin_pde<CurvilinearElasticPde>();
  StallModel model;
  for (int order : {8, 10}) {
    CacheSim sim_log = CacheSim::skylake_sp();
    TwinResult log =
        trace_stp(StpVariant::kLog, order, pde, Isa::kAvx512, sim_log, 1, 2);
    CacheSim sim_sp = CacheSim::skylake_sp();
    TwinResult sp = trace_stp(StpVariant::kSplitCk, order, pde, Isa::kAvx512,
                              sim_sp, 1, 2);
    const double stall_log = model.stall_fraction(log.cache, log.flops.flops);
    const double stall_sp = model.stall_fraction(sp.cache, sp.flops.flops);
    EXPECT_GT(stall_log, stall_sp) << "order " << order;
  }
}

TEST(TraceModel, SplitCkStaysBoundedWhileLogEscalates) {
  // Paper Figs. 6/10: LoG's stalls jump when its space-time storage
  // overflows L2 (order ~6) and keep climbing, while SplitCK stays in a
  // bounded band across the whole sweep. (The paper's SplitCK curve
  // declines gently; this model holds it flat, so the test checks only that
  // it stays bounded.)
  const TwinPde pde = twin_pde<CurvilinearElasticPde>();
  StallModel model;
  auto stall = [&](StpVariant v, int order) {
    CacheSim sim = CacheSim::skylake_sp();
    TwinResult r = trace_stp(v, order, pde, Isa::kAvx512, sim, 1, 2, true);
    return model.stall_fraction(r.cache, r.flops.flops);
  };
  const double sp4 = stall(StpVariant::kSplitCk, 4);
  const double sp11 = stall(StpVariant::kSplitCk, 11);
  EXPECT_LT(std::abs(sp11 - sp4), 0.15) << "SplitCK band too wide";
  const double log4 = stall(StpVariant::kLog, 4);
  const double log11 = stall(StpVariant::kLog, 11);
  EXPECT_GT(log11 - log4, 0.15) << "LoG must escalate past the L2 overflow";
  EXPECT_GT(log11, sp11 + 0.15);
}

TEST(TraceModel, AosoaShowsOrder9PaddingBump) {
  // Sec. V-A: order 8 needs no x-line padding under AVX-512, order 9 pads
  // 9 -> 16; the extra traffic and FLOPs are visible as a stall bump.
  const TwinPde pde = twin_pde<CurvilinearElasticPde>();
  StallModel model;
  auto stall = [&](int order) {
    CacheSim sim = CacheSim::skylake_sp();
    TwinResult r = trace_stp(StpVariant::kAosoaSplitCk, order, pde,
                             Isa::kAvx512, sim, 1, 2, true);
    return model.stall_fraction(r.cache, r.flops.flops);
  };
  EXPECT_GT(stall(9), stall(8));
}

TEST(TraceModel, WarmupRepsAreExcludedFromStats) {
  const TwinPde pde = twin_pde<AcousticPde>();
  CacheSim sim1 = CacheSim::skylake_sp();
  TwinResult one = trace_stp(StpVariant::kSplitCk, 4, pde, Isa::kAvx512,
                             sim1, 0, 1);
  CacheSim sim2 = CacheSim::skylake_sp();
  TwinResult warm = trace_stp(StpVariant::kSplitCk, 4, pde, Isa::kAvx512,
                              sim2, 1, 1);
  // A warm workspace produces strictly fewer misses than a cold one.
  EXPECT_LT(warm.cache.misses[1] + warm.cache.misses[2],
            one.cache.misses[1] + one.cache.misses[2] + 1);
  EXPECT_EQ(warm.flops.total(), one.flops.total());
}

TEST(TraceModel, PreservesCallersFlopCounter) {
  FlopCounter::instance().reset();
  FlopCounter::instance().add(WidthClass::k256, 1234);
  CacheSim sim = CacheSim::skylake_sp();
  trace_stp(StpVariant::kLog, 4, twin_pde<AcousticPde>(), Isa::kAvx512, sim);
  EXPECT_EQ(FlopCounter::instance().flops[2], 1234u);
  FlopCounter::instance().reset();
}

TEST(TraceModel, RejectsBadArguments) {
  CacheSim sim = CacheSim::skylake_sp();
  EXPECT_THROW(trace_stp(StpVariant::kLog, 1, twin_pde<AcousticPde>(),
                         Isa::kAvx512, sim),
               std::invalid_argument);
  TwinPde empty;
  EXPECT_THROW(
      trace_stp(StpVariant::kLog, 4, empty, Isa::kAvx512, sim),
      std::invalid_argument);
}

}  // namespace
}  // namespace exastp

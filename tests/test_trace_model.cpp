// Tests for src/perf/access_recorder and src/perf/trace_model. A twin is
// the real kernel run with an access recorder, so its FLOPs and footprint
// are the kernel's by construction. What is left to check: recording
// changes no output bit and no FLOP, the recorder sees every byte the
// kernel owns, its statistics do not depend on where malloc puts the
// buffers, and the cache behaviour reproduces the paper's claims.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "exastp/engine/pde_registry.h"
#include "exastp/kernels/face.h"
#include "exastp/kernels/registry.h"
#include "exastp/pde/acoustic.h"
#include "exastp/pde/curvilinear_elastic.h"
#include "exastp/pde/elastic.h"
#include "exastp/perf/access_recorder.h"
#include "exastp/perf/trace_model.h"
#include "exastp/solver/ader_dg_solver.h"

namespace exastp {
namespace {

/// Buffers for every output the kernel contract offers.
struct FullRequest {
  explicit FullRequest(const AosLayout& aos) {
    for (int b = 0; b < 6; ++b) buffers[b].assign(aos.size(), -1.0);
    for (int b = 6; b < 8; ++b)
      buffers[b].assign(6 * FaceLayout(aos).size(), -1.0);
  }
  StpOutputs outputs() {
    StpOutputs out;
    out.qavg = buffers[0].data();
    for (int d = 0; d < 3; ++d) out.favg[d] = buffers[1 + d].data();
    out.qavg_half = buffers[4].data();
    out.qnew = buffers[5].data();
    out.traces = buffers[6].data();
    out.traces_half = buffers[7].data();
    return out;
  }
  std::array<AlignedVector, 8> buffers;
};

struct KernelCase {
  StpVariant variant;
  Precision precision;
  Isa isa;
  const char* pde = CurvilinearElasticPde::kName;
};

void PrintTo(const KernelCase& c, std::ostream* os) {
  *os << c.pde << "_" << variant_name(c.variant) << "_"
      << precision_name(c.precision) << "_" << isa_name(c.isa);
}

/// Every variant in fp64 and the SplitCK family in fp32, at every ISA the
/// host runs (the generic kernel has one scalar code path), on the
/// curvilinear PDE; then the AoSoA kernel on two PDEs whose NCP is zero
/// (the perfbench workloads' elastic fp64 and acoustic fp32), which must
/// not allocate workspace for the NCP stage they skip.
std::vector<KernelCase> host_kernel_cases() {
  std::vector<KernelCase> cases;
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!host_supports(isa)) continue;
    for (StpVariant v : kAllVariants)
      if (v != StpVariant::kGeneric || isa == Isa::kScalar)
        cases.push_back({v, Precision::kF64, isa});
    for (StpVariant v : {StpVariant::kSplitCk, StpVariant::kAosoaSplitCk})
      cases.push_back({v, Precision::kF32, isa});
  }
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!host_supports(isa)) continue;
    cases.push_back({StpVariant::kAosoaSplitCk, Precision::kF64, isa,
                     ElasticPde::kName});
    cases.push_back({StpVariant::kAosoaSplitCk, Precision::kF32, isa,
                     AcousticPde::kName});
  }
  return cases;
}

StpKernel make_case_kernel(const KernelCase& c, int order) {
  return find_pde(c.pde)->make_kernel(c.variant, order, c.isa,
                                      NodeFamily::kGaussLegendre,
                                      c.precision);
}

/// An admissible state of the case's PDE on the kernel's layout: a wave
/// pattern on the registry's default parameters; the curvilinear PDE gets
/// a mild curvature, so no metric entry is trivially one or zero.
AlignedVector case_cell(const KernelCase& c, const AosLayout& aos) {
  using Curvilinear = CurvilinearElasticPde;
  const auto factory = find_pde(c.pde);
  const int vars = factory->info().vars;
  const bool curvilinear = std::string(c.pde) == Curvilinear::kName;
  AlignedVector q(aos.size(), 0.0);
  const int n = aos.n;
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1) {
        double* node = q.data() + aos.idx(k3, k2, k1, 0);
        for (int s = 0; s < vars; ++s)
          node[s] = 0.01 * ((k1 + 2 * k2 + 3 * k3 + s) % 17) - 0.08;
        factory->default_parameters(node);
        if (curvilinear) {
          node[Curvilinear::kCs] = 3.4;
          node[Curvilinear::kMetric + 1] = 0.05;
        }
      }
  return q;
}

constexpr double kDt = 1e-3;
const std::array<double, 3> kInvDx{4.0, 4.0, 4.0};

class RecorderP : public ::testing::TestWithParam<KernelCase> {};

TEST_P(RecorderP, RecordingChangesNoOutputBitAndNoFlop) {
  const KernelCase c = GetParam();
  for (int order = 2; order <= 11; ++order) {
    const StpKernel kernel = make_case_kernel(c, order);
    const AlignedVector q = case_cell(c, kernel.layout());
    FullRequest plain(kernel.layout()), recorded(kernel.layout());

    FlopSection plain_section;
    kernel.run(q.data(), kDt, kInvDx, nullptr, plain.outputs());
    const FlopCounter plain_flops = plain_section.delta();

    CacheSim sim = CacheSim::skylake_sp();
    AccessRecorder recorder;
    recorder.attach(sim);
    FlopCounter recorded_flops;
    {
      const AccessRecorder::Scope scope(recorder);
      FlopSection section;
      kernel.run(q.data(), kDt, kInvDx, nullptr, recorded.outputs());
      recorded_flops = section.delta();
    }
    EXPECT_GT(sim.stats().accesses, 0u) << "order " << order;
    for (std::size_t b = 0; b < plain.buffers.size(); ++b)
      EXPECT_EQ(std::memcmp(plain.buffers[b].data(),
                            recorded.buffers[b].data(),
                            plain.buffers[b].size() * sizeof(double)),
                0)
          << "order " << order << " output " << b;
    for (int w = 0; w < kNumWidthClasses; ++w)
      EXPECT_EQ(recorded_flops.flops[w], plain_flops.flops[w])
          << "order " << order << " width class " << w;
  }
}

TEST_P(RecorderP, OneCallCoversTheWorkspaceAndTheRequest) {
  // The recorder must see every byte of the request's buffers and at least
  // workspace_bytes() beyond them; the rest it sees is the derivative
  // operators (D and the AoSoA kernel's padded D^T). A workspace tensor
  // that a kernel touches only through an unhooked loop fails this.
  const KernelCase c = GetParam();
  for (int order : {2, 5, 8, 9, 11}) {
    const StpKernel kernel = make_case_kernel(c, order);
    const AlignedVector q = case_cell(c, kernel.layout());
    FullRequest request(kernel.layout());
    kernel.run(q.data(), kDt, kInvDx, nullptr, request.outputs());

    AccessRecorder recorder;
    {
      const AccessRecorder::Scope scope(recorder);
      kernel.run(q.data(), kDt, kInvDx, nullptr, request.outputs());
    }
    std::size_t io = 0;
    std::vector<const AlignedVector*> buffers{&q};
    for (const AlignedVector& b : request.buffers) buffers.push_back(&b);
    for (const AlignedVector* b : buffers) {
      const std::size_t bytes = b->size() * sizeof(double);
      EXPECT_EQ(recorder.distinct_bytes_in(b->data(), bytes), bytes)
          << "order " << order;
      io += bytes;
    }
    const std::size_t beyond = recorder.distinct_bytes() - io;
    const std::size_t operators =
        (static_cast<std::size_t>(order) * order +
         static_cast<std::size_t>(order) * pad_to(order, 8)) *
        sizeof(double);
    EXPECT_GE(beyond, kernel.workspace_bytes()) << "order " << order;
    EXPECT_LE(beyond, kernel.workspace_bytes() + operators)
        << "order " << order;
  }
}

INSTANTIATE_TEST_SUITE_P(HostKernels, RecorderP,
                         ::testing::ValuesIn(host_kernel_cases()));

TEST(AccessRecorder, LaysBuffersOutInFirstTouchOrder) {
  // The same access pattern on buffers at unrelated addresses gives the
  // same statistics; the distinct bytes merge overlapping and adjacent
  // ranges; and a buffer first touched in alternation with another still
  // reaches the simulator as one stream per sweep.
  auto run = [](bool swapped) {
    std::vector<std::unique_ptr<AlignedVector>> heap;
    heap.push_back(std::make_unique<AlignedVector>(swapped ? 3000 : 70));
    heap.push_back(std::make_unique<AlignedVector>(4096));
    heap.push_back(std::make_unique<AlignedVector>(swapped ? 10 : 5000));
    heap.push_back(std::make_unique<AlignedVector>(4096));
    const AlignedVector& a = *heap[swapped ? 3 : 1];
    const AlignedVector& b = *heap[swapped ? 1 : 3];
    auto pattern = [&](AccessRecorder& recorder) {
      for (int r = 0; r < 64; ++r) {
        recorder.range(b.data() + 64 * r, 24);
        recorder.range(a.data() + 64 * r, 64);
      }
      recorder.range(a.data(), 2000);
      recorder.strided(b.data() + 3, 16, 8, 256);
      recorder.range(a.data(), 4096);
    };
    AccessRecorder recorder;
    pattern(recorder);
    EXPECT_EQ(recorder.distinct_bytes(), (4096 + 64 * 24) * 8u);
    EXPECT_EQ(recorder.distinct_bytes_in(b.data(), 64 * 8), 24 * 8u);
    CacheSim sim = CacheSim::skylake_sp();
    recorder.attach(sim);
    pattern(recorder);
    const CacheStats before = sim.stats();
    recorder.range(a.data(), 4096);
    const CacheStats sweep = sim.stats();
    // a's 512 lines were learned as one interval: one stream, at most one
    // demand head.
    EXPECT_EQ(sweep.accesses - before.accesses, 512u);
    EXPECT_LE(sweep.demand_misses[0] - before.demand_misses[0], 1u);
    return sim.stats();
  };
  const CacheStats first = run(false), second = run(true);
  EXPECT_GT(first.accesses, 0u);
  EXPECT_EQ(first.accesses, second.accesses);
  EXPECT_EQ(first.misses, second.misses);
  EXPECT_EQ(first.demand_misses, second.demand_misses);
}

TEST(TraceModel, TwinStatsDoNotDependOnTheHeap) {
  // Two twins of one configuration in one process, with unrelated
  // allocations between them (so every kernel and request buffer lands
  // elsewhere), give equal statistics.
  const PdeAdapter<CurvilinearElasticPde> pde;
  const Isa isa = host_best_isa();
  for (StpVariant v : {StpVariant::kLog, StpVariant::kAosoaSplitCk,
                       StpVariant::kSoaUfSplitCk}) {
    std::vector<TwinResult> runs;
    std::vector<std::unique_ptr<AlignedVector>> heap;
    for (int r = 0; r < 2; ++r) {
      heap.push_back(std::make_unique<AlignedVector>(1000 + 7777 * r));
      const StpKernel kernel =
          make_stp_kernel(CurvilinearElasticPde{}, v, 6, isa);
      heap.push_back(std::make_unique<AlignedVector>(333 * (r + 1)));
      CacheSim sim = CacheSim::skylake_sp();
      runs.push_back(trace_stp(kernel, pde, sim, 1, 1, true, true));
    }
    EXPECT_GT(runs[0].cache.accesses, 0u);
    EXPECT_EQ(runs[0].cache.accesses, runs[1].cache.accesses)
        << variant_name(v);
    EXPECT_EQ(runs[0].cache.misses, runs[1].cache.misses) << variant_name(v);
    EXPECT_EQ(runs[0].cache.demand_misses, runs[1].cache.demand_misses)
        << variant_name(v);
  }
}

/// Corrector FLOPs per cell of one global ADER step on a periodic mesh:
/// the solver's step ledger minus its predictor kernel calls, each counted
/// as a kernel probe (favg request). What is left is the volume update,
/// which the kernel books over its working layout, and the face work.
template <class Pde>
FlopCounter solver_corrector_flops_per_cell(StpVariant variant,
                                            Precision precision, int order,
                                            Isa isa) {
  Pde pde;
  GridSpec spec;
  spec.cells = {2, 2, 2};
  auto runtime = std::make_shared<PdeAdapter<Pde>>(pde);
  StpKernel kernel = make_stp_kernel(pde, variant, order, isa,
                                     NodeFamily::kGaussLegendre, precision);
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

/// A twin runs the solver's request with the corrector and a kernel
/// probe's without, so their difference must be the solver's corrector
/// ledger above, in both precisions.
template <class Pde>
void expect_corrector_matches_twin(int order) {
  const std::pair<StpVariant, Precision> cases[] = {
      {StpVariant::kSplitCk, Precision::kF64},
      {StpVariant::kAosoaSplitCk, Precision::kF64},
      {StpVariant::kAosoaSplitCk, Precision::kF32}};
  const PdeAdapter<Pde> runtime;
  for (const auto& [variant, precision] : cases)
    for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
      if (!host_supports(isa)) continue;
      const FlopCounter solver = solver_corrector_flops_per_cell<Pde>(
          variant, precision, order, isa);
      const StpKernel kernel =
          make_stp_kernel(Pde{}, variant, order, isa,
                          NodeFamily::kGaussLegendre, precision);
      CacheSim sim = CacheSim::skylake_sp();
      const TwinResult with = trace_stp(kernel, runtime, sim, 0, 1,
                                        /*include_corrector=*/true);
      const TwinResult without = trace_stp(kernel, runtime, sim, 0, 1,
                                           /*include_corrector=*/false);
      for (int c = 0; c < kNumWidthClasses; ++c)
        EXPECT_EQ(solver.flops[c],
                  with.flops.flops[c] - without.flops.flops[c])
            << Pde::kName << " order " << order << " " << variant_name(variant)
            << " " << precision_name(precision) << " " << isa_name(isa)
            << " width class " << c;
      EXPECT_GT(solver.flops[static_cast<int>(packed_width_class(isa))], 0u)
          << "face work books at the dispatched width";
    }
}

TEST(TraceModel, CorrectorFlopsMatchTheSolverPerWidthClass) {
  expect_corrector_matches_twin<ElasticPde>(8);
  expect_corrector_matches_twin<AcousticPde>(4);
}

/// Stall fraction of the AVX-512 curvilinear-elastic twin (the paper's
/// benchmark kernels), one warmup and two measured calls.
double avx512_stall(StpVariant v, int order, bool corrector) {
  const StpKernel kernel =
      make_stp_kernel(CurvilinearElasticPde{}, v, order, Isa::kAvx512);
  CacheSim sim = CacheSim::skylake_sp();
  const TwinResult r = trace_stp(kernel, PdeAdapter<CurvilinearElasticPde>(),
                                 sim, 1, 2, corrector);
  return StallModel{}.stall_fraction(r.cache, r.flops.flops);
}

TEST(TraceModel, LogStallsExceedSplitCkAtHighOrder) {
  // The paper's central memory claim (Figs. 6/10): from order ~6 the LoG
  // kernel's working set overflows L2 and its stall fraction stays high,
  // while SplitCK's keeps decreasing.
  if (!host_supports(Isa::kAvx512)) GTEST_SKIP() << "needs AVX-512";
  for (int order : {8, 10})
    EXPECT_GT(avx512_stall(StpVariant::kLog, order, false),
              avx512_stall(StpVariant::kSplitCk, order, false))
        << "order " << order;
}

TEST(TraceModel, SplitCkStaysBoundedWhileLogEscalates) {
  // Paper Figs. 6/10: LoG's stalls jump when its space-time storage
  // overflows L2 (order ~6) and keep climbing, while SplitCK stays in a
  // bounded band across the whole sweep. (The paper's SplitCK curve
  // declines gently; this model holds it flat, so the test checks only that
  // it stays bounded.)
  if (!host_supports(Isa::kAvx512)) GTEST_SKIP() << "needs AVX-512";
  const double sp4 = avx512_stall(StpVariant::kSplitCk, 4, true);
  const double sp11 = avx512_stall(StpVariant::kSplitCk, 11, true);
  EXPECT_LT(std::abs(sp11 - sp4), 0.15) << "SplitCK band too wide";
  const double log4 = avx512_stall(StpVariant::kLog, 4, true);
  const double log11 = avx512_stall(StpVariant::kLog, 11, true);
  EXPECT_GT(log11 - log4, 0.15) << "LoG must escalate past the L2 overflow";
  EXPECT_GT(log11, sp11 + 0.15);
}

TEST(TraceModel, AosoaShowsOrder9PaddingBump) {
  // Sec. V-A: order 8 needs no x-line padding under AVX-512, order 9 pads
  // 9 -> 16; the extra traffic and FLOPs are visible as a stall bump.
  if (!host_supports(Isa::kAvx512)) GTEST_SKIP() << "needs AVX-512";
  EXPECT_GT(avx512_stall(StpVariant::kAosoaSplitCk, 9, true),
            avx512_stall(StpVariant::kAosoaSplitCk, 8, true));
}

TEST(TraceModel, WarmupRepsAreExcludedFromStats) {
  const StpKernel kernel = make_stp_kernel(
      AcousticPde{}, StpVariant::kSplitCk, 4, host_best_isa());
  const PdeAdapter<AcousticPde> pde;
  CacheSim sim1 = CacheSim::skylake_sp();
  TwinResult one = trace_stp(kernel, pde, sim1, 0, 1);
  CacheSim sim2 = CacheSim::skylake_sp();
  TwinResult warm = trace_stp(kernel, pde, sim2, 1, 1);
  // A warm workspace produces strictly fewer misses than a cold one.
  EXPECT_LT(warm.cache.misses[1] + warm.cache.misses[2],
            one.cache.misses[1] + one.cache.misses[2] + 1);
  EXPECT_EQ(warm.flops.total(), one.flops.total());
}

TEST(TraceModel, PreservesCallersFlopCounter) {
  FlopCounter::instance().reset();
  FlopCounter::instance().add(WidthClass::k256, 1234);
  const StpKernel kernel =
      make_stp_kernel(AcousticPde{}, StpVariant::kLog, 4, host_best_isa());
  CacheSim sim = CacheSim::skylake_sp();
  const TwinResult r = trace_stp(kernel, PdeAdapter<AcousticPde>(), sim);
  EXPECT_GT(r.flops.total(), 0u);
  EXPECT_EQ(FlopCounter::instance().flops[2], 1234u);
  EXPECT_EQ(FlopCounter::instance().total(), 1234u);
  EXPECT_EQ(AccessRecorder::thread_instance(), nullptr);
  FlopCounter::instance().reset();
}

TEST(TraceModel, RejectsBadArguments) {
  CacheSim sim = CacheSim::skylake_sp();
  const PdeAdapter<AcousticPde> acoustic;
  const StpKernel kernel =
      make_stp_kernel(AcousticPde{}, StpVariant::kLog, 4, host_best_isa());
  EXPECT_THROW(trace_stp(kernel, acoustic, sim, 1, 0),
               std::invalid_argument);
  EXPECT_THROW(trace_stp(StpKernel{}, acoustic, sim), std::invalid_argument);
  EXPECT_THROW(trace_stp(kernel, PdeAdapter<ElasticPde>(), sim),
               std::invalid_argument);
}

}  // namespace
}  // namespace exastp

// Mixed-precision kernel path: the fp32-storage / fp64-accumulation scheme
// (docs/precision.md).
//
// Under test:
//   * precision parsing and naming round trips,
//   * the registry contract — only the SplitCK-family production kernels
//     carry an fp32 path; every other variant (and the rk4 stepper) rejects
//     precision=fp32 with a clear error,
//   * fp32 kernel outputs stay within fp32 rounding of the fp64 outputs on
//     a smooth state,
//   * the fp32 half-window output (StpOutputs::qavg_half) is bit-identical
//     to a separate dt/2 run and leaves qavg/favg bit-identical,
//   * the fp32 volume update (StpOutputs::qnew) is the solver's loop over
//     the returned favg, bit for bit, whatever else is requested,
//   * end-to-end per-order convergence of precision=fp32 runs against the
//     thresholds documented in docs/precision.md (acoustic plane wave and
//     the Maxwell TE101 cavity eigenmode),
//   * bitwise thread/shard invariance of the fp32 path (the same acceptance
//     matrix the fp64 solver passes; carries the threaded+sharded labels),
//   * the kernel cache keys prototypes by precision.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "exastp/engine/kernel_cache.h"
#include "exastp/engine/simulation.h"
#include "exastp/kernels/registry.h"
#include "exastp/pde/acoustic.h"
#include "exastp/pde/curvilinear_elastic.h"
#include "exastp/pde/elastic.h"
#include "exastp/tensor/transpose.h"
#include "stp_request_check.h"

namespace exastp {
namespace {

TEST(Precision, NamesAndParsingRoundTrip) {
  EXPECT_EQ(precision_name(Precision::kF64), "fp64");
  EXPECT_EQ(precision_name(Precision::kF32), "fp32");
  EXPECT_EQ(parse_precision("fp64"), Precision::kF64);
  EXPECT_EQ(parse_precision("double"), Precision::kF64);
  EXPECT_EQ(parse_precision("fp32"), Precision::kF32);
  EXPECT_EQ(parse_precision("float"), Precision::kF32);
  EXPECT_EQ(parse_precision("single"), Precision::kF32);
  EXPECT_THROW(parse_precision("fp16"), std::invalid_argument);
}

TEST(Precision, OnlySplitCkFamilyBuildsF32Kernels) {
  for (StpVariant v : {StpVariant::kSplitCk, StpVariant::kAosoaSplitCk}) {
    StpKernel kernel = make_stp_kernel(AcousticPde{}, v, 4, Isa::kScalar,
                                       NodeFamily::kGaussLegendre,
                                       Precision::kF32);
    EXPECT_EQ(kernel.precision(), Precision::kF32) << variant_name(v);
    // Thread clones inherit the precision.
    EXPECT_EQ(kernel.fork().precision(), Precision::kF32) << variant_name(v);
  }
  for (StpVariant v : {StpVariant::kGeneric, StpVariant::kLog,
                       StpVariant::kSoaUfSplitCk}) {
    EXPECT_THROW(make_stp_kernel(AcousticPde{}, v, 4, Isa::kScalar,
                                 NodeFamily::kGaussLegendre, Precision::kF32),
                 std::invalid_argument)
        << variant_name(v);
  }
  // Default precision stays the paper's fp64 baseline.
  EXPECT_EQ(
      make_stp_kernel(AcousticPde{}, StpVariant::kSplitCk, 4, Isa::kScalar)
          .precision(),
      Precision::kF64);
}

TEST(Precision, RkSteppersRejectF32) {
  EXPECT_THROW(Simulation::from_args({"scenario=planewave", "stepper=rk4",
                                      "precision=fp32", "order=3",
                                      "t_end=0.01"}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Kernel-level fp64 vs fp32 comparison on a smooth state.

// Smooth nodal state with gently varying material/geometry parameters
// (same construction as test_kernels.cpp, reduced to the three PDEs used
// here).
template <class Pde>
std::vector<double> smooth_cell_state(int n) {
  const auto& basis = basis_tables(n);
  std::vector<double> q(static_cast<std::size_t>(n) * n * n * Pde::kQuants);
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1) {
        const double x = basis.nodes[k1], y = basis.nodes[k2],
                     z = basis.nodes[k3];
        double* node =
            q.data() +
            ((static_cast<std::size_t>(k3) * n + k2) * n + k1) * Pde::kQuants;
        for (int s = 0; s < Pde::kVars; ++s)
          node[s] = std::sin(2.0 * x + s) * std::cos(1.5 * y - 0.3 * s) +
                    0.25 * z;
        if constexpr (std::is_same_v<Pde, AcousticPde>) {
          node[AcousticPde::kRho] = 1.2 + 0.1 * x;
          node[AcousticPde::kC] = 2.0 + 0.2 * y;
        } else if constexpr (std::is_same_v<Pde, ElasticPde>) {
          node[ElasticPde::kRho] = 2.6 + 0.1 * z;
          node[ElasticPde::kCp] = 6.0 + 0.2 * x;
          node[ElasticPde::kCs] = 3.4 + 0.1 * y;
        } else if constexpr (std::is_same_v<Pde, CurvilinearElasticPde>) {
          node[CurvilinearElasticPde::kRho] = 2.6 + 0.1 * z;
          node[CurvilinearElasticPde::kCp] = 6.0 + 0.2 * x;
          node[CurvilinearElasticPde::kCs] = 3.4 + 0.1 * y;
          for (int r = 0; r < 3; ++r)
            for (int c = 0; c < 3; ++c)
              node[CurvilinearElasticPde::kMetric + 3 * r + c] =
                  (r == c ? 1.0 : 0.0) + 0.05 * std::sin(x + y + z + r + c);
        }
      }
  return q;
}

struct StpResult {
  std::vector<double> qavg;
  std::array<std::vector<double>, 3> favg;
};

template <class Pde>
StpResult run_stp(Pde pde, StpVariant variant, int order, Isa isa,
                  Precision precision, const std::vector<double>& state) {
  const double h = 0.25;
  const std::array<double, 3> inv_dx{1.0 / h, 1.0 / h, 1.0 / h};
  const double dt = 0.2 * h / (10.0 * order * order);
  StpKernel kernel = make_stp_kernel(pde, variant, order, isa,
                                     NodeFamily::kGaussLegendre, precision);
  const AosLayout& aos = kernel.layout();
  AlignedVector q(aos.size()), qavg(aos.size());
  std::array<AlignedVector, 3> favg;
  for (auto& f : favg) f.assign(aos.size(), 0.0);
  pad_aos(state.data(), order, Pde::kQuants, q.data(), aos);
  StpOutputs out{qavg.data(),
                 {favg[0].data(), favg[1].data(), favg[2].data()}};
  kernel.run(q.data(), dt, inv_dx, nullptr, out);
  StpResult r;
  const std::size_t tight =
      static_cast<std::size_t>(order) * order * order * Pde::kQuants;
  r.qavg.resize(tight);
  unpad_aos(qavg.data(), aos, Pde::kQuants, r.qavg.data());
  for (int d = 0; d < 3; ++d) {
    r.favg[d].resize(tight);
    unpad_aos(favg[d].data(), aos, Pde::kQuants, r.favg[d].data());
  }
  return r;
}

double max_abs(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

void expect_close(const std::vector<double>& a, const std::vector<double>& b,
                  double rel_tol, const std::string& what) {
  ASSERT_EQ(a.size(), b.size());
  const double scale = std::max({max_abs(a), max_abs(b), 1e-30});
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_NEAR(a[i], b[i], rel_tol * scale)
        << what << " at index " << i << " (scale " << scale << ")";
}

template <class Pde>
void expect_f32_matches_f64(StpVariant variant, int order) {
  auto state = smooth_cell_state<Pde>(order);
  auto f64 = run_stp(Pde{}, variant, order, Isa::kScalar, Precision::kF64,
                     state);
  auto f32 = run_stp(Pde{}, variant, order, Isa::kScalar, Precision::kF32,
                     state);
  // fp32 rounding (eps ~ 1.2e-7) accumulated over the order-deep CK
  // recursion; 1e-5 relative leaves an order of magnitude of headroom.
  const double tol = 1e-5;
  const std::string tag =
      std::string(Pde::kName) + "/" + variant_name(variant);
  expect_close(f64.qavg, f32.qavg, tol, tag + " qavg");
  for (int d = 0; d < 3; ++d)
    expect_close(f64.favg[d], f32.favg[d], tol,
                 tag + " favg[" + std::to_string(d) + "]");
}

TEST(Precision, F32TracksF64OnSmoothState) {
  expect_f32_matches_f64<AcousticPde>(StpVariant::kSplitCk, 5);
  expect_f32_matches_f64<AcousticPde>(StpVariant::kAosoaSplitCk, 5);
  expect_f32_matches_f64<CurvilinearElasticPde>(StpVariant::kSplitCk, 4);
  expect_f32_matches_f64<CurvilinearElasticPde>(StpVariant::kAosoaSplitCk, 4);
}

// ---------------------------------------------------------------------------
// fp32 half window: the float accumulator and the AoSoA staging it leaves
// through are shared with other outputs, so check that the sharing leaves
// no trace in them.

constexpr double kUnwritten = -7.25e300;

struct PaddedOutputs {
  AlignedVector qavg, half;
  std::array<AlignedVector, 3> favg;
};

PaddedOutputs run_padded(const StpKernel& kernel, const AlignedVector& q,
                         double dt, const SourceTerm* source, bool with_half) {
  const std::size_t size = kernel.layout().size();
  PaddedOutputs r;
  r.qavg.assign(size, kUnwritten);
  r.half.assign(size, kUnwritten);
  for (auto& f : r.favg) f.assign(size, kUnwritten);
  StpOutputs out{r.qavg.data(),
                 {r.favg[0].data(), r.favg[1].data(), r.favg[2].data()},
                 with_half ? r.half.data() : nullptr};
  kernel.run(q.data(), dt, {4.0, 5.0, 6.0}, source, out);
  return r;
}

bool same_bits(const AlignedVector& a, const AlignedVector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Precision, F32HalfWindowIsADtOverTwoRunFromTheSamePass) {
  using Pde = CurvilinearElasticPde;
  const int n = 5;
  const double dt = 2e-3;
  const auto state = smooth_cell_state<Pde>(n);
  PolynomialWavelet wavelet({1.5, -0.5, 0.25, 2.0});
  AlignedVector psi =
      project_point_source(basis_tables(n), {0.3, 0.6, 0.4}, 1.0);
  SourceTerm src;
  src.psi = psi.data();
  src.quantity = 1;
  for (int o = 0; o <= n; ++o)
    src.dt_derivatives[o] = wavelet.derivative(0.1, o);

  for (StpVariant v : {StpVariant::kSplitCk, StpVariant::kAosoaSplitCk}) {
    StpKernel kernel = make_stp_kernel(Pde{}, v, n, host_best_isa(),
                                       NodeFamily::kGaussLegendre,
                                       Precision::kF32);
    const AosLayout& aos = kernel.layout();
    AlignedVector q(aos.size(), 0.0);
    pad_aos(state.data(), n, Pde::kQuants, q.data(), aos);
    for (const SourceTerm* source :
         {static_cast<const SourceTerm*>(nullptr),
          static_cast<const SourceTerm*>(&src)}) {
      const std::string tag = variant_name(v) +
                              (source != nullptr ? " point source" : "");
      const PaddedOutputs plain = run_padded(kernel, q, dt, source, false);
      const PaddedOutputs both = run_padded(kernel, q, dt, source, true);
      const PaddedOutputs half_run =
          run_padded(kernel, q, 0.5 * dt, source, false);
      EXPECT_TRUE(same_bits(both.qavg, plain.qavg)) << tag << " qavg";
      for (int d = 0; d < 3; ++d)
        EXPECT_TRUE(same_bits(both.favg[d], plain.favg[d]))
            << tag << " favg[" << d << "]";
      EXPECT_TRUE(same_bits(both.half, half_run.qavg)) << tag << " qavg_half";
      EXPECT_FALSE(same_bits(both.half, both.qavg)) << tag;
      // Padding lanes are zero; parameter rows pass through from q, as
      // stored in fp32.
      const std::size_t nodes = static_cast<std::size_t>(n) * n * n;
      for (std::size_t k = 0; k < nodes; ++k)
        for (int s = Pde::kVars; s < aos.m_pad; ++s) {
          const std::size_t i = k * aos.m_pad + s;
          const double want =
              s < aos.m ? static_cast<double>(static_cast<float>(q[i])) : 0.0;
          ASSERT_EQ(both.half[i], want)
              << tag << " node " << k << " row " << s;
        }
    }
  }
}

// fp32 volume update: qnew sums the double entry state and the widened
// favg in double, so it is the solver's loop over the returned favg, bit
// for bit, whatever else is requested (stp_request_check.h).
TEST(Precision, F32QnewIsTheSolversUpdateWhateverElseIsRequested) {
  for (StpVariant v : {StpVariant::kSplitCk, StpVariant::kAosoaSplitCk}) {
    request_check::expect_qnew_contract_matrix<CurvilinearElasticPde>(
        v, Precision::kF32, smooth_cell_state<CurvilinearElasticPde>);
    request_check::expect_qnew_contract_matrix<ElasticPde>(
        v, Precision::kF32, smooth_cell_state<ElasticPde>);
  }
}

// ---------------------------------------------------------------------------
// End-to-end convergence of precision=fp32 runs.
//
// The per-order L2-error bounds below are the acceptance thresholds of
// docs/precision.md ("Accuracy acceptance" tables) — measured fp64 errors
// with ~1.5-2x headroom, which the fp32 runs meet because the fp32 rounding
// floor sits far below the discretization error at these orders. Keep the
// two files in sync.

double l2_error_of(const std::vector<std::string>& args) {
  Simulation sim = Simulation::from_args(args);
  sim.run();
  EXPECT_TRUE(sim.has_exact_solution());
  return sim.l2_error();
}

TEST(Precision, F32AcousticPlaneWaveConverges) {
  // scenario defaults: cells=3x3x3, extent=1, t_end=0.25.
  const std::map<int, double> threshold{
      {3, 3e-2}, {4, 4e-3}, {5, 5e-4}, {6, 5e-5}};
  for (const auto& [order, bound] : threshold) {
    const double err = l2_error_of({"scenario=planewave", "variant=splitck",
                                    "precision=fp32",
                                    "order=" + std::to_string(order)});
    EXPECT_LT(err, bound) << "order " << order;
  }
}

TEST(Precision, F32MaxwellCavityConverges) {
  const std::map<int, double> threshold{{3, 3e-3}, {4, 2e-4}, {5, 1e-5}};
  for (const auto& [order, bound] : threshold) {
    const double err = l2_error_of({"scenario=maxwell_cavity",
                                    "variant=aosoa_splitck",
                                    "precision=fp32", "t_end=0.5",
                                    "order=" + std::to_string(order)});
    EXPECT_LT(err, bound) << "order " << order;
  }
}

TEST(Precision, F32ErrorMatchesF64AtModerateOrder) {
  const std::vector<std::string> base{"scenario=planewave",
                                      "variant=aosoa_splitck", "order=4"};
  auto with_precision = [&](const std::string& p) {
    std::vector<std::string> args = base;
    args.push_back("precision=" + p);
    return l2_error_of(args);
  };
  const double e64 = with_precision("fp64");
  const double e32 = with_precision("fp32");
  // Discretization-error dominated: fp32 must agree to a fraction of a
  // percent (measured agreement is ~5 significant digits).
  EXPECT_NEAR(e32, e64, 1e-2 * e64);
}

// ---------------------------------------------------------------------------
// Bitwise thread/shard invariance of the fp32 path.

double max_dof_difference(const SolverBase& a, const SolverBase& b) {
  EXPECT_EQ(a.grid().num_cells(), b.grid().num_cells());
  EXPECT_EQ(a.layout().size(), b.layout().size());
  double worst = 0.0;
  for (int c = 0; c < a.grid().num_cells(); ++c) {
    const double* qa = a.cell_dofs(c);
    const double* qb = b.cell_dofs(c);
    for (std::size_t i = 0; i < a.layout().size(); ++i)
      worst = std::max(worst, std::abs(qa[i] - qb[i]));
  }
  return worst;
}

Simulation run_with(const std::vector<std::string>& args,
                    const std::vector<std::string>& extra) {
  std::vector<std::string> full = args;
  full.insert(full.end(), extra.begin(), extra.end());
  Simulation sim = Simulation::from_args(full);
  sim.run();
  return sim;
}

TEST(Precision, F32ThreadAndShardBitwiseInvariance) {
  const std::vector<std::string> base{
      "scenario=planewave", "variant=aosoa_splitck", "precision=fp32",
      "order=4",            "cells=4x4x2",           "t_end=0.1"};
  Simulation mono = run_with(base, {"shards=1", "threads=1"});
  EXPECT_EQ(mono.solver().num_shards(), 1);
  const std::vector<std::pair<std::string, int>> cases{
      {"1", 4}, {"2x1x1", 1}, {"2x2x1", 4}};
  for (const auto& [shards, threads] : cases) {
    Simulation other = run_with(
        base, {"shards=" + shards, "threads=" + std::to_string(threads)});
    EXPECT_EQ(mono.solver().time(), other.solver().time());
    EXPECT_EQ(max_dof_difference(mono.solver(), other.solver()), 0.0)
        << "shards=" << shards << " threads=" << threads
        << " diverged from the monolithic fp32 run";
    EXPECT_EQ(mono.l2_error(), other.l2_error())
        << "shards=" << shards << " threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Kernel cache keys by precision.

TEST(Precision, KernelCacheKeysByPrecision) {
  auto pde = find_pde("advection");
  ASSERT_TRUE(pde);
  // An (advection, splitck, order=2) prototype is not used anywhere else in
  // this binary, so the first request of each precision must be a miss and
  // repeats must be hits.
  reset_kernel_cache_stats();
  const auto request = [&](Precision p) {
    return cached_stp_kernel(*pde, StpVariant::kSplitCk, 2, Isa::kScalar,
                             NodeFamily::kGaussLegendre, p);
  };
  StpKernel f64 = request(Precision::kF64);
  EXPECT_EQ(f64.precision(), Precision::kF64);
  StpKernel f32 = request(Precision::kF32);
  EXPECT_EQ(f32.precision(), Precision::kF32);
  KernelCacheStats s = kernel_cache_stats();
  EXPECT_EQ(s.misses, 2) << "fp64 and fp32 must build distinct prototypes";
  EXPECT_EQ(s.hits, 0);
  request(Precision::kF64);
  request(Precision::kF32);
  s = kernel_cache_stats();
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.hits, 2);
}

}  // namespace
}  // namespace exastp

// Deterministic reproduction tests for the paper's Fig. 9 claims, asserted
// on the dynamic FLOP-classification counters of real kernel runs (no
// timing involved, so these are stable under CI load):
//
//   * Generic: most FLOPs scalar, small auto-vectorized share.
//   * LoG / SplitCK: > 80% packed, ~10% scalar tail from the pointwise user
//     functions.
//   * AoSoA SplitCK: scalar share down to a few percent (paper: 2-4%),
//     for every PDE, since all line functions run at the kernel's ISA.
//   * AVX2 builds pack at 256 bits, AVX-512 builds at 512.
#include <gtest/gtest.h>

#include <type_traits>

#include "exastp/kernels/registry.h"
#include "exastp/pde/acoustic.h"
#include "exastp/pde/advection.h"
#include "exastp/pde/curvilinear_elastic.h"
#include "exastp/pde/elastic.h"
#include "exastp/pde/maxwell.h"
#include "exastp/perf/instr_mix.h"
#include "exastp/tensor/transpose.h"

namespace exastp {
namespace {

template <class Pde = CurvilinearElasticPde>
InstrMix run_and_classify(StpVariant variant, int order, Isa isa) {
  Pde pde;
  StpKernel kernel = make_stp_kernel(pde, variant, order, isa);
  const AosLayout& aos = kernel.layout();
  AlignedVector q(aos.size(), 0.0), qavg(aos.size()), f0(aos.size()),
      f1(aos.size()), f2(aos.size());
  for (int k3 = 0; k3 < order; ++k3)
    for (int k2 = 0; k2 < order; ++k2)
      for (int k1 = 0; k1 < order; ++k1) {
        double* node = q.data() + aos.idx(k3, k2, k1, 0);
        for (int s = 0; s < Pde::kVars; ++s)
          node[s] = 0.01 * (k1 + k2 + k3 + s);
        if constexpr (std::is_same_v<Pde, AcousticPde>) {
          node[Pde::kRho] = 2.7;
          node[Pde::kC] = 6.0;
        } else if constexpr (std::is_same_v<Pde, MaxwellPde>) {
          node[Pde::kEps] = 2.0;
          node[Pde::kMu] = 1.5;
        } else if constexpr (Pde::kParams > 0) {
          node[Pde::kRho] = 2.7;
          node[Pde::kCp] = 6.0;
          node[Pde::kCs] = 3.4;
        }
        if constexpr (std::is_same_v<Pde, CurvilinearElasticPde>) {
          for (int r = 0; r < 3; ++r) node[Pde::kMetric + 3 * r + r] = 1.0;
        }
      }
  StpOutputs out{qavg.data(), {f0.data(), f1.data(), f2.data()}};
  FlopSection section;
  kernel.run(q.data(), 1e-3, {4.0, 4.0, 4.0}, nullptr, out);
  return instruction_mix(section.delta());
}

class MixOrderP : public ::testing::TestWithParam<int> {};

TEST_P(MixOrderP, GenericIsScalarDominated) {
  InstrMix mix = run_and_classify(StpVariant::kGeneric, GetParam(),
                                  Isa::kScalar);
  EXPECT_GT(mix.scalar(), 70.0);
  EXPECT_GT(mix.p128(), 0.0) << "some auto-vectorized share expected";
  EXPECT_EQ(mix.p512(), 0.0);
}

TEST_P(MixOrderP, LogIsMostlyPackedWithScalarTail) {
  if (!host_supports(Isa::kAvx512)) GTEST_SKIP();
  InstrMix mix = run_and_classify(StpVariant::kLog, GetParam(), Isa::kAvx512);
  EXPECT_GT(mix.packed(), 80.0);
  EXPECT_GT(mix.scalar(), 2.0) << "pointwise user functions stay scalar";
  EXPECT_LT(mix.scalar(), 20.0);
  EXPECT_GT(mix.p512(), 75.0);
}

TEST_P(MixOrderP, SplitCkIsMostlyPackedWithScalarTail) {
  if (!host_supports(Isa::kAvx512)) GTEST_SKIP();
  InstrMix mix =
      run_and_classify(StpVariant::kSplitCk, GetParam(), Isa::kAvx512);
  EXPECT_GT(mix.packed(), 80.0);
  EXPECT_GT(mix.scalar(), 2.0);
  EXPECT_LT(mix.scalar(), 20.0);
}

template <class Pde>
void expect_aosoa_removes_scalar_tail(int order) {
  SCOPED_TRACE(Pde::kName);
  InstrMix aosoa =
      run_and_classify<Pde>(StpVariant::kAosoaSplitCk, order, Isa::kAvx512);
  InstrMix splitck =
      run_and_classify<Pde>(StpVariant::kSplitCk, order, Isa::kAvx512);
  EXPECT_LT(aosoa.scalar(), 4.0) << "paper: 2-4% scalar left";
  EXPECT_LT(aosoa.scalar(), splitck.scalar());
  EXPECT_GT(aosoa.p512(), 95.0) << "line functions must pack at 512 bits";
}

TEST_P(MixOrderP, AosoaRemovesTheScalarTail) {
  if (!host_supports(Isa::kAvx512)) GTEST_SKIP();
  expect_aosoa_removes_scalar_tail<CurvilinearElasticPde>(GetParam());
  expect_aosoa_removes_scalar_tail<ElasticPde>(GetParam());
  expect_aosoa_removes_scalar_tail<AcousticPde>(GetParam());
  expect_aosoa_removes_scalar_tail<MaxwellPde>(GetParam());
  expect_aosoa_removes_scalar_tail<AdvectionPde>(GetParam());
  expect_aosoa_removes_scalar_tail<AdvectionNcpPde>(GetParam());
}

TEST_P(MixOrderP, Avx2PathPacksAt256Bits) {
  if (!host_supports(Isa::kAvx2)) GTEST_SKIP();
  InstrMix mix = run_and_classify(StpVariant::kLog, GetParam(), Isa::kAvx2);
  EXPECT_GT(mix.p256(), 75.0);
  EXPECT_EQ(mix.p512(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Orders, MixOrderP, ::testing::Values(4, 6, 8, 11));

TEST(MixShapes, ScalarTailShrinksWithOrderForAosVariants) {
  // The user-function share is O(N^3) against O(N^4) GEMM work, so the
  // scalar tail decreases with order (visible in Fig. 9 left to right).
  if (!host_supports(Isa::kAvx512)) GTEST_SKIP();
  const double tail4 =
      run_and_classify(StpVariant::kSplitCk, 4, Isa::kAvx512).scalar();
  const double tail11 =
      run_and_classify(StpVariant::kSplitCk, 11, Isa::kAvx512).scalar();
  EXPECT_LT(tail11, tail4);
}

}  // namespace
}  // namespace exastp

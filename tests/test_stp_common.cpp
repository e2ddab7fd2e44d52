// Tests for the shared STP infrastructure: parameter-row refresh helpers,
// the type-erased StpKernel handle, Taylor coefficient variants, and the
// rejected variant's footprint and FLOP ledger.
#include <gtest/gtest.h>

#include <cmath>

#include "exastp/common/taylor.h"
#include "exastp/kernels/face.h"
#include "exastp/kernels/registry.h"
#include "exastp/pde/acoustic.h"
#include "exastp/pde/elastic.h"
#include "exastp/perf/flop_count.h"

namespace exastp {
namespace {

TEST(ParamRefresh, AosCopiesOnlyParameterRows) {
  AosLayout aos(3, 5, Isa::kAvx512);
  AlignedVector q(aos.size(), 0.0), dst(aos.size(), 0.0);
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = 1.0 + i;
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = -double(i);
  const int vars = 3;  // rows 3,4 are parameters
  refresh_param_rows(aos, vars, q.data(), dst.data());
  for (int k3 = 0; k3 < 3; ++k3)
    for (int k2 = 0; k2 < 3; ++k2)
      for (int k1 = 0; k1 < 3; ++k1)
        for (int s = 0; s < 5; ++s) {
          const std::size_t i = aos.idx(k3, k2, k1, s);
          if (s < vars) {
            EXPECT_EQ(dst[i], -double(i)) << "wave row must be untouched";
          } else {
            EXPECT_EQ(dst[i], q[i]) << "parameter row must be refreshed";
          }
        }
}

TEST(ParamRefresh, AosNoParamsIsANoop) {
  AosLayout aos(2, 4, Isa::kScalar);
  AlignedVector q(aos.size(), 7.0), dst(aos.size(), 3.0);
  refresh_param_rows(aos, 4, q.data(), dst.data());
  for (double v : dst) EXPECT_EQ(v, 3.0);
}

TEST(ParamRefresh, AosoaCopiesWholePaddedLines) {
  AosoaLayout aosoa(3, 4, Isa::kAvx512);
  AlignedVector q(aosoa.size(), 0.0), dst(aosoa.size(), -1.0);
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = 0.5 * i;
  refresh_param_rows(aosoa, 2, q.data(), dst.data());
  for (int k3 = 0; k3 < 3; ++k3)
    for (int k2 = 0; k2 < 3; ++k2)
      for (int s = 0; s < 4; ++s)
        for (int k1 = 0; k1 < aosoa.n_pad; ++k1) {
          const std::size_t i = aosoa.idx(k3, k2, s, k1);
          if (s < 2) {
            EXPECT_EQ(dst[i], -1.0);
          } else {
            EXPECT_EQ(dst[i], q[i]);
          }
        }
}

TEST(StpKernelHandle, ExposesVariantLayoutAndFootprint) {
  AcousticPde pde;
  StpKernel k = make_stp_kernel(pde, StpVariant::kSplitCk, 5, Isa::kAvx512);
  EXPECT_EQ(k.variant(), StpVariant::kSplitCk);
  EXPECT_EQ(k.layout().n, 5);
  EXPECT_EQ(k.layout().m, AcousticPde::kQuants);
  EXPECT_EQ(k.layout().m_pad, 8);
  EXPECT_GT(k.workspace_bytes(), 0u);
  EXPECT_TRUE(static_cast<bool>(k));
  EXPECT_FALSE(static_cast<bool>(StpKernel{}));
}

TEST(StpKernelHandle, GenericUsesUnpaddedLayoutRegardlessOfIsa) {
  AcousticPde pde;
  StpKernel k = make_stp_kernel(pde, StpVariant::kGeneric, 4, Isa::kAvx512);
  EXPECT_EQ(k.layout().m_pad, AcousticPde::kQuants);
  EXPECT_EQ(k.isa(), Isa::kScalar);
}

TEST(VariantNames, RoundTripThroughParser) {
  for (StpVariant v :
       {StpVariant::kGeneric, StpVariant::kLog, StpVariant::kSplitCk,
        StpVariant::kAosoaSplitCk, StpVariant::kSoaUfSplitCk})
    EXPECT_EQ(parse_variant(variant_name(v)), v);
}

TEST(TaylorVariants, AverageTimesDtEqualsIntegralCoefficients) {
  const double dt = 0.37;
  auto avg = time_average_coefficients(dt, 8);
  auto integral = taylor_coefficients(dt, 8);
  for (int o = 0; o < 8; ++o)
    EXPECT_NEAR(avg[o] * dt, integral[o], 1e-16 + 1e-14 * integral[o]);
  EXPECT_DOUBLE_EQ(avg[0], 1.0) << "o=0 average weight must be exactly 1";
}

TEST(RejectedVariant, FootprintSitsBetweenSplitCkAndLog) {
  // It stores the SplitCK tensors plus full-cell SoA buffers: src and a
  // user function's output, and gradQ for PDEs with an NCP.
  AcousticPde pde;
  auto sp = make_stp_kernel(pde, StpVariant::kSplitCk, 6, Isa::kAvx512);
  auto rej = make_stp_kernel(pde, StpVariant::kSoaUfSplitCk, 6, Isa::kAvx512);
  auto log = make_stp_kernel(pde, StpVariant::kLog, 6, Isa::kAvx512);
  EXPECT_GT(rej.workspace_bytes(), sp.workspace_bytes());
  EXPECT_LT(rej.workspace_bytes(), log.workspace_bytes());
}

// FLOPs per width class of one elastic order-8 call on the solver's request
// (traces and qnew): flux derivatives masked past the 9 flux rows, and no
// NCP stage, since elastic declares kNcpIsZero.
FlopCounter soa_uf_request_flops(Isa isa) {
  constexpr int kOrder = 8;
  const StpKernel k =
      make_stp_kernel(ElasticPde{}, StpVariant::kSoaUfSplitCk, kOrder, isa);
  const AosLayout& aos = k.layout();
  AlignedVector q(aos.size(), 0.0), qnew(aos.size()),
      traces(6 * FaceLayout(aos).size());
  for (int k3 = 0; k3 < kOrder; ++k3)
    for (int k2 = 0; k2 < kOrder; ++k2)
      for (int k1 = 0; k1 < kOrder; ++k1) {
        double* node = q.data() + aos.idx(k3, k2, k1, 0);
        for (int s = 0; s < ElasticPde::kVars; ++s)
          node[s] = 0.01 * (k1 + 2 * k2 + 3 * k3 + s);
        node[ElasticPde::kRho] = 2.7;
        node[ElasticPde::kCp] = 6.0;
        node[ElasticPde::kCs] = 3.4;
      }
  StpOutputs out;
  out.qnew = qnew.data();
  out.traces = traces.data();
  FlopSection section;
  k.run(q.data(), 1e-3, {4.0, 4.0, 4.0}, nullptr, out);
  return section.delta();
}

TEST(RejectedVariant, SkipsTheZeroBlocksSplitCkSkips) {
  // Unmasked, with the NCP stage, the scalar call counted 5,265,408 and the
  // AVX-512 one 49,152 + 6,905,856; masked it matches SplitCK's 3,612,672.
  const FlopCounter scalar = soa_uf_request_flops(Isa::kScalar);
  EXPECT_EQ(scalar.flops[static_cast<int>(WidthClass::kScalar)], 0u);
  EXPECT_EQ(scalar.flops[static_cast<int>(WidthClass::k128)], 2168832u);
  EXPECT_EQ(scalar.total(), 2168832u);
  if (!host_supports(Isa::kAvx512)) GTEST_SKIP();
  const FlopCounter wide = soa_uf_request_flops(Isa::kAvx512);
  EXPECT_EQ(wide.flops[static_cast<int>(WidthClass::k128)], 49152u);
  EXPECT_EQ(wide.flops[static_cast<int>(WidthClass::k512)], 3563520u);
  EXPECT_EQ(wide.total(), 3612672u);
}

}  // namespace
}  // namespace exastp

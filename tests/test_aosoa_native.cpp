// Tests for the AoSoA-native kernel entry point (the paper's "switch the
// whole engine to AoSoA" future-work extension): running directly on AoSoA
// buffers must give exactly the same results as the transposing wrapper,
// in both storage precisions.
#include <gtest/gtest.h>

#include <cmath>

#include "exastp/kernels/aosoa_stp.h"
#include "exastp/pde/acoustic.h"
#include "exastp/pde/curvilinear_elastic.h"
#include "exastp/tensor/transpose.h"

namespace exastp {
namespace {

template <class Pde>
void fill_state(const AosLayout& aos, AlignedVector& q) {
  q.assign(aos.size(), 0.0);
  const int n = aos.n;
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1) {
        double* node = q.data() + aos.idx(k3, k2, k1, 0);
        for (int s = 0; s < Pde::kVars; ++s)
          node[s] = std::sin(0.21 * (k1 + 3 * k2 + 7 * k3) + s);
        if constexpr (std::is_same_v<Pde, AcousticPde>) {
          node[Pde::kRho] = 1.1;
          node[Pde::kC] = 2.0;
        } else {
          node[Pde::kRho] = 2.7;
          node[Pde::kCp] = 6.0;
          node[Pde::kCs] = 3.4;
          for (int r = 0; r < 3; ++r)
            node[Pde::kMetric + 3 * r + r] = 1.0;
        }
      }
}

template <class Pde, class Real>
void check_native_matches_wrapper(int order) {
  SCOPED_TRACE(sizeof(Real) == sizeof(float) ? "fp32" : "fp64");
  const Isa isa = host_best_isa();
  AosoaStpT<Pde, Real> kernel(Pde{}, order, isa);
  const AosLayout& aos = kernel.layout();
  const AosoaLayout& aosoa = kernel.internal_layout();

  AlignedVector q;
  fill_state<Pde>(aos, q);
  const double dt = 1e-3;
  const std::array<double, 3> inv_dx{4.0, 4.0, 4.0};

  // Wrapper path (AoS in/out).
  AlignedVector qavg(aos.size()), f0(aos.size()), f1(aos.size()),
      f2(aos.size());
  StpOutputs out{qavg.data(), {f0.data(), f1.data(), f2.data()}};
  kernel.compute(q.data(), dt, inv_dx, nullptr, out);

  // Native path (AoSoA in/out), transposed manually for comparison.
  AlignedVector q_a(aosoa.size()), qavg_a(aosoa.size()),
      g0(aosoa.size()), g1(aosoa.size()), g2(aosoa.size());
  aos_to_aosoa(isa, q.data(), aos, q_a.data(), aosoa);
  kernel.compute_native(
      q_a.data(), dt, inv_dx, nullptr,
      StpOutputs{qavg_a.data(), {g0.data(), g1.data(), g2.data()}});

  AlignedVector check(aos.size());
  aosoa_to_aos(isa, qavg_a.data(), aosoa, check.data(), aos);
  for (std::size_t i = 0; i < aos.size(); ++i)
    ASSERT_EQ(check[i], qavg[i]) << "qavg differs at " << i;
  const AlignedVector* favg_a[3] = {&g0, &g1, &g2};
  const AlignedVector* favg[3] = {&f0, &f1, &f2};
  for (int d = 0; d < 3; ++d) {
    aosoa_to_aos(isa, favg_a[d]->data(), aosoa, check.data(), aos);
    for (std::size_t i = 0; i < aos.size(); ++i)
      ASSERT_EQ(check[i], (*favg[d])[i]) << "favg" << d << " differs at " << i;
  }
}

// The fp32 kernel narrows and widens at its double AoSoA boundary on both
// entry points, so its native and wrapper outputs agree bitwise too.
TEST(AosoaNative, MatchesWrapperAcousticOrder4) {
  check_native_matches_wrapper<AcousticPde, double>(4);
  check_native_matches_wrapper<AcousticPde, float>(4);
}

TEST(AosoaNative, MatchesWrapperAcousticOrder7) {
  check_native_matches_wrapper<AcousticPde, double>(7);
  check_native_matches_wrapper<AcousticPde, float>(7);
}

TEST(AosoaNative, MatchesWrapperCurvilinearOrder5) {
  check_native_matches_wrapper<CurvilinearElasticPde, double>(5);
  check_native_matches_wrapper<CurvilinearElasticPde, float>(5);
}

TEST(AosoaNative, MatchesWrapperCurvilinearOrder9) {
  check_native_matches_wrapper<CurvilinearElasticPde, double>(9);
  check_native_matches_wrapper<CurvilinearElasticPde, float>(9);
}

TEST(AosoaNative, NativeSkipsTransposesButCountsSameFlops) {
  // The native path performs the same arithmetic (transposes are pure data
  // movement and count no FLOPs).
  const Isa isa = host_best_isa();
  AosoaStp<AcousticPde> kernel(AcousticPde{}, 5, isa);
  const AosLayout& aos = kernel.layout();
  const AosoaLayout& aosoa = kernel.internal_layout();
  AlignedVector q;
  fill_state<AcousticPde>(aos, q);
  AlignedVector qavg(aos.size()), f0(aos.size()), f1(aos.size()),
      f2(aos.size());
  StpOutputs out{qavg.data(), {f0.data(), f1.data(), f2.data()}};
  FlopSection wrapper_section;
  kernel.compute(q.data(), 1e-3, {4.0, 4.0, 4.0}, nullptr, out);
  const auto wrapper_flops = wrapper_section.delta().total();

  AlignedVector q_a(aosoa.size()), qavg_a(aosoa.size()), g0(aosoa.size()),
      g1(aosoa.size()), g2(aosoa.size());
  aos_to_aosoa(isa, q.data(), aos, q_a.data(), aosoa);
  FlopSection native_section;
  kernel.compute_native(
      q_a.data(), 1e-3, {4.0, 4.0, 4.0}, nullptr,
      StpOutputs{qavg_a.data(), {g0.data(), g1.data(), g2.data()}});
  EXPECT_EQ(native_section.delta().total(), wrapper_flops);
}

}  // namespace
}  // namespace exastp

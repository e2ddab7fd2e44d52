// Property-based fuzz tests for the mini-GEMM library: 48 randomized
// (shape, leading-dimension, ISA, mode) configurations per run, each checked
// against the reference triple loop. Complements the curated shape sweep in
// test_gemm.cpp.
#include <gtest/gtest.h>

#include <random>

#include "exastp/common/aligned.h"
#include "exastp/gemm/gemm.h"

namespace exastp {
namespace {

class GemmFuzz : public ::testing::TestWithParam<int> {};

TEST_P(GemmFuzz, RandomShapeMatchesReference) {
  std::mt19937 rng(GetParam() * 7919 + 13);
  std::uniform_int_distribution<int> dim(1, 40);
  std::uniform_int_distribution<int> extra(0, 12);
  std::uniform_int_distribution<int> mode(0, 3);
  std::uniform_real_distribution<double> val(-2.0, 2.0);
  std::uniform_real_distribution<double> alpha_dist(-3.0, 3.0);

  const int m = dim(rng), n = dim(rng), k = dim(rng);
  const int lda = k + extra(rng), ldb = n + extra(rng), ldc = n + extra(rng);
  Isa isa = Isa::kScalar;
  switch (GetParam() % 3) {
    case 1: isa = Isa::kAvx2; break;
    case 2: isa = Isa::kAvx512; break;
    default: break;
  }
  if (!host_supports(isa)) GTEST_SKIP();

  AlignedVector a(static_cast<std::size_t>(m) * lda);
  AlignedVector b(static_cast<std::size_t>(k) * ldb);
  AlignedVector c(static_cast<std::size_t>(m) * ldc);
  for (auto& x : a) x = val(rng);
  for (auto& x : b) x = val(rng);
  for (auto& x : c) x = val(rng);

  const int which = mode(rng);
  const double alpha = which >= 2 ? alpha_dist(rng) : 1.0;
  const bool accumulate = (which % 2) == 1;

  AlignedVector expect = c;
  gemm_reference(accumulate, alpha, m, n, k, a.data(), lda, b.data(), ldb,
                 expect.data(), ldc);
  AlignedVector got = c;
  gemm_batch(isa, accumulate, alpha, m, n, k, a.data(), lda, 0, b.data(), ldb,
             0, got.data(), ldc, 0, 1);
  // Tolerance scaled by the contraction length and operand magnitudes.
  const double tol = 1e-13 * k * 4.0 * std::abs(alpha) + 1e-14;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j)
      ASSERT_NEAR(got[static_cast<std::size_t>(i) * ldc + j],
                  expect[static_cast<std::size_t>(i) * ldc + j], tol)
          << "m=" << m << " n=" << n << " k=" << k << " ld=" << lda << "/"
          << ldb << "/" << ldc << " isa=" << isa_name(isa)
          << " mode=" << which << " at (" << i << "," << j << ")";
    // The ld gap beyond column n must be untouched.
    for (int j = n; j < ldc; ++j)
      ASSERT_EQ(got[static_cast<std::size_t>(i) * ldc + j],
                c[static_cast<std::size_t>(i) * ldc + j])
          << "wrote past n";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GemmFuzz, ::testing::Range(0, 48));

}  // namespace
}  // namespace exastp

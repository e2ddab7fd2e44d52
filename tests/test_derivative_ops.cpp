// Tests for src/kernels/derivative_ops.h: the Loop-over-GEMM lowering of
// the discrete derivative must match a naive per-node contraction in both
// data layouts, for every direction, with and without accumulation.
#include <gtest/gtest.h>

#include <random>

#include "exastp/basis/basis_tables.h"
#include "exastp/common/aligned.h"
#include "exastp/kernels/derivative_ops.h"
#include "exastp/tensor/transpose.h"

namespace exastp {
namespace {

// Naive reference: out[k][s] (+)= inv_h * sum_l D[k_dir][l] q[..l..][s]
// on an unpadded AoS tensor.
std::vector<double> reference_derivative(const std::vector<double>& q, int n,
                                         int m, const double* diff,
                                         double inv_h, int dir,
                                         const std::vector<double>& base) {
  std::vector<double> out = base;
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1)
        for (int s = 0; s < m; ++s) {
          const int kd = dir == 0 ? k1 : (dir == 1 ? k2 : k3);
          double acc = 0.0;
          for (int l = 0; l < n; ++l) {
            int j1 = k1, j2 = k2, j3 = k3;
            (dir == 0 ? j1 : dir == 1 ? j2 : j3) = l;
            acc += diff[kd * n + l] *
                   q[((static_cast<std::size_t>(j3) * n + j2) * n + j1) * m +
                     s];
          }
          out[((static_cast<std::size_t>(k3) * n + k2) * n + k1) * m + s] +=
              inv_h * acc;
        }
  return out;
}

struct DerivCase {
  int n;
  int m;
  int dir;
  bool accumulate;
  Isa isa;
};

void PrintTo(const DerivCase& c, std::ostream* os) {
  *os << "n" << c.n << "_m" << c.m << "_dir" << c.dir
      << (c.accumulate ? "_acc" : "_set") << "_" << isa_name(c.isa);
}

class DerivativeP : public ::testing::TestWithParam<DerivCase> {};

TEST_P(DerivativeP, AosMatchesNaiveContraction) {
  const auto [n, m, dir, accumulate, isa] = GetParam();
  if (!host_supports(isa)) GTEST_SKIP();
  const auto& basis = basis_tables(n);
  AosLayout aos(n, m, isa);

  std::mt19937 rng(n * 100 + m);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> q_tight(static_cast<std::size_t>(n) * n * n * m);
  std::vector<double> dst_tight(q_tight.size());
  for (auto& v : q_tight) v = dist(rng);
  for (auto& v : dst_tight) v = dist(rng);

  const double inv_h = 2.5;
  std::vector<double> expected = reference_derivative(
      q_tight, n, m, basis.diff.data(), inv_h, dir,
      accumulate ? dst_tight : std::vector<double>(q_tight.size(), 0.0));

  AlignedVector q(aos.size()), dst(aos.size());
  pad_aos(q_tight.data(), n, m, q.data(), aos);
  pad_aos(dst_tight.data(), n, m, dst.data(), aos);
  aos_derivative(isa, aos, basis.diff.data(), inv_h, dir, q.data(),
                 dst.data(), accumulate);
  std::vector<double> got(q_tight.size());
  unpad_aos(dst.data(), aos, m, got.data());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(got[i], expected[i], 1e-11) << "index " << i;
}

TEST_P(DerivativeP, AosoaMatchesNaiveContraction) {
  const auto [n, m, dir, accumulate, isa] = GetParam();
  if (!host_supports(isa)) GTEST_SKIP();
  const auto& basis = basis_tables(n);
  AosLayout aos(n, m, isa);
  AosoaLayout aosoa(n, m, isa);
  AlignedVector diff_t = basis.padded_diff_t(aosoa.n_pad);

  std::mt19937 rng(n * 991 + m);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> q_tight(static_cast<std::size_t>(n) * n * n * m);
  std::vector<double> dst_tight(q_tight.size());
  for (auto& v : q_tight) v = dist(rng);
  for (auto& v : dst_tight) v = dist(rng);

  const double inv_h = -1.25;
  std::vector<double> expected = reference_derivative(
      q_tight, n, m, basis.diff.data(), inv_h, dir,
      accumulate ? dst_tight : std::vector<double>(q_tight.size(), 0.0));

  AlignedVector q_aos(aos.size()), dst_aos(aos.size());
  pad_aos(q_tight.data(), n, m, q_aos.data(), aos);
  pad_aos(dst_tight.data(), n, m, dst_aos.data(), aos);
  AlignedVector q(aosoa.size()), dst(aosoa.size());
  aos_to_aosoa(isa, q_aos.data(), aos, q.data(), aosoa);
  aos_to_aosoa(isa, dst_aos.data(), aos, dst.data(), aosoa);

  aosoa_derivative(isa, aosoa, basis.diff.data(), diff_t.data(), inv_h, dir,
                   q.data(), dst.data(), accumulate);

  AlignedVector back(aos.size());
  aosoa_to_aos(isa, dst.data(), aosoa, back.data(), aos);
  std::vector<double> got(q_tight.size());
  unpad_aos(back.data(), aos, m, got.data());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(got[i], expected[i], 1e-11) << "index " << i;
}

TEST_P(DerivativeP, PaddingLanesStayZero) {
  // Property: if the padded lanes of the input are zero, they remain
  // exactly zero in the output — the invariant that lets user functions
  // vectorize over full padded lines.
  const auto [n, m, dir, accumulate, isa] = GetParam();
  if (!host_supports(isa)) GTEST_SKIP();
  const auto& basis = basis_tables(n);
  AosoaLayout aosoa(n, m, isa);
  AlignedVector diff_t = basis.padded_diff_t(aosoa.n_pad);
  AlignedVector q(aosoa.size(), 0.0), dst(aosoa.size(), 0.0);
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int s = 0; s < m; ++s)
        for (int k1 = 0; k1 < n; ++k1)
          q[aosoa.idx(k3, k2, s, k1)] = dist(rng);
  aosoa_derivative(isa, aosoa, basis.diff.data(), diff_t.data(), 1.0, dir,
                   q.data(), dst.data(), accumulate);
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int s = 0; s < m; ++s)
        for (int k1 = n; k1 < aosoa.n_pad; ++k1)
          EXPECT_EQ(dst[aosoa.idx(k3, k2, s, k1)], 0.0)
              << "pad lane " << k1 << " contaminated";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DerivativeP,
    ::testing::Values(DerivCase{3, 2, 0, false, Isa::kScalar},
                      DerivCase{3, 2, 1, true, Isa::kScalar},
                      DerivCase{4, 6, 0, false, Isa::kAvx512},
                      DerivCase{4, 6, 1, false, Isa::kAvx512},
                      DerivCase{4, 6, 2, false, Isa::kAvx512},
                      DerivCase{5, 21, 0, true, Isa::kAvx512},
                      DerivCase{5, 21, 1, true, Isa::kAvx512},
                      DerivCase{5, 21, 2, true, Isa::kAvx512},
                      DerivCase{6, 9, 2, false, Isa::kAvx2},
                      DerivCase{8, 21, 0, true, Isa::kAvx512},
                      DerivCase{9, 21, 1, false, Isa::kAvx512},
                      DerivCase{11, 5, 2, true, Isa::kAvx2}));

TEST(DerivativeOps, RejectsBadDirection) {
  const auto& basis = basis_tables(3);
  AosLayout aos(3, 2, Isa::kScalar);
  AlignedVector q(aos.size(), 0.0), dst(aos.size(), 0.0);
  EXPECT_THROW(aos_derivative(Isa::kScalar, aos, basis.diff.data(), 1.0, 3,
                              q.data(), dst.data(), false),
               std::invalid_argument);
}

TEST(DerivativeOps, DifferentiatesPolynomialExactly) {
  // d/dx of x^2 * y on the nodal grid must be exact (2xy), through the
  // full GEMM path.
  const int n = 4, m = 1;
  const auto& basis = basis_tables(n);
  AosLayout aos(n, m, Isa::kAvx512);
  AlignedVector q(aos.size(), 0.0), dst(aos.size(), 0.0);
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1)
        q[aos.idx(k3, k2, k1, 0)] =
            basis.nodes[k1] * basis.nodes[k1] * basis.nodes[k2];
  aos_derivative(Isa::kAvx512, aos, basis.diff.data(), 1.0, 0, q.data(),
                 dst.data(), false);
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1)
        EXPECT_NEAR(dst[aos.idx(k3, k2, k1, 0)],
                    2.0 * basis.nodes[k1] * basis.nodes[k2], 1e-12);
}

}  // namespace
}  // namespace exastp

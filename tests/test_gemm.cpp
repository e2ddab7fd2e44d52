// Tests for src/gemm: every ISA path against the reference triple loop over
// a shape sweep covering the slice shapes used by the STP kernels, leading
// dimension handling, accumulate/overwrite semantics, FLOP accounting, and
// bit stability of the register-tiled schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <vector>

#include "exastp/common/aligned.h"
#include "exastp/gemm/gemm.h"
#include "exastp/perf/flop_count.h"

namespace exastp {
namespace {

struct GemmCase {
  int m, n, k;
  int lda_extra, ldb_extra, ldc_extra;
  Isa isa;
};

void PrintTo(const GemmCase& c, std::ostream* os) {
  *os << c.m << "x" << c.n << "x" << c.k << "_ld" << c.lda_extra
      << c.ldb_extra << c.ldc_extra << "_" << isa_name(c.isa);
}

class GemmP : public ::testing::TestWithParam<GemmCase> {
 protected:
  void SetUp() override {
    const auto& p = GetParam();
    if (!host_supports(p.isa)) GTEST_SKIP() << "host lacks " << isa_name(p.isa);
    lda_ = p.k + p.lda_extra;
    ldb_ = p.n + p.ldb_extra;
    ldc_ = p.n + p.ldc_extra;
    std::mt19937 rng(42);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    a_.resize(static_cast<std::size_t>(p.m) * lda_);
    b_.resize(static_cast<std::size_t>(p.k) * ldb_);
    c_.resize(static_cast<std::size_t>(p.m) * ldc_);
    for (auto& x : a_) x = dist(rng);
    for (auto& x : b_) x = dist(rng);
    for (auto& x : c_) x = dist(rng);
  }

  int lda_ = 0, ldb_ = 0, ldc_ = 0;
  AlignedVector a_, b_, c_;
};

TEST_P(GemmP, SetMatchesReference) {
  const auto& p = GetParam();
  AlignedVector expect = c_;
  gemm_reference(false, 1.0, p.m, p.n, p.k, a_.data(), lda_, b_.data(), ldb_,
                 expect.data(), ldc_);
  AlignedVector got = c_;
  gemm_set(p.isa, p.m, p.n, p.k, a_.data(), lda_, b_.data(), ldb_, got.data(),
           ldc_);
  for (int i = 0; i < p.m; ++i)
    for (int j = 0; j < p.n; ++j)
      EXPECT_NEAR(got[i * ldc_ + j], expect[i * ldc_ + j], 1e-13)
          << i << "," << j;
}

TEST_P(GemmP, AccMatchesReference) {
  const auto& p = GetParam();
  AlignedVector expect = c_;
  gemm_reference(true, 1.0, p.m, p.n, p.k, a_.data(), lda_, b_.data(), ldb_,
                 expect.data(), ldc_);
  AlignedVector got = c_;
  gemm_acc(p.isa, p.m, p.n, p.k, a_.data(), lda_, b_.data(), ldb_, got.data(),
           ldc_);
  for (int i = 0; i < p.m; ++i)
    for (int j = 0; j < p.n; ++j)
      EXPECT_NEAR(got[i * ldc_ + j], expect[i * ldc_ + j], 1e-13);
}

TEST_P(GemmP, ScaledVariants) {
  const auto& p = GetParam();
  const double alpha = -2.5;
  AlignedVector expect = c_;
  gemm_reference(true, alpha, p.m, p.n, p.k, a_.data(), lda_, b_.data(), ldb_,
                 expect.data(), ldc_);
  AlignedVector got = c_;
  gemm_acc_scaled(p.isa, alpha, p.m, p.n, p.k, a_.data(), lda_, b_.data(),
                  ldb_, got.data(), ldc_);
  for (int i = 0; i < p.m; ++i)
    for (int j = 0; j < p.n; ++j)
      EXPECT_NEAR(got[i * ldc_ + j], expect[i * ldc_ + j], 1e-12);
}

TEST_P(GemmP, LeavesBeyondLdUntouched) {
  const auto& p = GetParam();
  if (p.ldc_extra == 0) GTEST_SKIP();
  AlignedVector got = c_;
  gemm_set(p.isa, p.m, p.n, p.k, a_.data(), lda_, b_.data(), ldb_, got.data(),
           ldc_);
  for (int i = 0; i < p.m; ++i)
    for (int j = p.n; j < ldc_; ++j)
      EXPECT_EQ(got[i * ldc_ + j], c_[i * ldc_ + j])
          << "wrote past n into the ld gap";
}

TEST_P(GemmP, CountsTwoMNKFlops) {
  const auto& p = GetParam();
  FlopSection section;
  AlignedVector got = c_;
  gemm_acc(p.isa, p.m, p.n, p.k, a_.data(), lda_, b_.data(), ldb_, got.data(),
           ldc_);
  EXPECT_EQ(section.delta().total(),
            2ull * p.m * p.n * p.k);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, GemmP,
    ::testing::Values(
        // Degenerate and tiny shapes.
        GemmCase{1, 1, 1, 0, 0, 0, Isa::kScalar},
        GemmCase{2, 3, 4, 0, 0, 0, Isa::kScalar},
        GemmCase{4, 5, 4, 1, 2, 3, Isa::kScalar},
        // AoS x-derivative slices: D (n x n) times slice (n x mPad).
        GemmCase{4, 24, 4, 0, 0, 0, Isa::kAvx2},
        GemmCase{8, 24, 8, 0, 0, 0, Isa::kAvx512},
        GemmCase{11, 24, 11, 0, 0, 0, Isa::kAvx512},
        // Fused y/z slabs: D times (n x n*mPad).
        GemmCase{6, 144, 6, 0, 0, 0, Isa::kAvx512},
        GemmCase{9, 216, 9, 0, 0, 0, Isa::kAvx2},
        // AoSoA x-derivative: (m x n) times Dt (n x nPad).
        GemmCase{21, 8, 8, 0, 0, 0, Isa::kAvx512},
        GemmCase{21, 16, 9, 7, 0, 0, Isa::kAvx512},
        // Slice strides much larger than the row (Fig. 3 slice extraction).
        GemmCase{5, 8, 5, 40, 40, 40, Isa::kAvx512},
        GemmCase{5, 7, 5, 3, 9, 17, Isa::kAvx2},
        // Non-multiple N exercising the remainder path.
        GemmCase{6, 13, 6, 0, 0, 0, Isa::kAvx512},
        GemmCase{6, 3, 6, 0, 0, 0, Isa::kAvx2}));

TEST(GemmWidthClass, MapsIsaToPacking) {
  EXPECT_EQ(gemm_width_class(Isa::kScalar), WidthClass::k128);
  EXPECT_EQ(gemm_width_class(Isa::kAvx2), WidthClass::k256);
  EXPECT_EQ(gemm_width_class(Isa::kAvx512), WidthClass::k512);
}

TEST(GemmCounters, RemainderColumnsCountAsScalar) {
  if (!host_supports(Isa::kAvx512)) GTEST_SKIP();
  AlignedVector a(8 * 8, 1.0), b(8 * 13, 1.0), c(8 * 13, 0.0);
  FlopSection section;
  gemm_set(Isa::kAvx512, 8, 13, 8, a.data(), 8, b.data(), 13, c.data(), 13);
  FlopCounter d = section.delta();
  EXPECT_EQ(d.flops[static_cast<int>(WidthClass::k512)], 2ull * 8 * 8 * 8);
  EXPECT_EQ(d.flops[static_cast<int>(WidthClass::kScalar)], 2ull * 8 * 5 * 8);
}

TEST(GemmErrors, RejectsBadLeadingDimensions) {
  AlignedVector a(16, 0.0), b(16, 0.0), c(16, 0.0);
  EXPECT_THROW(
      gemm_set(Isa::kScalar, 2, 4, 2, a.data(), 1, b.data(), 4, c.data(), 4),
      std::invalid_argument);
  EXPECT_THROW(
      gemm_set(Isa::kScalar, 2, 4, 2, a.data(), 2, b.data(), 3, c.data(), 4),
      std::invalid_argument);
}

TEST(GemmProperty, LinearityInA) {
  // gemm(alpha*A1 + A2) == alpha*gemm(A1) + gemm(A2) — exercised via the
  // scaled-accumulate entry points.
  if (!host_supports(Isa::kAvx512)) GTEST_SKIP();
  const int m = 6, n = 16, k = 6;
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  AlignedVector a1(m * k), a2(m * k), b(k * n);
  for (auto* v : {&a1, &a2, &b})
    for (auto& x : *v) x = dist(rng);
  AlignedVector lhs(m * n, 0.0), rhs(m * n, 0.0);
  const double alpha = 1.75;
  // lhs = (alpha*A1 + A2) * B
  AlignedVector asum(m * k);
  for (int i = 0; i < m * k; ++i) asum[i] = alpha * a1[i] + a2[i];
  gemm_set(Isa::kAvx512, m, n, k, asum.data(), k, b.data(), n, lhs.data(), n);
  // rhs = alpha*(A1*B) + A2*B
  gemm_set_scaled(Isa::kAvx512, alpha, m, n, k, a1.data(), k, b.data(), n,
                  rhs.data(), n);
  gemm_acc(Isa::kAvx512, m, n, k, a2.data(), k, b.data(), n, rhs.data(), n);
  for (int i = 0; i < m * n; ++i) EXPECT_NEAR(lhs[i], rhs[i], 1e-12);
}

// Bit stability of the register tiles: every C element keeps one operation
// sequence whatever tile, row count or column window computes it. So any
// split of a GEMM into row pieces (AoSoA row masking, thread and shard
// splits) or column pieces (autotuned slab sizes) reproduces the unsplit
// call bit for bit. A tile holds at most kMaxTileRows rows on every ISA
// path, so M = 1 .. 2 * kMaxTileRows + 1 straddles every tile edge (full
// tiles and every remainder size); N crosses the 32/16/8/4 column tiers
// and the scalar tail.
constexpr int kMaxTileRows = 8;

enum class GemmMode { kSet, kAcc, kSetScaled, kAccScaled };

template <class Real>
void call_gemm(GemmMode mode, Isa isa, int m, int n, int k, const Real* a,
               int lda, const Real* b, int ldb, Real* c, int ldc) {
  const Real alpha = Real(-0.37);
  switch (mode) {
    case GemmMode::kSet:
      gemm_set(isa, m, n, k, a, lda, b, ldb, c, ldc);
      break;
    case GemmMode::kAcc:
      gemm_acc(isa, m, n, k, a, lda, b, ldb, c, ldc);
      break;
    case GemmMode::kSetScaled:
      gemm_set_scaled(isa, alpha, m, n, k, a, lda, b, ldb, c, ldc);
      break;
    case GemmMode::kAccScaled:
      gemm_acc_scaled(isa, alpha, m, n, k, a, lda, b, ldb, c, ldc);
      break;
  }
}

template <class Real>
void expect_bit_stable(Isa isa) {
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  const int windows[] = {5, 1, 12, 3, 9, 33};
  for (int k : {1, 5, 8})
    for (int m = 1; m <= 2 * kMaxTileRows + 1; ++m)
      for (int n : {1, 3, 4, 7, 8, 12, 15, 16, 20, 24, 31, 32, 36, 45, 48,
                    63, 64, 72, 100})
        for (GemmMode mode : {GemmMode::kSet, GemmMode::kAcc,
                              GemmMode::kSetScaled, GemmMode::kAccScaled}) {
          const int lda = k + 1, ldb = n + 2, ldc = n + 3;
          std::vector<Real> a(static_cast<std::size_t>(m) * lda);
          std::vector<Real> b(static_cast<std::size_t>(k) * ldb);
          std::vector<Real> c(static_cast<std::size_t>(m) * ldc);
          for (auto* v : {&a, &b, &c})
            for (auto& x : *v) x = static_cast<Real>(dist(rng));
          std::vector<Real> full = c;
          call_gemm(mode, isa, m, n, k, a.data(), lda, b.data(), ldb,
                    full.data(), ldc);
          // Each row on its own (M = 1).
          std::vector<Real> rows = c;
          for (int i = 0; i < m; ++i)
            call_gemm(mode, isa, 1, n, k, a.data() + i * lda, lda, b.data(),
                      ldb, rows.data() + i * ldc, ldc);
          // Consecutive narrower column windows.
          std::vector<Real> cols = c;
          for (int j0 = 0, t = 0; j0 < n; ++t) {
            const int w = std::min(windows[t % 6], n - j0);
            call_gemm(mode, isa, m, w, k, a.data(), lda, b.data() + j0, ldb,
                      cols.data() + j0, ldc);
            j0 += w;
          }
          const std::size_t bytes = c.size() * sizeof(Real);
          if (std::memcmp(full.data(), rows.data(), bytes) != 0 ||
              std::memcmp(full.data(), cols.data(), bytes) != 0) {
            ADD_FAILURE() << "split changed bits: m=" << m << " n=" << n
                          << " k=" << k
                          << " mode=" << static_cast<int>(mode);
            return;
          }
        }
}

TEST(GemmBits, RowAndColumnSplitsAreBitIdentical) {
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!host_supports(isa)) continue;
    SCOPED_TRACE(isa_name(isa));
    expect_bit_stable<double>(isa);
    expect_bit_stable<float>(isa);
  }
}

}  // namespace
}  // namespace exastp

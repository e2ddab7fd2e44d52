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
  gemm_batch(p.isa, false, 1.0, p.m, p.n, p.k, a_.data(), lda_, 0, b_.data(),
             ldb_, 0, got.data(), ldc_, 0, 1);
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
  gemm_batch(p.isa, true, 1.0, p.m, p.n, p.k, a_.data(), lda_, 0, b_.data(),
             ldb_, 0, got.data(), ldc_, 0, 1);
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
  gemm_batch(p.isa, true, alpha, p.m, p.n, p.k, a_.data(), lda_, 0,
             b_.data(), ldb_, 0, got.data(), ldc_, 0, 1);
  for (int i = 0; i < p.m; ++i)
    for (int j = 0; j < p.n; ++j)
      EXPECT_NEAR(got[i * ldc_ + j], expect[i * ldc_ + j], 1e-12);
}

TEST_P(GemmP, LeavesBeyondLdUntouched) {
  const auto& p = GetParam();
  if (p.ldc_extra == 0) GTEST_SKIP();
  AlignedVector got = c_;
  gemm_batch(p.isa, false, 1.0, p.m, p.n, p.k, a_.data(), lda_, 0, b_.data(),
             ldb_, 0, got.data(), ldc_, 0, 1);
  for (int i = 0; i < p.m; ++i)
    for (int j = p.n; j < ldc_; ++j)
      EXPECT_EQ(got[i * ldc_ + j], c_[i * ldc_ + j])
          << "wrote past n into the ld gap";
}

TEST_P(GemmP, CountsTwoMNKFlops) {
  const auto& p = GetParam();
  FlopSection section;
  AlignedVector got = c_;
  gemm_batch(p.isa, true, 1.0, p.m, p.n, p.k, a_.data(), lda_, 0, b_.data(),
             ldb_, 0, got.data(), ldc_, 0, 1);
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
        // Fused y planes: D times (n x n*mPad).
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
  gemm_batch(Isa::kAvx512, false, 1.0, 8, 13, 8, a.data(), 8, 0, b.data(),
             13, 0, c.data(), 13, 0, 1);
  FlopCounter d = section.delta();
  EXPECT_EQ(d.flops[static_cast<int>(WidthClass::k512)], 2ull * 8 * 8 * 8);
  EXPECT_EQ(d.flops[static_cast<int>(WidthClass::kScalar)], 2ull * 8 * 5 * 8);
}

TEST(GemmErrors, RejectsBadLeadingDimensions) {
  AlignedVector a(16, 0.0), b(16, 0.0), c(16, 0.0);
  EXPECT_THROW(gemm_batch(Isa::kScalar, false, 1.0, 2, 4, 2, a.data(), 1, 0,
                          b.data(), 4, 0, c.data(), 4, 0, 1),
               std::invalid_argument);
  EXPECT_THROW(gemm_batch(Isa::kScalar, false, 1.0, 2, 4, 2, a.data(), 2, 0,
                          b.data(), 3, 0, c.data(), 4, 0, 1),
               std::invalid_argument);
}

TEST(GemmErrors, RejectsANegativeBatchCount) {
  AlignedVector a(16, 0.0), b(16, 0.0), c(16, 0.0);
  FlopSection section;
  EXPECT_THROW(gemm_batch(Isa::kScalar, true, 1.0, 2, 4, 2, a.data(), 2, 4,
                          b.data(), 4, 8, c.data(), 4, 8, -1),
               std::invalid_argument);
  AlignedVectorF af(16, 0.0f), bf(16, 0.0f), cf(16, 0.0f);
  EXPECT_THROW(gemm_batch(Isa::kScalar, true, 1.0f, 2, 4, 2, af.data(), 2, 4,
                          bf.data(), 4, 8, cf.data(), 4, 8, -1),
               std::invalid_argument);
  EXPECT_EQ(section.delta().total(), 0u) << "a rejected batch booked FLOPs";
}

TEST(GemmProperty, LinearityInA) {
  // gemm(alpha*A1 + A2) == alpha*gemm(A1) + gemm(A2) — exercised via the
  // scaled and accumulating modes.
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
  gemm_batch(Isa::kAvx512, false, 1.0, m, n, k, asum.data(), k, 0, b.data(),
             n, 0, lhs.data(), n, 0, 1);
  // rhs = alpha*(A1*B) + A2*B
  gemm_batch(Isa::kAvx512, false, alpha, m, n, k, a1.data(), k, 0, b.data(),
             n, 0, rhs.data(), n, 0, 1);
  gemm_batch(Isa::kAvx512, true, 1.0, m, n, k, a2.data(), k, 0, b.data(), n,
             0, rhs.data(), n, 0, 1);
  for (int i = 0; i < m * n; ++i) EXPECT_NEAR(lhs[i], rhs[i], 1e-12);
}

// Bit stability of the register tiles: every C element keeps one operation
// sequence whatever tile, row count or column window computes it. So any
// split of a GEMM into row pieces (AoSoA row masking, thread and shard
// splits) or column pieces reproduces the unsplit call bit for bit. A tile holds at most kMaxTileRows rows on every ISA
// path, so M = 1 .. 2 * kMaxTileRows + 1 straddles every tile edge (full
// tiles and every remainder size); N crosses the 32/16/8/4 column tiers
// and the scalar tail.
constexpr int kMaxTileRows = 8;

enum class GemmMode { kSet, kAcc, kSetScaled, kAccScaled };

template <class Real>
void call_gemm(GemmMode mode, Isa isa, int m, int n, int k, const Real* a,
               int lda, const Real* b, int ldb, Real* c, int ldc) {
  const Real alpha = Real(-0.37);
  const bool accumulate =
      mode == GemmMode::kAcc || mode == GemmMode::kAccScaled;
  const bool scaled =
      mode == GemmMode::kSetScaled || mode == GemmMode::kAccScaled;
  gemm_batch(isa, accumulate, scaled ? alpha : Real(1), m, n, k, a, lda, 0, b,
             ldb, 0, c, ldc, 0, 1);
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

// The strided batch is the loop of single calls, bit for bit: random
// shapes and batch counts 0-9 over four operand arrangements — separate
// blocks, a shared A, a shared B (stride 0, the derivative matrix of every
// slice) and interleaved B/C blocks whose rows are batch * width apart (the
// masked z sweeps) — in set and accumulate mode, alpha 1 and not. C must be
// byte-identical and the FLOPs equal in every width class.
template <class Real>
void expect_batch_is_call_loop(Isa isa) {
  std::mt19937 rng(19);
  std::uniform_int_distribution<int> m_dist(1, 24), n_dist(1, 40),
      k_dist(1, 11), batch_dist(0, 9), gap(0, 3), coin(0, 1),
      arrangement(0, 3);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  for (int trial = 0; trial < 400; ++trial) {
    const int m = m_dist(rng), n = n_dist(rng), k = k_dist(rng);
    const int batch = batch_dist(rng);
    const bool accumulate = coin(rng) == 1;
    const Real alpha = coin(rng) == 1 ? Real(1) : Real(-0.37);
    const int lda = k + gap(rng);
    int ldb = n + gap(rng), ldc = n + gap(rng);
    long stride_a = static_cast<long>(m) * lda + gap(rng);
    long stride_b = static_cast<long>(k) * ldb + gap(rng);
    long stride_c = static_cast<long>(m) * ldc + gap(rng);
    const int kind = arrangement(rng);
    if (kind == 1) stride_a = 0;
    if (kind == 2) stride_b = 0;
    if (kind == 3) {  // block b at column b * width, rows batch * width apart
      stride_b = n + gap(rng);
      stride_c = n + gap(rng);
      ldb = static_cast<int>(std::max(batch, 1) * stride_b);
      ldc = static_cast<int>(std::max(batch, 1) * stride_c);
    }
    const auto extent = [&](long stride, long block) {
      return static_cast<std::size_t>(std::max(batch - 1, 0) * stride +
                                      block);
    };
    std::vector<Real> a(extent(stride_a, static_cast<long>(m) * lda));
    std::vector<Real> b(extent(stride_b, static_cast<long>(k) * ldb));
    std::vector<Real> c(extent(stride_c, static_cast<long>(m) * ldc));
    for (auto* v : {&a, &b, &c})
      for (auto& x : *v) x = static_cast<Real>(val(rng));

    std::vector<Real> looped = c;
    FlopSection loop_section;
    for (int i = 0; i < batch; ++i)
      gemm_batch(isa, accumulate, alpha, m, n, k, a.data() + i * stride_a,
                 lda, 0, b.data() + i * stride_b, ldb, 0,
                 looped.data() + i * stride_c, ldc, 0, 1);
    const FlopCounter loop_flops = loop_section.delta();

    std::vector<Real> batched = c;
    FlopSection batch_section;
    gemm_batch(isa, accumulate, alpha, m, n, k, a.data(), lda, stride_a,
               b.data(), ldb, stride_b, batched.data(), ldc, stride_c, batch);
    const FlopCounter batch_flops = batch_section.delta();

    if (std::memcmp(looped.data(), batched.data(),
                    c.size() * sizeof(Real)) != 0 ||
        loop_flops.flops != batch_flops.flops) {
      ADD_FAILURE() << "batch differs from its call loop: m=" << m
                    << " n=" << n << " k=" << k << " batch=" << batch
                    << " arrangement=" << kind << " acc=" << accumulate
                    << " alpha=" << alpha;
      return;
    }
  }
}

TEST(GemmBits, StridedBatchIsTheLoopOfSingleCalls) {
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!host_supports(isa)) continue;
    SCOPED_TRACE(isa_name(isa));
    expect_batch_is_call_loop<double>(isa);
    expect_batch_is_call_loop<float>(isa);
  }
}

}  // namespace
}  // namespace exastp

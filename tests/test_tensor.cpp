// Tests for src/tensor: layout index maps, padding rules, transpose
// round-trips, the ISA transposes against the scalar reference, pad/unpad.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <set>
#include <string>

#include "exastp/common/aligned.h"
#include "exastp/tensor/layout.h"
#include "exastp/tensor/transpose.h"

namespace exastp {
namespace {

struct LayoutCase {
  int n;
  int m;
  Isa isa;
};

void PrintTo(const LayoutCase& c, std::ostream* os) {
  *os << "n" << c.n << "_m" << c.m << "_" << isa_name(c.isa);
}

class LayoutP : public ::testing::TestWithParam<LayoutCase> {};

TEST_P(LayoutP, AosIndexIsBijective) {
  const auto [n, m, isa] = GetParam();
  AosLayout aos(n, m, isa);
  std::set<std::size_t> seen;
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1)
        for (int s = 0; s < m; ++s) {
          const std::size_t i = aos.idx(k3, k2, k1, s);
          EXPECT_LT(i, aos.size());
          EXPECT_TRUE(seen.insert(i).second) << "duplicate index";
        }
}

TEST_P(LayoutP, AosQuantityIsUnitStride) {
  const auto [n, m, isa] = GetParam();
  AosLayout aos(n, m, isa);
  if (m >= 2) {
    EXPECT_EQ(aos.idx(0, 0, 0, 1) - aos.idx(0, 0, 0, 0), 1u);
  }
  EXPECT_EQ(aos.idx(0, 0, 1, 0) - aos.idx(0, 0, 0, 0),
            static_cast<std::size_t>(aos.m_pad));
}

TEST_P(LayoutP, AosoaXLineIsUnitStride) {
  const auto [n, m, isa] = GetParam();
  AosoaLayout aosoa(n, m, isa);
  if (n >= 2) {
    EXPECT_EQ(aosoa.idx(0, 0, 0, 1) - aosoa.idx(0, 0, 0, 0), 1u);
  }
  EXPECT_EQ(aosoa.idx(0, 0, 1, 0) - aosoa.idx(0, 0, 0, 0),
            static_cast<std::size_t>(aosoa.n_pad));
}

TEST_P(LayoutP, PaddingIsSimdMultiple) {
  const auto [n, m, isa] = GetParam();
  AosLayout aos(n, m, isa);
  AosoaLayout aosoa(n, m, isa);
  EXPECT_EQ(aos.m_pad % vector_width(isa), 0);
  EXPECT_GE(aos.m_pad, m);
  EXPECT_LT(aos.m_pad - m, vector_width(isa));
  EXPECT_EQ(aosoa.n_pad % vector_width(isa), 0);
}

TEST_P(LayoutP, AosAosoaRoundTrip) {
  const auto [n, m, isa] = GetParam();
  AosLayout aos(n, m, isa);
  AosoaLayout aosoa(n, m, isa);
  AlignedVector src(aos.size());
  std::iota(src.begin(), src.end(), 1.0);
  AlignedVector mid(aosoa.size()), back(aos.size());
  aos_to_aosoa(Isa::kScalar, src.data(), aos, mid.data(), aosoa);
  aosoa_to_aos(Isa::kScalar, mid.data(), aosoa, back.data(), aos);
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1)
        for (int s = 0; s < m; ++s)
          EXPECT_EQ(back[aos.idx(k3, k2, k1, s)],
                    src[aos.idx(k3, k2, k1, s)]);
}

TEST_P(LayoutP, AosoaTransposePlacesValuesAndZeroesPadding) {
  const auto [n, m, isa] = GetParam();
  AosLayout aos(n, m, isa);
  AosoaLayout aosoa(n, m, isa);
  AlignedVector src(aos.size(), -7.0);  // pad lanes carry garbage
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1)
        for (int s = 0; s < m; ++s)
          src[aos.idx(k3, k2, k1, s)] = 1000.0 * k3 + 100.0 * k2 +
                                        10.0 * k1 + s;
  AlignedVector dst(aosoa.size(), 13.0);
  aos_to_aosoa(Isa::kScalar, src.data(), aos, dst.data(), aosoa);
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int s = 0; s < m; ++s) {
        for (int k1 = 0; k1 < n; ++k1)
          EXPECT_EQ(dst[aosoa.idx(k3, k2, s, k1)],
                    1000.0 * k3 + 100.0 * k2 + 10.0 * k1 + s);
        for (int k1 = n; k1 < aosoa.n_pad; ++k1)
          EXPECT_EQ(dst[aosoa.idx(k3, k2, s, k1)], 0.0) << "pad not zeroed";
      }
}

TEST_P(LayoutP, AosSoaRoundTrip) {
  const auto [n, m, isa] = GetParam();
  AosLayout aos(n, m, isa);
  SoaLayout soa(n, m, isa);
  AlignedVector src(aos.size());
  std::iota(src.begin(), src.end(), 0.5);
  AlignedVector mid(soa.size()), back(aos.size());
  aos_to_soa(src.data(), aos, mid.data(), soa);
  soa_to_aos(mid.data(), soa, back.data(), aos);
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1)
        for (int s = 0; s < m; ++s)
          EXPECT_EQ(back[aos.idx(k3, k2, k1, s)],
                    src[aos.idx(k3, k2, k1, s)]);
}

TEST_P(LayoutP, PadUnpadRoundTrip) {
  const auto [n, m, isa] = GetParam();
  AosLayout aos(n, m, isa);
  const std::size_t nodes = static_cast<std::size_t>(n) * n * n;
  std::vector<double> tight(nodes * m);
  std::iota(tight.begin(), tight.end(), 2.0);
  AlignedVector padded(aos.size(), -1.0);
  pad_aos(tight.data(), n, m, padded.data(), aos);
  // Pad lanes must be exactly zero (they take part in SIMD arithmetic).
  for (std::size_t k = 0; k < nodes; ++k)
    for (int s = m; s < aos.m_pad; ++s)
      EXPECT_EQ(padded[k * aos.m_pad + s], 0.0);
  std::vector<double> back(nodes * m, -1.0);
  unpad_aos(padded.data(), aos, m, back.data());
  EXPECT_EQ(back, tight);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LayoutP,
    ::testing::Values(LayoutCase{2, 1, Isa::kScalar},
                      LayoutCase{3, 5, Isa::kAvx2},
                      LayoutCase{4, 9, Isa::kAvx512},
                      LayoutCase{5, 21, Isa::kAvx512},
                      LayoutCase{8, 21, Isa::kAvx512},
                      LayoutCase{9, 21, Isa::kAvx512},
                      LayoutCase{6, 3, Isa::kAvx2},
                      LayoutCase{11, 21, Isa::kAvx512}));

// The register-block transposes of every host ISA against the scalar
// reference: same bytes, every destination element written (the
// destination starts as a sentinel), and AoS -> AoSoA -> AoS returns the
// input.
TEST(Transpose, IsaBlocksMatchTheScalarReference) {
  constexpr double kSentinel = -7.25e300;
  auto same_bytes = [](const AlignedVector& a, const AlignedVector& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  auto fully_written = [&](const AlignedVector& v) {
    return std::find(v.begin(), v.end(), kSentinel) == v.end();
  };
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!host_supports(isa)) continue;
    for (int n = 2; n <= 11; ++n)
      for (int m : {1, 4, 6, 9, 12, 21}) {
        SCOPED_TRACE(isa_name(isa) + " n" + std::to_string(n) + " m" +
                     std::to_string(m));
        const AosLayout aos(n, m, isa);
        const AosoaLayout aosoa(n, m, isa);
        // Distinct values everywhere, padding lanes included: the source
        // padding must not leak into the destination.
        AlignedVector aos_src(aos.size()), aosoa_src(aosoa.size());
        std::iota(aos_src.begin(), aos_src.end(), 1.0);
        std::iota(aosoa_src.begin(), aosoa_src.end(), -0.5);

        AlignedVector want(aosoa.size(), kSentinel),
            got(aosoa.size(), kSentinel);
        aos_to_aosoa(Isa::kScalar, aos_src.data(), aos, want.data(), aosoa);
        aos_to_aosoa(isa, aos_src.data(), aos, got.data(), aosoa);
        EXPECT_TRUE(fully_written(want) && fully_written(got));
        EXPECT_TRUE(same_bytes(got, want)) << "AoS -> AoSoA";

        AlignedVector back_want(aos.size(), kSentinel),
            back_got(aos.size(), kSentinel);
        aosoa_to_aos(Isa::kScalar, aosoa_src.data(), aosoa, back_want.data(),
                     aos);
        aosoa_to_aos(isa, aosoa_src.data(), aosoa, back_got.data(), aos);
        EXPECT_TRUE(fully_written(back_want) && fully_written(back_got));
        EXPECT_TRUE(same_bytes(back_got, back_want)) << "AoSoA -> AoS";

        // Round trip of a tensor with zero padding, as the engine keeps it.
        AlignedVector state(aos.size(), 0.0);
        for (std::size_t k = 0; k < aos.size(); ++k)
          if (static_cast<int>(k % aos.m_pad) < m) state[k] = aos_src[k];
        AlignedVector mid(aosoa.size(), kSentinel),
            round(aos.size(), kSentinel);
        aos_to_aosoa(isa, state.data(), aos, mid.data(), aosoa);
        aosoa_to_aos(isa, mid.data(), aosoa, round.data(), aos);
        EXPECT_TRUE(same_bytes(round, state)) << "round trip";
      }
  }
}

TEST(Padding, SweetspotOrder8NoOverheadOrder9Worst) {
  // Sec. V-A: with AVX-512 (8 doubles) order 8 needs no x-line padding while
  // order 9 pads to 16 — the largest relative overhead in the sweep.
  AosoaLayout n8(8, 21, Isa::kAvx512);
  AosoaLayout n9(9, 21, Isa::kAvx512);
  EXPECT_EQ(n8.n_pad, 8);
  EXPECT_DOUBLE_EQ(n8.padding_overhead(), 0.0);
  EXPECT_EQ(n9.n_pad, 16);
  EXPECT_DOUBLE_EQ(n9.padding_overhead(), 7.0 / 16.0);
  // Order 9 is the worst case in the high-order regime the paper sweeps.
  for (int n : {6, 7, 8, 10, 11})
    EXPECT_GT(n9.padding_overhead(),
              AosoaLayout(n, 21, Isa::kAvx512).padding_overhead())
        << "n=" << n;
}

}  // namespace
}  // namespace exastp

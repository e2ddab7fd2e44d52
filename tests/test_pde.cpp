// Tests for src/pde: user-function algebra (linearity, zero parameter rows),
// pointwise vs vectorized-line consistency for every PDE, wave speeds, and
// point-source machinery (Hermite/Ricker derivatives, delta projection).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "exastp/pde/acoustic.h"
#include "exastp/pde/advection.h"
#include "exastp/pde/curvilinear_elastic.h"
#include "exastp/pde/elastic.h"
#include "exastp/pde/maxwell.h"
#include "exastp/pde/pde_base.h"
#include "exastp/pde/pde_lines.h"
#include "exastp/pde/point_source.h"

namespace exastp {
namespace {

// Fills a physically admissible random state: wave quantities in [-1,1],
// material parameters positive, metric close to identity.
template <class Pde>
std::vector<double> random_state(std::mt19937& rng) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> q(Pde::kQuants);
  for (int s = 0; s < Pde::kVars; ++s) q[s] = dist(rng);
  if constexpr (std::is_same_v<Pde, AcousticPde>) {
    q[AcousticPde::kRho] = 1.3 + 0.2 * dist(rng);
    q[AcousticPde::kC] = 2.0 + 0.5 * dist(rng);
  } else if constexpr (std::is_same_v<Pde, ElasticPde>) {
    q[ElasticPde::kRho] = 2.6 + 0.2 * dist(rng);
    q[ElasticPde::kCp] = 6.0 + 0.5 * dist(rng);
    q[ElasticPde::kCs] = 3.4 + 0.3 * dist(rng);
  } else if constexpr (std::is_same_v<Pde, MaxwellPde>) {
    q[MaxwellPde::kEps] = 1.5 + 0.3 * dist(rng);
    q[MaxwellPde::kMu] = 0.8 + 0.2 * dist(rng);
  } else if constexpr (std::is_same_v<Pde, CurvilinearElasticPde>) {
    q[CurvilinearElasticPde::kRho] = 2.6 + 0.2 * dist(rng);
    q[CurvilinearElasticPde::kCp] = 6.0 + 0.5 * dist(rng);
    q[CurvilinearElasticPde::kCs] = 3.4 + 0.3 * dist(rng);
    for (int r = 0; r < 3; ++r)
      for (int c = 0; c < 3; ++c)
        q[CurvilinearElasticPde::kMetric + 3 * r + c] =
            (r == c ? 1.0 : 0.0) + 0.1 * dist(rng);
  }
  return q;
}

template <class Pde>
class PdeTypedTest : public ::testing::Test {};

using AllPdes = ::testing::Types<AdvectionPde, AdvectionNcpPde, AcousticPde,
                                 ElasticPde, CurvilinearElasticPde,
                                 MaxwellPde>;
TYPED_TEST_SUITE(PdeTypedTest, AllPdes);

TYPED_TEST(PdeTypedTest, QuantityCountsConsistent) {
  EXPECT_EQ(TypeParam::kQuants, TypeParam::kVars + TypeParam::kParams);
  EXPECT_GT(TypeParam::kVars, 0);
}

TYPED_TEST(PdeTypedTest, ParameterRowsHaveZeroFluxAndNcp) {
  std::mt19937 rng(1);
  TypeParam pde;
  auto q = random_state<TypeParam>(rng);
  auto grad = random_state<TypeParam>(rng);
  std::vector<double> f(TypeParam::kQuants), b(TypeParam::kQuants);
  for (int dir = 0; dir < 3; ++dir) {
    pde.flux(q.data(), dir, f.data());
    pde.ncp(q.data(), grad.data(), dir, b.data());
    for (int s = TypeParam::kVars; s < TypeParam::kQuants; ++s) {
      EXPECT_EQ(f[s], 0.0) << "flux parameter row " << s;
      EXPECT_EQ(b[s], 0.0) << "ncp parameter row " << s;
    }
  }
}

TYPED_TEST(PdeTypedTest, FluxIsLinearInWaveQuantities) {
  // For fixed parameters, F(alpha q1 + q2) == alpha F(q1) + F(q2) on the
  // evolved rows — the linearity assumption the whole CK scheme rests on.
  std::mt19937 rng(2);
  TypeParam pde;
  auto q1 = random_state<TypeParam>(rng);
  auto q2 = q1;  // same parameters
  std::mt19937 rng2(3);
  auto tmp = random_state<TypeParam>(rng2);
  for (int s = 0; s < TypeParam::kVars; ++s) q2[s] = tmp[s];
  const double alpha = 1.7;
  std::vector<double> qc(q1), f1(TypeParam::kQuants), f2(TypeParam::kQuants),
      fc(TypeParam::kQuants);
  for (int s = 0; s < TypeParam::kVars; ++s)
    qc[s] = alpha * q1[s] + q2[s];
  for (int dir = 0; dir < 3; ++dir) {
    pde.flux(q1.data(), dir, f1.data());
    pde.flux(q2.data(), dir, f2.data());
    pde.flux(qc.data(), dir, fc.data());
    for (int s = 0; s < TypeParam::kVars; ++s)
      EXPECT_NEAR(fc[s], alpha * f1[s] + f2[s], 1e-10)
          << "dir " << dir << " row " << s;
  }
}

TYPED_TEST(PdeTypedTest, NcpIsLinearInGradient) {
  std::mt19937 rng(4);
  TypeParam pde;
  auto q = random_state<TypeParam>(rng);
  auto g1 = random_state<TypeParam>(rng);
  auto g2 = random_state<TypeParam>(rng);
  const double alpha = -0.6;
  std::vector<double> gc(TypeParam::kQuants), b1(TypeParam::kQuants),
      b2(TypeParam::kQuants), bc(TypeParam::kQuants);
  for (int s = 0; s < TypeParam::kQuants; ++s)
    gc[s] = alpha * g1[s] + g2[s];
  for (int dir = 0; dir < 3; ++dir) {
    pde.ncp(q.data(), g1.data(), dir, b1.data());
    pde.ncp(q.data(), g2.data(), dir, b2.data());
    pde.ncp(q.data(), gc.data(), dir, bc.data());
    for (int s = 0; s < TypeParam::kQuants; ++s)
      EXPECT_NEAR(bc[s], alpha * b1[s] + b2[s], 1e-10);
  }
}

// The vectorized user functions must agree with the pointwise ones lane by
// lane — this is the correctness contract of the Fig. 8 transformation.
// The lane counts give a tail-only line (1), one full chunk on AVX-512 (8),
// full chunks and a tail on every path (13), and whole lines of several
// chunks (16, 24). The outputs start as NaN, so a row that a body does not
// write fails, and the lanes past len must keep their NaN. fp64 lines are
// held to 1e-12 absolute on every path. fp32 lines run on the rounded
// inputs and are held to a float tolerance relative to the call's largest
// pointwise magnitude (rho cp^2 v reaches a few hundred in elastic).
template <class Pde, class Real>
void expect_lines_match_pointwise(Isa isa) {
  const Real nan = std::numeric_limits<Real>::quiet_NaN();
  std::mt19937 rng(5);
  Pde pde;
  for (int len : {1, 8, 13, 16, 24}) {
    const int stride = len + 3;
    const std::size_t size = static_cast<std::size_t>(Pde::kQuants) * stride;
    std::vector<Real> qs(size, Real(0)), gs(size, Real(0));
    std::vector<std::vector<double>> q_nodes, g_nodes;
    for (int i = 0; i < len; ++i) {
      q_nodes.push_back(random_state<Pde>(rng));
      g_nodes.push_back(random_state<Pde>(rng));
      for (int s = 0; s < Pde::kQuants; ++s) {
        qs[s * stride + i] = static_cast<Real>(q_nodes.back()[s]);
        gs[s * stride + i] = static_cast<Real>(g_nodes.back()[s]);
        q_nodes.back()[s] = qs[s * stride + i];
        g_nodes.back()[s] = gs[s * stride + i];
      }
    }
    std::vector<double> f_pt(Pde::kQuants), b_pt(Pde::kQuants);
    for (int dir = 0; dir < 3; ++dir) {
      std::vector<Real> f_line(size, nan), b_line(size, nan);
      flux_line(isa, pde, qs.data(), dir, f_line.data(), len, stride, 1, 0);
      ncp_line(isa, pde, qs.data(), gs.data(), dir, b_line.data(), len,
               stride, 1, 0);
      double scale = 1.0;
      for (int i = 0; i < len; ++i) {
        pde.flux(q_nodes[i].data(), dir, f_pt.data());
        pde.ncp(q_nodes[i].data(), g_nodes[i].data(), dir, b_pt.data());
        for (int s = 0; s < Pde::kQuants; ++s)
          scale = std::max({scale, std::abs(f_pt[s]), std::abs(b_pt[s])});
      }
      const double bound = std::is_same_v<Real, float> ? 1e-5 * scale : 1e-12;
      for (int i = 0; i < stride; ++i) {
        if (i < len) {
          pde.flux(q_nodes[i].data(), dir, f_pt.data());
          pde.ncp(q_nodes[i].data(), g_nodes[i].data(), dir, b_pt.data());
        }
        for (int s = 0; s < Pde::kQuants; ++s) {
          const double f = f_line[s * stride + i];
          const double b = b_line[s * stride + i];
          if (i >= len) {
            EXPECT_TRUE(std::isnan(f) && std::isnan(b))
                << "len " << len << " dir " << dir << " wrote lane " << i
                << " row " << s;
            continue;
          }
          EXPECT_NEAR(f, f_pt[s], bound)
              << "flux len " << len << " dir " << dir << " lane " << i
              << " row " << s;
          EXPECT_NEAR(b, b_pt[s], bound)
              << "ncp len " << len << " dir " << dir << " lane " << i
              << " row " << s;
        }
      }
    }
  }
}

TYPED_TEST(PdeTypedTest, LineFunctionsMatchPointwise) {
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!host_supports(isa)) continue;
    SCOPED_TRACE(isa_name(isa));
    expect_lines_match_pointwise<TypeParam, double>(isa);
    expect_lines_match_pointwise<TypeParam, float>(isa);
  }
}

TYPED_TEST(PdeTypedTest, LineFunctionsRejectADirectionOutOfRange) {
  TypeParam pde;
  std::vector<double> q(TypeParam::kQuants, 1.0), out(TypeParam::kQuants);
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!host_supports(isa)) continue;
    for (int dir : {-1, 3}) {
      EXPECT_THROW(flux_line(isa, pde, q.data(), dir, out.data(), 1, 1, 1, 0),
                   std::invalid_argument)
          << isa_name(isa) << " dir " << dir;
      EXPECT_THROW(ncp_line(isa, pde, q.data(), q.data(), dir, out.data(), 1,
                            1, 1, 0),
                   std::invalid_argument)
          << isa_name(isa) << " dir " << dir;
    }
  }
}

TYPED_TEST(PdeTypedTest, LineFunctionsTolerateZeroPaddedLanes) {
  // Lanes beyond the real nodes carry all-zero state (including rho = 0);
  // the user functions must not produce NaN/Inf there (Sec. V-C).
  constexpr int kLen = 8, kStride = 8;
  std::mt19937 rng(6);
  TypeParam pde;
  std::vector<double> qs(TypeParam::kQuants * kStride, 0.0);
  std::vector<double> gs(TypeParam::kQuants * kStride, 0.0);
  auto q = random_state<TypeParam>(rng);
  for (int s = 0; s < TypeParam::kQuants; ++s) qs[s * kStride] = q[s];
  std::vector<double> f(TypeParam::kQuants * kStride, 0.0);
  std::vector<double> b(TypeParam::kQuants * kStride, 0.0);
  for (int dir = 0; dir < 3; ++dir) {
    flux_line(Isa::kScalar, pde, qs.data(), dir, f.data(), kLen, kStride, 1,
              0);
    ncp_line(Isa::kScalar, pde, qs.data(), gs.data(), dir, b.data(), kLen,
             kStride, 1, 0);
    for (double v : f) EXPECT_TRUE(std::isfinite(v));
    for (double v : b) EXPECT_TRUE(std::isfinite(v));
  }
}

TYPED_TEST(PdeTypedTest, IsaLineVariantsAgree) {
  constexpr int kLen = 16, kStride = 16;
  std::mt19937 rng(7);
  TypeParam pde;
  std::vector<double> qs(TypeParam::kQuants * kStride, 0.0);
  std::vector<double> gs(TypeParam::kQuants * kStride, 0.0);
  for (int i = 0; i < kLen; ++i) {
    auto q = random_state<TypeParam>(rng);
    auto g = random_state<TypeParam>(rng);
    for (int s = 0; s < TypeParam::kQuants; ++s) {
      qs[s * kStride + i] = q[s];
      gs[s * kStride + i] = g[s];
    }
  }
  std::vector<double> ref_f(TypeParam::kQuants * kStride);
  std::vector<double> ref_b(TypeParam::kQuants * kStride);
  flux_line(Isa::kScalar, pde, qs.data(), 1, ref_f.data(), kLen, kStride, 1,
            0);
  ncp_line(Isa::kScalar, pde, qs.data(), gs.data(), 1, ref_b.data(), kLen,
           kStride, 1, 0);
  for (Isa isa : {Isa::kAvx2, Isa::kAvx512}) {
    if (!host_supports(isa)) continue;
    std::vector<double> f(TypeParam::kQuants * kStride);
    std::vector<double> b(TypeParam::kQuants * kStride);
    flux_line(isa, pde, qs.data(), 1, f.data(), kLen, kStride, 1, 0);
    ncp_line(isa, pde, qs.data(), gs.data(), 1, b.data(), kLen, kStride, 1,
             0);
    for (std::size_t i = 0; i < f.size(); ++i) {
      EXPECT_NEAR(f[i], ref_f[i], 1e-13);
      EXPECT_NEAR(b[i], ref_b[i], 1e-13);
    }
  }
}

// A multi-line call is the loop of single-line calls: L lines at line
// stride S write the same bytes (gaps between lines untouched) and book the
// same FLOPs in every width class, for both precisions and every host ISA.
// The lane count 13 leaves a remainder on every path, so the per-line
// scalar booking is covered too.
template <class Pde, class Real>
void expect_multi_line_is_single_line_loop(Isa isa) {
  constexpr int kLen = 13, kStride = 16;
  constexpr long kLineStride = Pde::kQuants * kStride + 5;
  std::mt19937 rng(9);
  Pde pde;
  for (int lines : {0, 1, 2, 7}) {
    // One element past the last line: a sentinel no call may touch.
    const std::size_t size =
        static_cast<std::size_t>(lines) * kLineStride + 1;
    std::vector<Real> q(size, Real(0)), grad(size, Real(0));
    for (int l = 0; l < lines; ++l)
      for (int i = 0; i < kLen; ++i) {
        const auto qi = random_state<Pde>(rng);
        const auto gi = random_state<Pde>(rng);
        for (int s = 0; s < Pde::kQuants; ++s) {
          q[l * kLineStride + s * kStride + i] = static_cast<Real>(qi[s]);
          grad[l * kLineStride + s * kStride + i] = static_cast<Real>(gi[s]);
        }
      }
    for (int dir = 0; dir < 3; ++dir) {
      std::vector<Real> f_one(size, Real(-7)), b_one(size, Real(-7));
      std::vector<Real> f_all = f_one, b_all = b_one;
      FlopSection one;
      for (int l = 0; l < lines; ++l) {
        const long off = l * kLineStride;
        flux_line(isa, pde, q.data() + off, dir, f_one.data() + off, kLen,
                  kStride, 1, 0);
        ncp_line(isa, pde, q.data() + off, grad.data() + off, dir,
                 b_one.data() + off, kLen, kStride, 1, 0);
      }
      const FlopCounter one_flops = one.delta();
      FlopSection all;
      flux_line(isa, pde, q.data(), dir, f_all.data(), kLen, kStride, lines,
                kLineStride);
      ncp_line(isa, pde, q.data(), grad.data(), dir, b_all.data(), kLen,
               kStride, lines, kLineStride);
      const FlopCounter all_flops = all.delta();
      const std::size_t bytes = size * sizeof(Real);
      EXPECT_EQ(std::memcmp(f_one.data(), f_all.data(), bytes), 0)
          << "flux, lines " << lines << " dir " << dir;
      EXPECT_EQ(std::memcmp(b_one.data(), b_all.data(), bytes), 0)
          << "ncp, lines " << lines << " dir " << dir;
      EXPECT_EQ(one_flops.flops, all_flops.flops)
          << "FLOPs, lines " << lines << " dir " << dir;
    }
  }
}

TYPED_TEST(PdeTypedTest, MultiLineCallsAreTheSingleLineLoopBitForBit) {
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!host_supports(isa)) continue;
    SCOPED_TRACE(isa_name(isa));
    expect_multi_line_is_single_line_loop<TypeParam, double>(isa);
    expect_multi_line_is_single_line_loop<TypeParam, float>(isa);
  }
}

TYPED_TEST(PdeTypedTest, AdapterForwardsEverything) {
  std::mt19937 rng(8);
  PdeAdapter<TypeParam> adapter;
  TypeParam pde;
  auto q = random_state<TypeParam>(rng);
  auto g = random_state<TypeParam>(rng);
  EXPECT_EQ(adapter.info().quants, TypeParam::kQuants);
  EXPECT_EQ(adapter.info().name, TypeParam::kName);
  std::vector<double> fa(TypeParam::kQuants), fb(TypeParam::kQuants);
  std::vector<double> ba(TypeParam::kQuants), bb(TypeParam::kQuants);
  for (int dir = 0; dir < 3; ++dir) {
    adapter.flux(q.data(), dir, fa.data());
    pde.flux(q.data(), dir, fb.data());
    adapter.ncp(q.data(), g.data(), dir, ba.data());
    pde.ncp(q.data(), g.data(), dir, bb.data());
    EXPECT_EQ(fa, fb);
    EXPECT_EQ(ba, bb);
    EXPECT_EQ(adapter.max_wave_speed(q.data(), dir),
              pde.max_wave_speed(q.data(), dir));
  }
}

TEST(WaveSpeeds, MatchPhysics) {
  std::mt19937 rng(9);
  auto qa = random_state<AcousticPde>(rng);
  EXPECT_DOUBLE_EQ(AcousticPde{}.max_wave_speed(qa.data(), 0),
                   qa[AcousticPde::kC]);
  auto qe = random_state<ElasticPde>(rng);
  EXPECT_DOUBLE_EQ(ElasticPde{}.max_wave_speed(qe.data(), 2),
                   qe[ElasticPde::kCp]);
  AdvectionPde adv;
  EXPECT_DOUBLE_EQ(adv.max_wave_speed(nullptr, 0), std::abs(adv.velocity[0]));
}

TEST(WaveSpeeds, CurvilinearIdentityMetricReducesToCp) {
  std::mt19937 rng(10);
  auto q = random_state<CurvilinearElasticPde>(rng);
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 3; ++c)
      q[CurvilinearElasticPde::kMetric + 3 * r + c] = (r == c) ? 1.0 : 0.0;
  for (int dir = 0; dir < 3; ++dir)
    EXPECT_NEAR(CurvilinearElasticPde{}.max_wave_speed(q.data(), dir),
                q[CurvilinearElasticPde::kCp], 1e-14);
}

TEST(CurvilinearIdentity, MatchesElasticSplitIntoFluxAndNcp) {
  // With G = I the curvilinear flux must equal the elastic velocity-row flux
  // and the curvilinear NCP must equal the elastic stress-row flux response
  // to the same gradient (constant material): the pointwise half of the
  // cross-PDE kernel equivalence.
  std::mt19937 rng(11);
  auto qe = random_state<ElasticPde>(rng);
  std::vector<double> qc(CurvilinearElasticPde::kQuants, 0.0);
  for (int s = 0; s < 12; ++s) qc[s] = qe[s];
  for (int r = 0; r < 3; ++r)
    qc[CurvilinearElasticPde::kMetric + 3 * r + r] = 1.0;
  std::vector<double> fe(ElasticPde::kQuants), fc(CurvilinearElasticPde::kQuants);
  for (int dir = 0; dir < 3; ++dir) {
    ElasticPde{}.flux(qe.data(), dir, fe.data());
    CurvilinearElasticPde{}.flux(qc.data(), dir, fc.data());
    for (int s = 0; s < 3; ++s)
      EXPECT_NEAR(fc[s], fe[s], 1e-12) << "velocity row " << s;
    // Stress response: elastic expresses it as flux of the state, the
    // curvilinear PDE as NCP applied to the gradient. Feeding the *state*
    // as gradient must reproduce the elastic stress flux rows.
    std::vector<double> bc(CurvilinearElasticPde::kQuants);
    CurvilinearElasticPde{}.ncp(qc.data(), qc.data(), dir, bc.data());
    for (int s = 3; s < 9; ++s)
      EXPECT_NEAR(bc[s], fe[s], 1e-10) << "stress row " << s;
  }
}

TEST(Hermite, KnownPolynomials) {
  for (double x : {-1.5, -0.2, 0.0, 0.7, 2.0}) {
    EXPECT_DOUBLE_EQ(hermite(0, x), 1.0);
    EXPECT_DOUBLE_EQ(hermite(1, x), 2 * x);
    EXPECT_NEAR(hermite(2, x), 4 * x * x - 2, 1e-12);
    EXPECT_NEAR(hermite(3, x), 8 * x * x * x - 12 * x, 1e-11);
    EXPECT_NEAR(hermite(4, x), 16 * std::pow(x, 4) - 48 * x * x + 12, 1e-10);
  }
}

TEST(Ricker, ValueMatchesClosedForm) {
  RickerWavelet w(2.0, 0.5);
  const double a = M_PI * M_PI * 4.0;
  for (double t : {0.0, 0.3, 0.5, 0.9}) {
    const double tau = t - 0.5;
    const double expected =
        (1.0 - 2.0 * a * tau * tau) * std::exp(-a * tau * tau);
    EXPECT_NEAR(w.derivative(t, 0), expected, 1e-12) << "t=" << t;
  }
}

class RickerDerivP : public ::testing::TestWithParam<int> {};

TEST_P(RickerDerivP, MatchesCentralFiniteDifference) {
  const int o = GetParam();
  RickerWavelet w(1.5, 0.4);
  const double h = 1e-5;
  for (double t : {0.1, 0.4, 0.62}) {
    const double fd =
        (w.derivative(t + h, o - 1) - w.derivative(t - h, o - 1)) / (2 * h);
    const double exact = w.derivative(t, o);
    EXPECT_NEAR(fd, exact, 1e-4 * std::max(1.0, std::abs(exact)))
        << "o=" << o << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, RickerDerivP, ::testing::Range(1, 7));

TEST(PolynomialWavelet, DerivativesAreExact) {
  // s(t) = 2 - t + 3 t^2 + 0.5 t^3
  PolynomialWavelet w({2.0, -1.0, 3.0, 0.5});
  const double t = 1.3;
  EXPECT_NEAR(w.derivative(t, 0), 2 - t + 3 * t * t + 0.5 * t * t * t, 1e-12);
  EXPECT_NEAR(w.derivative(t, 1), -1 + 6 * t + 1.5 * t * t, 1e-12);
  EXPECT_NEAR(w.derivative(t, 2), 6 + 3 * t, 1e-12);
  EXPECT_NEAR(w.derivative(t, 3), 3.0, 1e-12);
  EXPECT_EQ(w.derivative(t, 4), 0.0);
  EXPECT_EQ(w.derivative(t, 9), 0.0);
}

TEST(PointSourceProjection, ReproducesPointEvaluationOnAnsatzSpace) {
  // For any polynomial f in the tensor ansatz space:
  //   sum_k psi_k * (w_k * vol) * f(x_k) == f(xi0)
  // i.e. testing the projected delta against f integrates to a point
  // evaluation — the defining property of the P operator.
  const auto& basis = basis_tables(4);
  const std::array<double, 3> xi0{0.31, 0.62, 0.17};
  const double volume = 0.008;  // h = 0.2 cube
  AlignedVector psi = project_point_source(basis, xi0, volume);
  auto f = [](double x, double y, double z) {
    return 1.0 + 2 * x - y * y * y + x * y * z + 0.3 * z * z;
  };
  double integral = 0.0;
  const int n = basis.n;
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1) {
        const double w =
            basis.weights[k1] * basis.weights[k2] * basis.weights[k3] * volume;
        integral += psi[(k3 * n + k2) * n + k1] * w *
                    f(basis.nodes[k1], basis.nodes[k2], basis.nodes[k3]);
      }
  EXPECT_NEAR(integral, f(xi0[0], xi0[1], xi0[2]), 1e-10);
}

TEST(PointSourceProjection, RejectsOutOfCellPositions) {
  const auto& basis = basis_tables(3);
  EXPECT_THROW(project_point_source(basis, {1.2, 0.5, 0.5}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(project_point_source(basis, {0.5, 0.5, 0.5}, -1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace exastp

// Tests for the four STP kernel variants.
//
// The load-bearing property of the whole paper: Generic, LoG, SplitCK and
// AoSoA SplitCK are *the same numerical scheme* — only data layout, loop
// structure and instruction selection differ. We verify:
//   * four-way equivalence of qavg/favg for every PDE x order x ISA sweep,
//   * Taylor exactness of the predictor on polynomial advection solutions,
//   * exact point-source integration for polynomial wavelets,
//   * the optional half-window output: bit-identical to a separate dt/2
//     run, with qavg/favg untouched by requesting it,
//   * cross-PDE equivalences (flux-form vs NCP-form advection; elastic vs
//     identity-metric curvilinear elastic),
//   * the footprint claims of Sec. IV-A (O(N^4 m) vs O(N^3 m), 1 MiB L2
//     crossover),
//   * face projection / Rusanov / lift building blocks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "exastp/common/taylor.h"
#include "exastp/kernels/face.h"
#include "exastp/kernels/registry.h"
#include "exastp/pde/acoustic.h"
#include "exastp/pde/advection.h"
#include "exastp/pde/curvilinear_elastic.h"
#include "exastp/pde/elastic.h"
#include "exastp/tensor/transpose.h"

namespace exastp {
namespace {

// Smooth nodal state: waves from low-order trig functions, physical
// parameters varying gently across the cell.
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

// Runs one variant on an unpadded AoS state and returns unpadded outputs.
template <class Pde>
StpResult run_stp(Pde pde, StpVariant variant, int order, Isa isa,
                  const std::vector<double>& state, double dt,
                  const std::array<double, 3>& inv_dx,
                  const SourceTerm* source = nullptr) {
  StpKernel kernel = make_stp_kernel(pde, variant, order, isa);
  const AosLayout& aos = kernel.layout();
  AlignedVector q(aos.size()), qavg(aos.size());
  std::array<AlignedVector, 3> favg;
  for (auto& f : favg) f.assign(aos.size(), 0.0);
  pad_aos(state.data(), order, Pde::kQuants, q.data(), aos);
  StpOutputs out{qavg.data(), {favg[0].data(), favg[1].data(),
                               favg[2].data()}};
  kernel.run(q.data(), dt, inv_dx, source, out);
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

struct EquivCase {
  int order;
  Isa isa;
};

void PrintTo(const EquivCase& c, std::ostream* os) {
  *os << "n" << c.order << "_" << isa_name(c.isa);
}

template <class Pde>
class VariantEquivalence : public ::testing::TestWithParam<EquivCase> {
 protected:
  void Check() {
    const auto [order, isa] = this->GetParam();
    if (!host_supports(isa)) GTEST_SKIP();
    auto state = smooth_cell_state<Pde>(order);
    const double h = 0.25;
    const std::array<double, 3> inv_dx{1.0 / h, 1.0 / h, 1.0 / h};
    // CFL-scaled dt keeps the Taylor terms tame at high order.
    const double dt = 0.2 * h / (10.0 * order * order);
    auto ref =
        run_stp(Pde{}, StpVariant::kGeneric, order, Isa::kScalar, state, dt,
                inv_dx);
    for (StpVariant v : {StpVariant::kLog, StpVariant::kSplitCk,
                         StpVariant::kAosoaSplitCk,
                         StpVariant::kSoaUfSplitCk}) {
      auto got = run_stp(Pde{}, v, order, isa, state, dt, inv_dx);
      expect_close(got.qavg, ref.qavg, 1e-9, variant_name(v) + " qavg");
      for (int d = 0; d < 3; ++d)
        expect_close(got.favg[d], ref.favg[d], 1e-9,
                     variant_name(v) + " favg" + std::to_string(d));
    }
  }
};

using AdvEquiv = VariantEquivalence<AdvectionPde>;
using AdvNcpEquiv = VariantEquivalence<AdvectionNcpPde>;
using AcouEquiv = VariantEquivalence<AcousticPde>;
using ElasEquiv = VariantEquivalence<ElasticPde>;
using CurviEquiv = VariantEquivalence<CurvilinearElasticPde>;

TEST_P(AdvEquiv, AllVariantsAgree) { Check(); }
TEST_P(AdvNcpEquiv, AllVariantsAgree) { Check(); }
TEST_P(AcouEquiv, AllVariantsAgree) { Check(); }
TEST_P(ElasEquiv, AllVariantsAgree) { Check(); }
TEST_P(CurviEquiv, AllVariantsAgree) { Check(); }

const EquivCase kEquivCases[] = {
    {2, Isa::kScalar}, {3, Isa::kAvx2},   {4, Isa::kAvx512},
    {5, Isa::kScalar}, {6, Isa::kAvx512}, {8, Isa::kAvx512},
    {9, Isa::kAvx512}, {11, Isa::kAvx512}};

INSTANTIATE_TEST_SUITE_P(Sweep, AdvEquiv, ::testing::ValuesIn(kEquivCases));
INSTANTIATE_TEST_SUITE_P(Sweep, AdvNcpEquiv,
                         ::testing::ValuesIn(kEquivCases));
INSTANTIATE_TEST_SUITE_P(Sweep, AcouEquiv, ::testing::ValuesIn(kEquivCases));
INSTANTIATE_TEST_SUITE_P(Sweep, ElasEquiv, ::testing::ValuesIn(kEquivCases));
INSTANTIATE_TEST_SUITE_P(Sweep, CurviEquiv,
                         ::testing::ValuesIn(kEquivCases));

// ---------------------------------------------------------------------------
// Taylor exactness on polynomial advection.

class PredictorExactness : public ::testing::TestWithParam<StpVariant> {};

TEST_P(PredictorExactness, PolynomialAdvectionIsIntegratedExactly) {
  // q0(x) = (x + 0.5 y)^2 + z has degree 2 per direction; with n >= 4 nodes
  // the spatial representation and all time derivatives are exact, and the
  // CK series terminates, so qavg must match the analytic time average of
  // q0(x - a t) to machine precision.
  const int n = 4;
  const double h = 0.5;
  const std::array<double, 3> inv_dx{1.0 / h, 1.0 / h, 1.0 / h};
  const double dt = 0.05;
  AdvectionPde pde;
  const auto& basis = basis_tables(n);

  auto q0 = [](double x, double y, double z) {
    return (x + 0.5 * y) * (x + 0.5 * y) + z;
  };
  std::vector<double> state(static_cast<std::size_t>(n) * n * n *
                            AdvectionPde::kQuants);
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1) {
        // Physical coordinates: cell [0,h]^3.
        const double x = h * basis.nodes[k1], y = h * basis.nodes[k2],
                     z = h * basis.nodes[k3];
        double* node = state.data() + ((static_cast<std::size_t>(k3) * n +
                                        k2) * n + k1) * AdvectionPde::kQuants;
        for (int s = 0; s < AdvectionPde::kQuants; ++s)
          node[s] = (s + 1) * q0(x, y, z);
      }

  auto res = run_stp(pde, GetParam(), n, host_best_isa(), state, dt, inv_dx);

  // Analytic time average via 8-point Gauss quadrature in time (exact for
  // the quadratic-in-t integrand).
  auto tq = make_quadrature(8, NodeFamily::kGaussLegendre);
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1) {
        const double x = h * basis.nodes[k1], y = h * basis.nodes[k2],
                     z = h * basis.nodes[k3];
        double avg = 0.0;
        for (std::size_t g = 0; g < tq.nodes.size(); ++g) {
          const double t = dt * tq.nodes[g];
          avg += tq.weights[g] * q0(x - pde.velocity[0] * t,
                                    y - pde.velocity[1] * t,
                                    z - pde.velocity[2] * t);
        }
        for (int s = 0; s < AdvectionPde::kQuants; ++s) {
          const std::size_t i = ((static_cast<std::size_t>(k3) * n + k2) * n +
                                 k1) * AdvectionPde::kQuants + s;
          ASSERT_NEAR(res.qavg[i], (s + 1) * avg, 1e-11)
              << "node " << k1 << "," << k2 << "," << k3 << " s=" << s;
        }
      }

  // sum_d favg[d] must equal the time-averaged dq/dt = (q(dt) - q(0)) / dt.
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1) {
        const double x = h * basis.nodes[k1], y = h * basis.nodes[k2],
                     z = h * basis.nodes[k3];
        const double expected =
            (q0(x - pde.velocity[0] * dt, y - pde.velocity[1] * dt,
                z - pde.velocity[2] * dt) -
             q0(x, y, z)) /
            dt;
        for (int s = 0; s < AdvectionPde::kQuants; ++s) {
          const std::size_t i = ((static_cast<std::size_t>(k3) * n + k2) * n +
                                 k1) * AdvectionPde::kQuants + s;
          const double got =
              res.favg[0][i] + res.favg[1][i] + res.favg[2][i];
          ASSERT_NEAR(got, (s + 1) * expected, 1e-10);
        }
      }
}

TEST_P(PredictorExactness, ConstantStateIsAFixedPoint) {
  const int n = 5;
  std::vector<double> state(static_cast<std::size_t>(n) * n * n *
                            AcousticPde::kQuants);
  for (std::size_t k = 0; k < state.size() / AcousticPde::kQuants; ++k) {
    double* node = state.data() + k * AcousticPde::kQuants;
    node[0] = 3.0;
    node[1] = -1.0;
    node[2] = 0.5;
    node[3] = 2.0;
    node[AcousticPde::kRho] = 1.0;
    node[AcousticPde::kC] = 2.0;
  }
  auto res = run_stp(AcousticPde{}, GetParam(), n, host_best_isa(), state,
                     0.1, {4.0, 4.0, 4.0});
  expect_close(res.qavg, state, 1e-13, "qavg of constant state");
  for (int d = 0; d < 3; ++d)
    EXPECT_LT(max_abs(res.favg[d]), 1e-11) << "favg dim " << d;
}

TEST_P(PredictorExactness, PolynomialPointSourceIsIntegratedExactly) {
  // Zero-velocity advection + source s(t) = c0 + c1 t on quantity 2:
  // qavg = q0 + psi * (c0 dt/2 + c1 dt^2/6).
  const int n = 4;
  const double h = 1.0, dt = 0.3;
  AdvectionPde pde;
  pde.velocity = {0.0, 0.0, 0.0};
  const auto& basis = basis_tables(n);
  const double c0 = 2.0, c1 = -1.5;
  PolynomialWavelet wavelet({c0, c1});
  AlignedVector psi = project_point_source(basis, {0.4, 0.5, 0.6}, h * h * h);
  SourceTerm src;
  src.psi = psi.data();
  src.quantity = 2;
  for (int o = 0; o <= n; ++o)
    src.dt_derivatives[o] = wavelet.derivative(0.0, o);

  std::vector<double> state(static_cast<std::size_t>(n) * n * n *
                            AdvectionPde::kQuants, 1.0);
  auto res = run_stp(pde, GetParam(), n, host_best_isa(), state, dt,
                     {1.0, 1.0, 1.0}, &src);
  const double factor = c0 * dt / 2.0 + c1 * dt * dt / 6.0;
  const std::size_t nodes = static_cast<std::size_t>(n) * n * n;
  for (std::size_t k = 0; k < nodes; ++k)
    for (int s = 0; s < AdvectionPde::kQuants; ++s) {
      const double expected = 1.0 + (s == 2 ? psi[k] * factor : 0.0);
      ASSERT_NEAR(res.qavg[k * AdvectionPde::kQuants + s], expected, 1e-11)
          << "node " << k << " s " << s;
    }
}

// ---------------------------------------------------------------------------
// The half-window output (StpOutputs::qavg_half), on raw padded buffers.

constexpr double kUnwritten = -7.25e300;

/// Padded outputs of one kernel run, pre-filled with kUnwritten so that
/// any lane the kernel leaves alone shows up.
struct PaddedOutputs {
  AlignedVector qavg, half;
  std::array<AlignedVector, 3> favg;
};

PaddedOutputs run_padded(const StpKernel& kernel, const AlignedVector& q,
                         double dt, const std::array<double, 3>& inv_dx,
                         const SourceTerm* source, bool with_half) {
  const std::size_t size = kernel.layout().size();
  PaddedOutputs r;
  r.qavg.assign(size, kUnwritten);
  r.half.assign(size, kUnwritten);
  for (auto& f : r.favg) f.assign(size, kUnwritten);
  StpOutputs out{r.qavg.data(),
                 {r.favg[0].data(), r.favg[1].data(), r.favg[2].data()},
                 with_half ? r.half.data() : nullptr};
  kernel.run(q.data(), dt, inv_dx, source, out);
  return r;
}

/// Bitwise equality (memcmp: -0.0 vs 0.0 and NaN payloads count).
void expect_same_bits(const AlignedVector& got, const AlignedVector& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
        << what << " differs at index " << i << ": " << got[i] << " vs "
        << want[i];
}

TEST_P(PredictorExactness, HalfWindowIsADtOverTwoRunFromTheSamePass) {
  // Curvilinear elastic: material and metric parameter rows, padding at
  // every optimized ISA width. Anisotropic inv_dx and a cubic wavelet keep
  // every Taylor order and the source path live.
  using Pde = CurvilinearElasticPde;
  const int n = 5;
  const double dt = 2e-3;
  const std::array<double, 3> inv_dx{4.0, 5.0, 6.0};
  StpKernel kernel = make_stp_kernel(Pde{}, GetParam(), n, host_best_isa());
  const AosLayout& aos = kernel.layout();
  const auto state = smooth_cell_state<Pde>(n);
  AlignedVector q(aos.size(), 0.0);
  pad_aos(state.data(), n, Pde::kQuants, q.data(), aos);

  PolynomialWavelet wavelet({1.5, -0.5, 0.25, 2.0});
  AlignedVector psi =
      project_point_source(basis_tables(n), {0.3, 0.6, 0.4}, 1.0);
  SourceTerm src;
  src.psi = psi.data();
  src.quantity = 1;
  for (int o = 0; o <= n; ++o)
    src.dt_derivatives[o] = wavelet.derivative(0.1, o);

  for (const SourceTerm* source : {static_cast<const SourceTerm*>(nullptr),
                                   static_cast<const SourceTerm*>(&src)}) {
    const std::string tag = source != nullptr ? "point source" : "no source";
    const PaddedOutputs plain =
        run_padded(kernel, q, dt, inv_dx, source, /*with_half=*/false);
    const PaddedOutputs both =
        run_padded(kernel, q, dt, inv_dx, source, /*with_half=*/true);
    const PaddedOutputs half_run =
        run_padded(kernel, q, 0.5 * dt, inv_dx, source, /*with_half=*/false);

    // Asking for the half window changes none of the other outputs.
    expect_same_bits(both.qavg, plain.qavg, tag + ": qavg");
    for (int d = 0; d < 3; ++d)
      expect_same_bits(both.favg[d], plain.favg[d],
                       tag + ": favg[" + std::to_string(d) + "]");
    // It is the qavg of a separate dt/2 run, bit for bit.
    expect_same_bits(both.half, half_run.qavg, tag + ": qavg_half");
    EXPECT_NE(std::memcmp(both.half.data(), both.qavg.data(),
                          aos.size() * sizeof(double)),
              0)
        << tag << ": qavg_half must differ from the full-window qavg";

    // Padding lanes are zero; parameter rows pass through from q.
    const std::size_t nodes = static_cast<std::size_t>(n) * n * n;
    for (std::size_t k = 0; k < nodes; ++k)
      for (int s = Pde::kVars; s < aos.m_pad; ++s) {
        const std::size_t i = k * aos.m_pad + s;
        ASSERT_EQ(both.half[i], s < aos.m ? q[i] : 0.0)
            << tag << ": node " << k << " row " << s;
      }
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, PredictorExactness,
                         ::testing::ValuesIn(kAllVariants),
                         [](const auto& info) {
                           return variant_name(info.param);
                         });

// ---------------------------------------------------------------------------
// Cross-PDE equivalences.

TEST(CrossPde, FluxFormAndNcpFormAdvectionAgree) {
  const int n = 5;
  auto state = smooth_cell_state<AdvectionPde>(n);
  const std::array<double, 3> inv_dx{2.0, 2.0, 2.0};
  const double dt = 0.002;
  auto a = run_stp(AdvectionPde{}, StpVariant::kSplitCk, n, host_best_isa(),
                   state, dt, inv_dx);
  auto b = run_stp(AdvectionNcpPde{}, StpVariant::kSplitCk, n,
                   host_best_isa(), state, dt, inv_dx);
  expect_close(a.qavg, b.qavg, 1e-11, "qavg flux vs ncp");
  for (int d = 0; d < 3; ++d)
    expect_close(a.favg[d], b.favg[d], 1e-11, "favg flux vs ncp");
}

TEST(CrossPde, IdentityMetricCurvilinearMatchesElastic) {
  const int n = 4;
  auto elastic_state = smooth_cell_state<ElasticPde>(n);
  // Same wave/material data, identity metric appended.
  const std::size_t nodes = static_cast<std::size_t>(n) * n * n;
  std::vector<double> curvi_state(nodes * CurvilinearElasticPde::kQuants,
                                  0.0);
  for (std::size_t k = 0; k < nodes; ++k) {
    for (int s = 0; s < 12; ++s)
      curvi_state[k * 21 + s] = elastic_state[k * 12 + s];
    // Cell-wise constant material is required for the flux-form/NCP-form
    // split to commute with the derivative operator.
    curvi_state[k * 21 + ElasticPde::kRho] = 2.7;
    curvi_state[k * 21 + ElasticPde::kCp] = 6.2;
    curvi_state[k * 21 + ElasticPde::kCs] = 3.5;
    elastic_state[k * 12 + ElasticPde::kRho] = 2.7;
    elastic_state[k * 12 + ElasticPde::kCp] = 6.2;
    elastic_state[k * 12 + ElasticPde::kCs] = 3.5;
    for (int r = 0; r < 3; ++r)
      curvi_state[k * 21 + CurvilinearElasticPde::kMetric + 3 * r + r] = 1.0;
  }
  const std::array<double, 3> inv_dx{1.0, 1.0, 1.0};
  const double dt = 0.001;
  auto e = run_stp(ElasticPde{}, StpVariant::kLog, n, host_best_isa(),
                   elastic_state, dt, inv_dx);
  auto c = run_stp(CurvilinearElasticPde{}, StpVariant::kLog, n,
                   host_best_isa(), curvi_state, dt, inv_dx);
  // Compare the nine wave rows.
  for (std::size_t k = 0; k < nodes; ++k)
    for (int s = 0; s < 9; ++s) {
      ASSERT_NEAR(c.qavg[k * 21 + s], e.qavg[k * 12 + s], 1e-10)
          << "qavg node " << k << " s " << s;
      double fe = 0.0, fcv = 0.0;
      for (int d = 0; d < 3; ++d) {
        fe += e.favg[d][k * 12 + s];
        fcv += c.favg[d][k * 21 + s];
      }
      ASSERT_NEAR(fcv, fe, 1e-9) << "sum favg node " << k << " s " << s;
    }
}

// ---------------------------------------------------------------------------
// Footprint claims (Sec. IV-A).

TEST(Footprint, SplitCkShrinksFromNToThe4ToNToThe3) {
  // LoG keeps the whole space-time predictor: O(N^4 m d); SplitCK keeps four
  // cell tensors: O(N^3 m). Doubling N must scale the footprints like N^4
  // and N^3 respectively (padding makes this approximate).
  CurvilinearElasticPde pde;
  auto log4 = make_stp_kernel(pde, StpVariant::kLog, 4, Isa::kAvx512);
  auto log8 = make_stp_kernel(pde, StpVariant::kLog, 8, Isa::kAvx512);
  auto sp4 = make_stp_kernel(pde, StpVariant::kSplitCk, 4, Isa::kAvx512);
  auto sp8 = make_stp_kernel(pde, StpVariant::kSplitCk, 8, Isa::kAvx512);
  const double log_ratio = static_cast<double>(log8.workspace_bytes()) /
                           static_cast<double>(log4.workspace_bytes());
  const double sp_ratio = static_cast<double>(sp8.workspace_bytes()) /
                          static_cast<double>(sp4.workspace_bytes());
  EXPECT_NEAR(log_ratio, 16.0, 2.5);  // ~2^4
  EXPECT_NEAR(sp_ratio, 8.0, 1.0);    // ~2^3
  EXPECT_LT(sp8.workspace_bytes(), log8.workspace_bytes() / 10);
}

TEST(Footprint, LogOverflowsOneMiBL2AroundOrder6) {
  // Sec. IV-A: for a medium 3-D problem the 1 MiB L2 is exceeded from
  // N = 6 with the full space-time storage, while SplitCK stays under it.
  CurvilinearElasticPde pde;
  auto log5 = make_stp_kernel(pde, StpVariant::kLog, 5, Isa::kAvx512);
  auto log6 = make_stp_kernel(pde, StpVariant::kLog, 6, Isa::kAvx512);
  auto sp6 = make_stp_kernel(pde, StpVariant::kSplitCk, 6, Isa::kAvx512);
  const std::size_t mib = 1024 * 1024;
  EXPECT_GT(log6.workspace_bytes(), mib);
  EXPECT_LT(sp6.workspace_bytes(), mib);
  EXPECT_LT(log5.workspace_bytes(), log6.workspace_bytes());
}

TEST(Footprint, GenericReportsItsSpaceTimeArrays) {
  PdeAdapter<AcousticPde> pde;
  GenericStp stp(pde, 4);
  // (n+1 + 3*3n) cell tensors of n^3 * m doubles.
  const std::size_t cell = 4ull * 4 * 4 * AcousticPde::kQuants;
  EXPECT_EQ(stp.workspace_bytes(), (5 + 36) * cell * sizeof(double));
}

// ---------------------------------------------------------------------------
// Face building blocks.

TEST(FaceOps, ProjectionReproducesBoundaryValues) {
  const int n = 5;
  const auto& basis = basis_tables(n);
  AosLayout aos(n, 3, Isa::kAvx512);
  AlignedVector q(aos.size(), 0.0);
  auto f = [](double x, double y, double z, int s) {
    return std::pow(x, s) + y * z + 2.0 * s;
  };
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1)
        for (int s = 0; s < 3; ++s)
          q[aos.idx(k3, k2, k1, s)] =
              f(basis.nodes[k1], basis.nodes[k2], basis.nodes[k3], s);
  FaceLayout flayout(aos);
  AlignedVector face(flayout.size());
  // Right x-face: x = 1, in-face coords (a, b) = (y, z).
  project_to_face(aos, basis, q.data(), 0, 1, face.data());
  for (int b = 0; b < n; ++b)
    for (int a = 0; a < n; ++a)
      for (int s = 0; s < 3; ++s)
        EXPECT_NEAR(face[flayout.idx(b, a, s)],
                    f(1.0, basis.nodes[a], basis.nodes[b], s), 1e-11);
  // Lower z-face: z = 0, in-face coords (a, b) = (x, y).
  project_to_face(aos, basis, q.data(), 2, 0, face.data());
  for (int b = 0; b < n; ++b)
    for (int a = 0; a < n; ++a)
      for (int s = 0; s < 3; ++s)
        EXPECT_NEAR(face[flayout.idx(b, a, s)],
                    f(basis.nodes[a], basis.nodes[b], 0.0, s), 1e-11);
}

TEST(FaceOps, RusanovIsConsistent) {
  // Equal states from both sides must return exactly the physical normal
  // flux (the jump term vanishes).
  const int n = 3;
  PdeAdapter<AcousticPde> pde;
  AosLayout aos(n, AcousticPde::kQuants, Isa::kAvx512);
  FaceLayout fl(aos);
  AlignedVector qf(fl.size(), 0.0);
  for (int k = 0; k < n * n; ++k) {
    double* node = qf.data() + static_cast<std::size_t>(k) * fl.m_pad;
    node[0] = 1.0 + k;
    node[1] = 0.3;
    node[2] = -0.2;
    node[3] = 0.1;
    node[AcousticPde::kRho] = 1.0;
    node[AcousticPde::kC] = 2.0;
  }
  AlignedVector fn(fl.size(), 0.0), fstar(fl.size(), 0.0);
  face_normal_flux(pde, fl, qf.data(), 0, fn.data());
  rusanov_flux(pde, fl, qf.data(), qf.data(), fn.data(), fn.data(), 0,
               fstar.data());
  for (int k = 0; k < n * n; ++k)
    for (int v = 0; v < AcousticPde::kVars; ++v)
      EXPECT_NEAR(fstar[k * fl.m_pad + v], fn[k * fl.m_pad + v], 1e-13);
}

TEST(FaceOps, RusanovUpwindsScalarAdvection) {
  // For rightward advection the numerical flux must equal the left (upwind)
  // state's flux.
  const int n = 2;
  AdvectionPde adv;
  adv.velocity = {1.0, 0.0, 0.0};
  PdeAdapter<AdvectionPde> pde(adv);
  AosLayout aos(n, AdvectionPde::kQuants, Isa::kScalar);
  FaceLayout fl(aos);
  AlignedVector ql(fl.size(), 2.0), qr(fl.size(), 5.0);
  AlignedVector fn_l(fl.size()), fn_r(fl.size()), fstar(fl.size());
  face_normal_flux(pde, fl, ql.data(), 0, fn_l.data());
  face_normal_flux(pde, fl, qr.data(), 0, fn_r.data());
  rusanov_flux(pde, fl, ql.data(), qr.data(), fn_l.data(), fn_r.data(), 0,
               fstar.data());
  for (int k = 0; k < n * n; ++k)
    for (int v = 0; v < AdvectionPde::kVars; ++v)
      EXPECT_NEAR(fstar[k * fl.m_pad + v], fn_l[k * fl.m_pad + v], 1e-13)
          << "upwind flux must come from the left";
}

TEST(FaceOps, NormalFluxCombinesFluxAndNcpForms) {
  // Flux-form and NCP-form advection must produce the same face flux — the
  // property that makes them interchangeable in the corrector.
  const int n = 2;
  PdeAdapter<AdvectionPde> flux_form;
  PdeAdapter<AdvectionNcpPde> ncp_form;
  AosLayout aos(n, AdvectionPde::kQuants, Isa::kScalar);
  FaceLayout fl(aos);
  AlignedVector qf(fl.size());
  for (std::size_t i = 0; i < qf.size(); ++i) qf[i] = 0.1 * i - 1.0;
  AlignedVector fa(fl.size()), fb(fl.size());
  for (int dir = 0; dir < 3; ++dir) {
    face_normal_flux(flux_form, fl, qf.data(), dir, fa.data());
    face_normal_flux(ncp_form, fl, qf.data(), dir, fb.data());
    for (std::size_t i = 0; i < fa.size(); ++i)
      EXPECT_NEAR(fa[i], fb[i], 1e-13);
  }
}

TEST(FaceOps, LiftCorrectionIsLinearInJump) {
  const int n = 4;
  const auto& basis = basis_tables(n);
  AosLayout aos(n, 2, Isa::kAvx2);
  FaceLayout fl(aos);
  AlignedVector fstar(fl.size()), fown(fl.size(), 0.0);
  for (std::size_t i = 0; i < fstar.size(); ++i) fstar[i] = 0.01 * i;
  AlignedVector q1(aos.size(), 0.0), q2(aos.size(), 0.0);
  apply_face_correction(aos, basis, 1, 1, 0.5, fstar.data(), fown.data(),
                        q1.data());
  // Doubling the jump doubles the correction.
  for (auto& v : fstar) v *= 2.0;
  apply_face_correction(aos, basis, 1, 1, 0.5, fstar.data(), fown.data(),
                        q2.data());
  for (std::size_t i = 0; i < q1.size(); ++i)
    EXPECT_NEAR(q2[i], 2.0 * q1[i], 1e-12);
}

TEST(Registry, ParsesVariantNames) {
  EXPECT_EQ(parse_variant("generic"), StpVariant::kGeneric);
  EXPECT_EQ(parse_variant("log"), StpVariant::kLog);
  EXPECT_EQ(parse_variant("splitck"), StpVariant::kSplitCk);
  EXPECT_EQ(parse_variant("aosoa_splitck"), StpVariant::kAosoaSplitCk);
  EXPECT_EQ(parse_variant("aosoa"), StpVariant::kAosoaSplitCk);
  EXPECT_EQ(parse_variant("soa_uf_splitck"), StpVariant::kSoaUfSplitCk);
  EXPECT_THROW(parse_variant("bogus"), std::invalid_argument);
}

TEST(Registry, RejectsTooSmallOrder) {
  EXPECT_THROW(
      make_stp_kernel(AdvectionPde{}, StpVariant::kLog, 1, Isa::kScalar),
      std::invalid_argument);
}

}  // namespace
}  // namespace exastp

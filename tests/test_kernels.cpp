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
//   * the optional volume update qnew: the solver's q + dt * sum favg loop
//     over the kernel's own favg, bit for bit, whatever else is requested,
//   * cross-PDE equivalences (flux-form vs NCP-form advection; elastic vs
//     identity-metric curvilinear elastic),
//   * the footprint claims of Sec. IV-A (O(N^4 m) vs O(N^3 m), 1 MiB L2
//     crossover),
//   * the face-trace projection and surface update on every host ISA,
//     against a plain per-face reference loop for every line PDE.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
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
#include "exastp/pde/maxwell.h"
#include "exastp/tensor/transpose.h"
#include "stp_request_check.h"

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

// ---------------------------------------------------------------------------
// The volume update (StpOutputs::qnew): the solver's loop, bit for bit,
// whatever else the caller requests (stp_request_check.h).

TEST_P(PredictorExactness, QnewIsTheSolversUpdateWhateverElseIsRequested) {
  request_check::expect_qnew_contract_matrix<CurvilinearElasticPde>(
      GetParam(), Precision::kF64, smooth_cell_state<CurvilinearElasticPde>);
  request_check::expect_qnew_contract_matrix<ElasticPde>(
      GetParam(), Precision::kF64, smooth_cell_state<ElasticPde>);
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
// Face traces: the one-pass projection and the per-cell surface update, on
// every ISA the host runs.

std::vector<Isa> host_isas() {
  std::vector<Isa> isas;
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512})
    if (host_supports(isa)) isas.push_back(isa);
  return isas;
}

/// Six face traces (and their neighbour traces) of one cell, plus the lift
/// target and scratch the surface update needs.
struct TraceCell {
  FaceLayout fl;
  AlignedVector own, nb, jump, out;
  explicit TraceCell(const AosLayout& aos)
      : fl(aos),
        own(6 * fl.size(), 0.0),
        nb(6 * fl.size(), 0.0),
        jump(6 * fl.size(), 0.0),
        out(aos.size(), 0.0) {}
  double* own_face(int f) { return own.data() + f * fl.size(); }
  double* nb_face(int f) { return nb.data() + f * fl.size(); }
  /// Every face interior (neighbour traces from `nb`), scale 0.5 per dir.
  FaceUpdate update(const BasisTables& basis) {
    FaceUpdate u;
    u.layout = fl;
    u.basis = &basis;
    u.own = own.data();
    for (int f = 0; f < 6; ++f)
      u.neighbour[static_cast<std::size_t>(f)] = nb_face(f);
    u.scale = {0.5, 0.25, 0.75};
    u.jump = jump.data();
    u.out = out.data();
    return u;
  }
};

TEST(FaceTraces, ProjectionReproducesBoundaryValuesOnAllSixFaces) {
  const int n = 5;
  const auto& basis = basis_tables(n);
  auto f = [](double x, double y, double z, int s) {
    return std::pow(x, s) + y * z + 2.0 * s;
  };
  for (const Isa isa : host_isas()) {
    AosLayout aos(n, 3, isa);
    AlignedVector q(aos.size(), 0.0);
    for (int k3 = 0; k3 < n; ++k3)
      for (int k2 = 0; k2 < n; ++k2)
        for (int k1 = 0; k1 < n; ++k1)
          for (int s = 0; s < 3; ++s)
            q[aos.idx(k3, k2, k1, s)] =
                f(basis.nodes[k1], basis.nodes[k2], basis.nodes[k3], s);
    const FaceLayout fl(aos);
    AlignedVector traces(6 * fl.size(), -1.0);
    project_faces(isa, aos, basis, q.data(), traces.data());
    for (int face = 0; face < 6; ++face) {
      const int dir = face / 2;
      const double side = face % 2;
      const double* tr = traces.data() + face * fl.size();
      for (int b = 0; b < n; ++b)
        for (int a = 0; a < n; ++a) {
          // In-face coordinates (a, b) in ascending dimension order.
          const double u = basis.nodes[a], v = basis.nodes[b];
          const double x = dir == 0 ? side : u;
          const double y = dir == 1 ? side : (dir == 0 ? u : v);
          const double z = dir == 2 ? side : v;
          for (int s = 0; s < 3; ++s)
            EXPECT_NEAR(tr[fl.idx(b, a, s)], f(x, y, z, s), 1e-11)
                << isa_name(isa) << " face " << face;
          for (int s = 3; s < fl.m_pad; ++s)
            EXPECT_EQ(tr[fl.idx(b, a, s)], 0.0) << "padding stays zero";
        }
    }
  }
}

TEST(FaceTraces, RusanovIsConsistent) {
  // Equal states from both sides must return exactly the physical normal
  // flux: every jump vanishes and the lift leaves the cell untouched.
  const int n = 3;
  const auto& basis = basis_tables(n);
  PdeAdapter<AcousticPde> pde;
  for (const Isa isa : host_isas()) {
    AosLayout aos(n, AcousticPde::kQuants, isa);
    TraceCell cell(aos);
    for (int f = 0; f < 6; ++f)
      for (int k = 0; k < n * n; ++k) {
        double* node = cell.own_face(f) + k * cell.fl.m_pad;
        node[0] = 1.0 + k;
        node[1] = 0.3;
        node[2] = -0.2 * f;
        node[3] = 0.1;
        node[AcousticPde::kRho] = 1.0;
        node[AcousticPde::kC] = 2.0;
      }
    cell.nb = cell.own;
    for (std::size_t i = 0; i < cell.out.size(); ++i) cell.out[i] = 0.01 * i;
    const AlignedVector before = cell.out;
    EXPECT_TRUE(pde.surface_update(isa, cell.update(basis)));
    for (std::size_t i = 0; i < cell.jump.size(); ++i)
      EXPECT_EQ(cell.jump[i], 0.0) << isa_name(isa);
    for (std::size_t i = 0; i < cell.out.size(); ++i)
      EXPECT_EQ(cell.out[i], before[i]) << isa_name(isa);
  }
}

TEST(FaceTraces, RusanovUpwindsScalarAdvection) {
  // For rightward advection F* is the left (upwind) state's flux: on the
  // upper x-face the cell itself is upwind (zero jump), on the lower x-face
  // the jump is F(neighbour) - F(own).
  const int n = 2;
  const auto& basis = basis_tables(n);
  AdvectionPde adv;
  adv.velocity = {1.0, 0.0, 0.0};
  PdeAdapter<AdvectionPde> pde(adv);
  for (const Isa isa : host_isas()) {
    AosLayout aos(n, AdvectionPde::kQuants, isa);
    TraceCell cell(aos);
    std::fill(cell.own.begin(), cell.own.end(), 5.0);
    std::fill(cell.nb.begin(), cell.nb.end(), 2.0);
    EXPECT_TRUE(pde.surface_update(isa, cell.update(basis)));
    const std::size_t t = cell.fl.size();
    for (int k = 0; k < n * n; ++k)
      for (int v = 0; v < AdvectionPde::kVars; ++v) {
        const std::size_t i = static_cast<std::size_t>(k) * cell.fl.m_pad + v;
        EXPECT_NEAR(cell.jump[t + i], 0.0, 1e-13)
            << isa_name(isa) << ": upwind flux must come from the left";
        EXPECT_NEAR(cell.jump[i], -2.0 - -5.0, 1e-13) << isa_name(isa);
      }
  }
}

TEST(FaceTraces, NormalFluxCombinesFluxAndNcpForms) {
  // Flux-form and NCP-form advection must produce the same surface update
  // — the property that makes them interchangeable in the corrector.
  const int n = 3;
  const auto& basis = basis_tables(n);
  PdeAdapter<AdvectionPde> flux_form;
  PdeAdapter<AdvectionNcpPde> ncp_form;
  for (const Isa isa : host_isas()) {
    AosLayout aos(n, AdvectionPde::kQuants, isa);
    TraceCell a(aos), b(aos);
    for (std::size_t i = 0; i < a.own.size(); ++i) {
      a.own[i] = 0.1 * static_cast<double>(i % 17) - 1.0;
      a.nb[i] = 0.05 * static_cast<double>(i % 13);
    }
    b.own = a.own;
    b.nb = a.nb;
    FaceUpdate ua = a.update(basis), ub = b.update(basis);
    ua.neighbour[2] = ub.neighbour[2] = nullptr;  // an outflow face too
    ua.boundary[2] = ub.boundary[2] = BoundaryKind::kOutflow;
    EXPECT_TRUE(flux_form.surface_update(isa, ua));
    EXPECT_TRUE(ncp_form.surface_update(isa, ub));
    for (std::size_t i = 0; i < a.out.size(); ++i)
      EXPECT_NEAR(a.out[i], b.out[i], 1e-13) << isa_name(isa);
  }
}

TEST(FaceTraces, LiftIsLinearInTheTraces) {
  // The update is linear for a linear PDE: doubling both sides' traces
  // doubles every jump and therefore every lifted value.
  const int n = 4;
  const auto& basis = basis_tables(n);
  AdvectionPde adv;
  adv.velocity = {0.7, -0.4, 0.2};
  PdeAdapter<AdvectionPde> pde(adv);
  for (const Isa isa : host_isas()) {
    AosLayout aos(n, AdvectionPde::kQuants, isa);
    TraceCell c1(aos), c2(aos);
    for (std::size_t i = 0; i < c1.own.size(); ++i) {
      c1.own[i] = 0.01 * static_cast<double>(i % 29);
      c1.nb[i] = -0.02 * static_cast<double>(i % 23);
      c2.own[i] = 2.0 * c1.own[i];
      c2.nb[i] = 2.0 * c1.nb[i];
    }
    EXPECT_TRUE(pde.surface_update(isa, c1.update(basis)));
    EXPECT_TRUE(pde.surface_update(isa, c2.update(basis)));
    for (std::size_t i = 0; i < c1.out.size(); ++i)
      EXPECT_NEAR(c2.out[i], 2.0 * c1.out[i], 1e-12) << isa_name(isa);
  }
}

TEST(FaceTraces, FlagsNonFiniteLiftOutput) {
  const int n = 2;
  const auto& basis = basis_tables(n);
  PdeAdapter<AdvectionPde> pde;
  for (const Isa isa : host_isas()) {
    AosLayout aos(n, AdvectionPde::kQuants, isa);
    TraceCell cell(aos);
    EXPECT_TRUE(pde.surface_update(isa, cell.update(basis)));
    cell.out[aos.idx(1, 0, 1, 2)] = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(pde.surface_update(isa, cell.update(basis)));
  }
}

/// The surface update written the plain way: per face, per node, through
/// the runtime interface, then one lift pass per face in x0..z1 order.
void reference_surface_update(const PdeRuntime& pde, const FaceUpdate& u) {
  const FaceLayout& fl = u.layout;
  const int n = fl.n, m = fl.m, mp = fl.m_pad;
  const int vars = pde.info().vars;
  const std::size_t t = fl.size();
  std::vector<double> ghost(m), fl_node(m), fr_node(m), tmp(m);
  std::vector<double> jump(t);
  for (int f = 0; f < 6; ++f) {
    const int dir = f / 2, side = f % 2;
    for (int k = 0; k < n * n; ++k) {
      const double* qo = u.own + f * t + static_cast<std::size_t>(k) * mp;
      const double* qn = nullptr;
      if (u.neighbour[f] != nullptr) {
        qn = u.neighbour[f] + static_cast<std::size_t>(k) * mp;
      } else if (u.boundary[f] == BoundaryKind::kWall) {
        pde.wall_reflect(qo, dir, ghost.data());
        qn = ghost.data();
      } else {
        for (int s = 0; s < m; ++s) ghost[s] = s < vars ? 0.0 : qo[s];
        qn = ghost.data();
      }
      const double* ql = side == 1 ? qo : qn;
      const double* qr = side == 1 ? qn : qo;
      pde.flux(ql, dir, fl_node.data());
      pde.ncp(ql, ql, dir, tmp.data());
      for (int s = 0; s < m; ++s) fl_node[s] += tmp[s];
      pde.flux(qr, dir, fr_node.data());
      pde.ncp(qr, qr, dir, tmp.data());
      for (int s = 0; s < m; ++s) fr_node[s] += tmp[s];
      const double smax = std::max(pde.max_wave_speed(ql, dir),
                                   pde.max_wave_speed(qr, dir));
      const std::vector<double>& fo = side == 1 ? fl_node : fr_node;
      for (int s = 0; s < mp; ++s) {
        double j = 0.0;
        if (s < vars)
          j = 0.5 * (fl_node[s] + fr_node[s]) +
              0.5 * smax * (qr[s] - ql[s]) - fo[s];
        jump[static_cast<std::size_t>(k) * mp + s] = j;
      }
    }
    const double* lift = side == 0 ? u.basis->lift_left.data()
                                   : u.basis->lift_right.data();
    const double sign = side == 0 ? -1.0 : 1.0;
    for (int k3 = 0; k3 < n; ++k3)
      for (int k2 = 0; k2 < n; ++k2)
        for (int k1 = 0; k1 < n; ++k1) {
          const int l = dir == 0 ? k1 : dir == 1 ? k2 : k3;
          const int a = dir == 0 ? k2 : k1;
          const int b = dir == 2 ? k2 : k3;
          for (int s = 0; s < mp; ++s)
            u.out[((static_cast<std::size_t>(k3) * n + k2) * n + k1) * mp +
                  s] += sign * u.scale[dir] * lift[l] *
                        jump[static_cast<std::size_t>(b * n + a) * mp + s];
        }
  }
}

template <class Pde>
class SurfaceReferenceP : public ::testing::Test {};
using LinePdes = ::testing::Types<AdvectionPde, AdvectionNcpPde, AcousticPde,
                                  ElasticPde, MaxwellPde,
                                  CurvilinearElasticPde>;
TYPED_TEST_SUITE(SurfaceReferenceP, LinePdes);

TYPED_TEST(SurfaceReferenceP, MatchesPlainPerFaceLoop) {
  // Random states, with wall (x0, z1), outflow (y1) and interior faces.
  using Pde = TypeParam;
  const int n = 4;
  const auto& basis = basis_tables(n);
  PdeAdapter<Pde> pde;
  std::mt19937 rng(1234);
  std::uniform_real_distribution<double> wave(-1.0, 1.0), param(1.0, 2.0);
  for (const Isa isa : host_isas()) {
    AosLayout aos(n, Pde::kQuants, isa);
    TraceCell cell(aos);
    for (std::size_t i = 0; i < cell.own.size(); ++i) {
      const int s = static_cast<int>(i % static_cast<std::size_t>(aos.m_pad));
      if (s >= Pde::kQuants) continue;
      cell.own[i] = s < Pde::kVars ? wave(rng) : param(rng);
      cell.nb[i] = s < Pde::kVars ? wave(rng) : param(rng);
    }
    for (std::size_t i = 0; i < cell.out.size(); ++i) {
      const int s = static_cast<int>(i % static_cast<std::size_t>(aos.m_pad));
      cell.out[i] = s < Pde::kQuants ? wave(rng) : 0.0;
    }
    FaceUpdate u = cell.update(basis);
    u.neighbour[0] = u.neighbour[5] = u.neighbour[3] = nullptr;
    u.boundary[0] = u.boundary[5] = BoundaryKind::kWall;
    u.boundary[3] = BoundaryKind::kOutflow;
    AlignedVector expect = cell.out;
    FaceUpdate ref = u;
    ref.out = expect.data();
    reference_surface_update(pde, ref);
    EXPECT_TRUE(pde.surface_update(isa, u));
    double scale = 0.0, worst = 0.0;
    for (std::size_t i = 0; i < expect.size(); ++i) {
      scale = std::max(scale, std::abs(expect[i]));
      worst = std::max(worst, std::abs(expect[i] - cell.out[i]));
    }
    EXPECT_LE(worst, 1e-13 * scale) << isa_name(isa);
  }
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

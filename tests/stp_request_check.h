// The request contract of StpOutputs (kernels/stp_common.h), checked the
// same way for every kernel: qnew is the solver's volume update over the
// favg the same kernel returns, byte for byte and padding included, and
// requesting any of qnew and favg changes no other output's bytes and no
// per-width FLOP count, apart from the update's 6 FLOPs per element.
// Shared by test_kernels (all five variants) and test_precision (the fp32
// SplitCK family), which pass their own smooth cell state.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>

#include "exastp/basis/basis_tables.h"
#include "exastp/kernels/registry.h"
#include "exastp/perf/flop_count.h"
#include "exastp/pde/point_source.h"
#include "exastp/tensor/layout.h"
#include "exastp/tensor/transpose.h"

namespace exastp::request_check {

/// Every output buffer starts with this, so a lane a kernel leaves alone
/// shows up.
inline constexpr double kSentinel = -7.25e300;

struct Run {
  AlignedVector qavg, half, qnew;
  std::array<AlignedVector, 3> favg;
  FlopCounter flops;
};

inline Run run(const StpKernel& kernel, const AlignedVector& q, double dt,
               const std::array<double, 3>& inv_dx, const SourceTerm* source,
               bool half, bool favg, bool qnew) {
  const std::size_t size = kernel.layout().size();
  Run r;
  r.qavg.assign(size, kSentinel);
  r.half.assign(size, kSentinel);
  r.qnew.assign(size, kSentinel);
  for (auto& f : r.favg) f.assign(size, kSentinel);
  StpOutputs out;
  out.qavg = r.qavg.data();
  if (favg) out.favg = {r.favg[0].data(), r.favg[1].data(), r.favg[2].data()};
  if (half) out.qavg_half = r.half.data();
  if (qnew) out.qnew = r.qnew.data();
  FlopSection section;
  kernel.run(q.data(), dt, inv_dx, source, out);
  r.flops = section.delta();
  return r;
}

/// Bitwise equality (memcmp: -0.0 vs 0.0 and NaN payloads count).
inline void expect_same_bytes(const AlignedVector& got,
                              const AlignedVector& want,
                              const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
        << what << " differs at index " << i << ": " << got[i] << " vs "
        << want[i];
}

/// Elements of the tensor the kernel forms qnew in: its working layout.
inline std::size_t update_elements(const StpKernel& kernel) {
  const AosLayout& aos = kernel.layout();
  return kernel.variant() == StpVariant::kAosoaSplitCk
             ? AosoaLayout(aos.n, aos.m, kernel.isa()).size()
             : aos.size();
}

/// Runs the four requests (neither, favg, qnew, both) against a favg-only
/// reference run and checks the contract above.
inline void expect_qnew_contract(const StpKernel& kernel,
                                 const AlignedVector& q, double dt,
                                 const std::array<double, 3>& inv_dx,
                                 const SourceTerm* source, bool half,
                                 const std::string& tag) {
  const Run ref = run(kernel, q, dt, inv_dx, source, half, true, false);
  // The solver's update loop before the kernel formed qnew, over the favg
  // this kernel returns.
  AlignedVector want(q.size());
  for (std::size_t i = 0; i < q.size(); ++i) {
    double v = q[i];
    v += dt * ref.favg[0][i];
    v += dt * ref.favg[1][i];
    v += dt * ref.favg[2][i];
    want[i] = v;
  }
  const std::uint64_t update_flops = 6ull * update_elements(kernel);
  for (int request = 0; request < 4; ++request) {
    const bool favg = (request & 1) != 0, qnew = (request & 2) != 0;
    const std::string what = tag + (favg ? " +favg" : "") +
                             (qnew ? " +qnew" : "") + ": ";
    const Run r = run(kernel, q, dt, inv_dx, source, half, favg, qnew);
    expect_same_bytes(r.qavg, ref.qavg, what + "qavg");
    if (half) expect_same_bytes(r.half, ref.half, what + "qavg_half");
    if (favg)
      for (int d = 0; d < 3; ++d)
        expect_same_bytes(r.favg[d], ref.favg[d],
                          what + "favg[" + std::to_string(d) + "]");
    if (qnew) expect_same_bytes(r.qnew, want, what + "qnew");
    for (int c = 0; c < kNumWidthClasses; ++c) {
      const std::uint64_t extra =
          qnew && c == static_cast<int>(WidthClass::k128) ? update_flops : 0;
      EXPECT_EQ(r.flops.flops[c], ref.flops.flops[c] + extra)
          << what << "width class " << c;
    }
  }
}

/// The contract over orders 2, 5, 8 and 9, every host ISA, point source
/// off and on and half window off and on. `state(n)` is an unpadded cell
/// state of Pde at order n.
template <class Pde, class State>
void expect_qnew_contract_matrix(StpVariant variant, Precision precision,
                                 State&& state) {
  const std::array<double, 3> inv_dx{4.0, 5.0, 6.0};
  const double dt = 2e-3;
  for (int n : {2, 5, 8, 9}) {
    const auto unpadded = state(n);
    PolynomialWavelet wavelet({1.5, -0.5, 0.25, 2.0});
    AlignedVector psi =
        project_point_source(basis_tables(n), {0.3, 0.6, 0.4}, 1.0);
    SourceTerm src;
    src.psi = psi.data();
    src.quantity = 1;
    for (int o = 0; o <= n; ++o)
      src.dt_derivatives[o] = wavelet.derivative(0.1, o);
    for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
      if (!host_supports(isa)) continue;
      // The generic variant is scalar whatever ISA it is handed.
      if (variant == StpVariant::kGeneric && isa != Isa::kScalar) continue;
      StpKernel kernel = make_stp_kernel(Pde{}, variant, n, isa,
                                         NodeFamily::kGaussLegendre,
                                         precision);
      const AosLayout& aos = kernel.layout();
      AlignedVector q(aos.size(), 0.0);
      pad_aos(unpadded.data(), n, Pde::kQuants, q.data(), aos);
      for (const SourceTerm* source : {static_cast<const SourceTerm*>(nullptr),
                                       static_cast<const SourceTerm*>(&src)})
        for (bool half : {false, true})
          expect_qnew_contract(
              kernel, q, dt, inv_dx, source, half,
              std::string(Pde::kName) + " " + variant_name(variant) + " " +
                  precision_name(precision) + " n" + std::to_string(n) +
                  " " + isa_name(isa) + (source != nullptr ? " source" : "") +
                  (half ? " half" : ""));
    }
  }
}

}  // namespace exastp::request_check

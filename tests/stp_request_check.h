// The request contract of StpOutputs (kernels/stp_common.h), checked the
// same way for every kernel:
//   * qnew is the solver's volume update over the favg the same kernel
//     returns, plus the point source's time integral, byte for byte and
//     padding included;
//   * traces and traces_half are project_faces of the qavg and qavg_half
//     the same kernel returns, byte for byte and padding included, whether
//     or not the averages are requested too;
//   * requesting any output changes no other output's bytes, and the
//     per-width FLOP counts move only by the update's 6 FLOPs per element
//     and the projection's own booking.
// Shared by test_kernels (all five variants) and test_precision (the fp32
// SplitCK family), which pass their own smooth cell state.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "exastp/basis/basis_tables.h"
#include "exastp/kernels/face.h"
#include "exastp/kernels/registry.h"
#include "exastp/perf/flop_count.h"
#include "exastp/pde/point_source.h"
#include "exastp/tensor/layout.h"
#include "exastp/tensor/transpose.h"

namespace exastp::request_check {

/// Every output buffer starts with this, so a lane a kernel leaves alone
/// shows up.
inline constexpr double kSentinel = -7.25e300;

/// Which outputs one run asks for.
struct Request {
  bool qavg = true;
  bool half = false;
  bool favg = false;
  bool qnew = false;
  bool traces = false;
  bool traces_half = false;
};

struct Run {
  AlignedVector qavg, half, qnew, traces, traces_half;
  std::array<AlignedVector, 3> favg;
  FlopCounter flops;
};

inline Run run(const StpKernel& kernel, const AlignedVector& q, double dt,
               const std::array<double, 3>& inv_dx, const SourceTerm* source,
               const Request& request) {
  const std::size_t size = kernel.layout().size();
  const std::size_t traces = 6 * FaceLayout(kernel.layout()).size();
  Run r;
  r.qavg.assign(size, kSentinel);
  r.half.assign(size, kSentinel);
  r.qnew.assign(size, kSentinel);
  r.traces.assign(traces, kSentinel);
  r.traces_half.assign(traces, kSentinel);
  for (auto& f : r.favg) f.assign(size, kSentinel);
  StpOutputs out;
  if (request.qavg) out.qavg = r.qavg.data();
  if (request.favg)
    out.favg = {r.favg[0].data(), r.favg[1].data(), r.favg[2].data()};
  if (request.half) out.qavg_half = r.half.data();
  if (request.qnew) out.qnew = r.qnew.data();
  if (request.traces) out.traces = r.traces.data();
  if (request.traces_half) out.traces_half = r.traces_half.data();
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

/// The solver's update loop before the kernel formed qnew, over the favg
/// this kernel returns, then the source's time integral: ascending o over
/// taylor_coefficients(dt, n), one rounded product per element.
inline AlignedVector solver_update(const StpKernel& kernel,
                                   const AlignedVector& q, double dt,
                                   const SourceTerm* source, const Run& ref) {
  AlignedVector want(q.size());
  for (std::size_t i = 0; i < q.size(); ++i) {
    double v = q[i];
    v += dt * ref.favg[0][i];
    v += dt * ref.favg[1][i];
    v += dt * ref.favg[2][i];
    want[i] = v;
  }
  if (source == nullptr) return want;
  const AosLayout& aos = kernel.layout();
  const int n = aos.n;
  const auto coeff = taylor_coefficients(dt, n);
  double integral = 0.0;
  for (int o = 0; o < n; ++o) integral += source->dt_derivatives[o] * coeff[o];
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1)
        want[aos.idx(k3, k2, k1, source->quantity)] +=
            source->psi[(static_cast<std::size_t>(k3) * n + k2) * n + k1] *
            integral;
  return want;
}

/// Runs the four requests (neither, favg, qnew, both) against a favg-only
/// reference run and checks the qnew contract above.
inline void expect_qnew_contract(const StpKernel& kernel,
                                 const AlignedVector& q, double dt,
                                 const std::array<double, 3>& inv_dx,
                                 const SourceTerm* source, bool half,
                                 const std::string& tag) {
  Request favg_only;
  favg_only.half = half;
  favg_only.favg = true;
  const Run ref = run(kernel, q, dt, inv_dx, source, favg_only);
  const AlignedVector want = solver_update(kernel, q, dt, source, ref);
  const std::uint64_t update_flops = 6ull * update_elements(kernel);
  for (int bits = 0; bits < 4; ++bits) {
    Request request;
    request.half = half;
    request.favg = (bits & 1) != 0;
    request.qnew = (bits & 2) != 0;
    const std::string what = tag + (request.favg ? " +favg" : "") +
                             (request.qnew ? " +qnew" : "") + ": ";
    const Run r = run(kernel, q, dt, inv_dx, source, request);
    expect_same_bytes(r.qavg, ref.qavg, what + "qavg");
    if (half) expect_same_bytes(r.half, ref.half, what + "qavg_half");
    if (request.favg)
      for (int d = 0; d < 3; ++d)
        expect_same_bytes(r.favg[d], ref.favg[d],
                          what + "favg[" + std::to_string(d) + "]");
    if (request.qnew) expect_same_bytes(r.qnew, want, what + "qnew");
    for (int c = 0; c < kNumWidthClasses; ++c) {
      const std::uint64_t extra =
          request.qnew && c == static_cast<int>(WidthClass::k128)
              ? update_flops
              : 0;
      EXPECT_EQ(r.flops.flops[c], ref.flops.flops[c] + extra)
          << what << "width class " << c;
    }
  }
}

/// project_faces of an AoS average, and the FLOPs the kernel books for
/// projecting it in its working layout (the AoSoA kernel projects its
/// AoSoA tensor, which the transpose reproduces exactly).
struct Projection {
  AlignedVector traces;
  FlopCounter flops;
};

inline Projection projection_of(const StpKernel& kernel,
                                const AlignedVector& avg) {
  const AosLayout& aos = kernel.layout();
  const BasisTables& basis = basis_tables(aos.n);
  Projection p;
  p.traces.assign(6 * FaceLayout(aos).size(), kSentinel);
  FlopSection section;
  project_faces(kernel.isa(), aos, basis, avg.data(), p.traces.data());
  p.flops = section.delta();
  if (kernel.variant() == StpVariant::kAosoaSplitCk) {
    const AosoaLayout aosoa(aos.n, aos.m, kernel.isa());
    AlignedVector working(aosoa.size()), traces(p.traces.size());
    aos_to_aosoa(kernel.isa(), avg.data(), aos, working.data(), aosoa);
    FlopSection aosoa_section;
    project_faces(kernel.isa(), aosoa, basis, working.data(), traces.data());
    p.flops = aosoa_section.delta();
  }
  return p;
}

/// Whether the kernel averages in place in double, so an unrequested
/// half window has to borrow the qnew target (stp_common.h).
inline bool half_borrows_qnew(const StpKernel& kernel) {
  return kernel.precision() == Precision::kF64 &&
         (kernel.variant() == StpVariant::kSplitCk ||
          kernel.variant() == StpVariant::kSoaUfSplitCk);
}

/// Runs the trace requests, with and without the averages and qnew,
/// against a reference run that requests the averages and qnew, and checks
/// the traces contract above.
inline void expect_traces_contract(const StpKernel& kernel,
                                   const AlignedVector& q, double dt,
                                   const std::array<double, 3>& inv_dx,
                                   const SourceTerm* source, bool half,
                                   const std::string& tag) {
  Request averages;
  averages.half = half;
  averages.qnew = true;
  const Run ref = run(kernel, q, dt, inv_dx, source, averages);
  const Projection want = projection_of(kernel, ref.qavg);
  Projection want_half;
  if (half) want_half = projection_of(kernel, ref.half);
  const std::uint64_t update_flops = 6ull * update_elements(kernel);
  for (int bits = 0; bits < 4; ++bits) {
    Request request;
    request.qavg = (bits & 1) != 0;
    request.half = half && request.qavg;
    request.qnew = (bits & 2) != 0;
    request.traces = true;
    request.traces_half = half;
    const std::string what = tag + (request.qavg ? " +averages" : "") +
                             (request.qnew ? " +qnew" : "") + ": ";
    if (half && !request.half && !request.qnew && half_borrows_qnew(kernel)) {
      try {
        run(kernel, q, dt, inv_dx, source, request);
        ADD_FAILURE() << what << "traces_half without qavg_half or qnew ran";
      } catch (const std::exception& e) {
        EXPECT_NE(std::string(e.what()).find("traces_half"),
                  std::string::npos)
            << what << e.what();
      }
      continue;
    }
    const Run r = run(kernel, q, dt, inv_dx, source, request);
    expect_same_bytes(r.traces, want.traces, what + "traces");
    if (half)
      expect_same_bytes(r.traces_half, want_half.traces, what + "traces_half");
    if (request.qavg) expect_same_bytes(r.qavg, ref.qavg, what + "qavg");
    if (request.half) expect_same_bytes(r.half, ref.half, what + "qavg_half");
    if (request.qnew) expect_same_bytes(r.qnew, ref.qnew, what + "qnew");
    for (int c = 0; c < kNumWidthClasses; ++c) {
      std::uint64_t expected = ref.flops.flops[c] + want.flops.flops[c] +
                               want_half.flops.flops[c];
      if (!request.qnew && c == static_cast<int>(WidthClass::k128))
        expected -= update_flops;
      EXPECT_EQ(r.flops.flops[c], expected) << what << "width class " << c;
    }
  }
}

/// Calls check(kernel, q, source, half, tag) over `orders`, every host
/// ISA, point source off and on and half window off and on. `state(n)` is
/// an unpadded cell state of Pde at order n.
template <class Pde, class State, class Check>
void for_each_case(StpVariant variant, Precision precision,
                   std::initializer_list<int> orders, State&& state,
                   Check&& check) {
  for (int n : orders) {
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
          check(kernel, q, source, half,
                std::string(Pde::kName) + " " + variant_name(variant) + " " +
                    precision_name(precision) + " n" + std::to_string(n) +
                    " " + isa_name(isa) + (source != nullptr ? " source" : "") +
                    (half ? " half" : ""));
    }
  }
}

inline constexpr double kDt = 2e-3;
inline const std::array<double, 3> kInvDx{4.0, 5.0, 6.0};

/// The qnew contract at orders 2, 5, 8 and 9.
template <class Pde, class State>
void expect_qnew_contract_matrix(StpVariant variant, Precision precision,
                                 State&& state) {
  for_each_case<Pde>(variant, precision, {2, 5, 8, 9}, state,
                     [](const StpKernel& kernel, const AlignedVector& q,
                        const SourceTerm* source, bool half,
                        const std::string& tag) {
                       expect_qnew_contract(kernel, q, kDt, kInvDx, source,
                                            half, tag);
                     });
}

/// The traces contract at orders 2, 5, 8, 9 and 11 (AVX-512 x-lines
/// padded to 8 and to 16).
template <class Pde, class State>
void expect_traces_contract_matrix(StpVariant variant, Precision precision,
                                   State&& state) {
  for_each_case<Pde>(variant, precision, {2, 5, 8, 9, 11}, state,
                     [](const StpKernel& kernel, const AlignedVector& q,
                        const SourceTerm* source, bool half,
                        const std::string& tag) {
                       expect_traces_contract(kernel, q, kDt, kInvDx, source,
                                              half, tag);
                     });
}

/// `base` with the parameter rows `rows` set to zeros whose sign
/// alternates from node to node along every dimension, so along some lines
/// every product of a face projection is -0.0: a chain that starts from
/// the first product instead of from +0.0 keeps a -0.0 there that the
/// contract's chain turns into +0.0.
template <class Pde, class State>
auto with_signed_zero_rows(State base, std::vector<int> rows) {
  return [base, rows](int n) {
    auto state = base(n);
    for (int k3 = 0; k3 < n; ++k3)
      for (int k2 = 0; k2 < n; ++k2)
        for (int k1 = 0; k1 < n; ++k1) {
          const std::size_t node =
              (static_cast<std::size_t>(k3) * n + k2) * n + k1;
          for (int s : rows)
            state[node * Pde::kQuants + s] =
                (k1 + k2 + k3 + s) % 2 == 0 ? 0.0 : -0.0;
        }
    return state;
  };
}

}  // namespace exastp::request_check

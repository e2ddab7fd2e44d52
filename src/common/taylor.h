// Taylor-series coefficients for the Cauchy-Kowalewsky time expansion.
//
// The STP accumulates `p[o] * dt^{o+1} / (o+1)!` (paper eq. (4)); computing
// the coefficient by recurrence avoids overflow of the factorial and keeps
// every kernel variant numerically identical.
#pragma once

#include <array>
#include <cstddef>

namespace exastp {

/// Maximum supported number of nodes per dimension (paper evaluates N<=11;
/// we leave headroom for the padding-ablation experiments).
inline constexpr int kMaxOrder = 15;

/// taylor_coefficients(dt, n)[o] == dt^{o+1} / (o+1)!  for o = 0..n-1.
/// These are the weights of eq. (4): integral of q over [t_n, t_n + dt].
inline std::array<double, kMaxOrder> taylor_coefficients(double dt, int n) {
  std::array<double, kMaxOrder> c{};
  double acc = dt;  // dt^1 / 1!
  for (int o = 0; o < n && o < kMaxOrder; ++o) {
    c[static_cast<std::size_t>(o)] = acc;
    acc *= dt / static_cast<double>(o + 2);
  }
  return c;
}

/// time_average_coefficients(dt, n)[o] == dt^o / (o+1)!  — the weights of
/// the *time-averaged* state (1/dt) * integral q dt. The kernels emit the
/// averaged (not integrated) state so the constant parameter rows of q pass
/// through unscaled, which keeps flux/ncp evaluations of the averaged state
/// well defined (the SplitCK family recomputes favg from flux(qavg), see
/// kernels/splitck_driver.h).
inline std::array<double, kMaxOrder> time_average_coefficients(double dt,
                                                               int n) {
  std::array<double, kMaxOrder> c{};
  double acc = 1.0;  // dt^0 / 1!
  for (int o = 0; o < n && o < kMaxOrder; ++o) {
    c[static_cast<std::size_t>(o)] = acc;
    acc *= dt / static_cast<double>(o + 2);
  }
  return c;
}

}  // namespace exastp

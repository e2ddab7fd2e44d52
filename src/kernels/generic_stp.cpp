#include "exastp/kernels/generic_stp.h"

#include "exastp/perf/access_recorder.h"
#include "exastp/perf/flop_count.h"

namespace exastp {
namespace {

// Node stride along dimension d in the (k3, k2, k1, s) AoS index space.
std::size_t dim_stride(int n, int m, int d) {
  switch (d) {
    case 0: return static_cast<std::size_t>(m);
    case 1: return static_cast<std::size_t>(m) * n;
    default: return static_cast<std::size_t>(m) * n * n;
  }
}

/// Reports one naive derivative sweep along d to an installed recorder, in
/// the kernel's output-node order: each node writes its df and gradQ rows
/// and reads the line through it in flux and p, n rows `stride` apart —
/// the strided, latency-bound pattern.
void record_naive_derivative(int n, int m, int d, const double* flux,
                             const double* p, const double* df,
                             const double* gradq) {
  AccessRecorder* rec = AccessRecorder::thread_instance();
  if (rec == nullptr) return;
  const std::size_t stride = dim_stride(n, m, d);
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1) {
        const int kd = d == 0 ? k1 : (d == 1 ? k2 : k3);
        const std::size_t base =
            ((static_cast<std::size_t>(k3) * n + k2) * n + k1) * m;
        const std::size_t line0 = base - kd * stride;
        rec->range(df + base, m);
        rec->range(gradq + base, m);
        rec->strided(flux + line0, n, m, stride);
        rec->strided(p + line0, n, m, stride);
      }
}

}  // namespace

void NaiveDerivative::apply(Isa /*isa*/, const AosLayout& aos,
                            const double* diff, double inv_h, int d,
                            const double* flux, const double* p, double* df,
                            double* gradq) {
  const int n = aos.n, m = aos.m;
  const std::size_t stride = dim_stride(n, m, d);
  record_naive_derivative(n, m, d, flux, p, df, gradq);
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1) {
        const int kd = d == 0 ? k1 : (d == 1 ? k2 : k3);
        const std::size_t base =
            ((static_cast<std::size_t>(k3) * n + k2) * n + k1) * m;
        // Offset of the first node of this line along d.
        const std::size_t line0 = base - kd * stride;
        for (int s = 0; s < m; ++s) {
          double acc_f = 0.0, acc_q = 0.0;
          for (int l = 0; l < n; ++l) {
            const double dkl = diff[kd * n + l];
            acc_f += dkl * flux[line0 + l * stride + s];
            acc_q += dkl * p[line0 + l * stride + s];
          }
          df[base + s] = acc_f * inv_h;
          gradq[base + s] = acc_q * inv_h;
        }
      }
  const std::size_t nodes = static_cast<std::size_t>(n) * n * n;
  FlopCounter::instance().add(WidthClass::kScalar,
                              nodes * m * (4ull * n + 2));
}

template class SpacetimeStp<RuntimeUserFns, NaiveDerivative>;

}  // namespace exastp

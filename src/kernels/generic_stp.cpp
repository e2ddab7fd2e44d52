#include "exastp/kernels/generic_stp.h"

#include <cstring>

#include "exastp/common/check.h"
#include "exastp/common/taylor.h"
#include "exastp/kernels/face.h"
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

GenericStp::GenericStp(const PdeRuntime& pde, int order, NodeFamily family)
    : pde_(pde),
      basis_(basis_tables(order, family)),
      n_(order),
      m_(pde.info().quants),
      cell_(static_cast<std::size_t>(n_) * n_ * n_ * m_),
      aos_(order, m_, Isa::kScalar) {
  EXASTP_CHECK_MSG(order >= 2, "STP needs at least 2 nodes per dimension");
  p_.assign((static_cast<std::size_t>(n_) + 1) * cell_, 0.0);
  flux_.assign(static_cast<std::size_t>(n_) * 3 * cell_, 0.0);
  df_.assign(static_cast<std::size_t>(n_) * 3 * cell_, 0.0);
  gradq_.assign(static_cast<std::size_t>(n_) * 3 * cell_, 0.0);
}

std::size_t GenericStp::workspace_bytes() const {
  return (p_.size() + flux_.size() + df_.size() + gradq_.size()) *
         sizeof(double);
}

void GenericStp::compute(const double* q, double dt,
                         const std::array<double, 3>& inv_dx,
                         const SourceTerm* source, const StpOutputs& out) {
  const int n = n_, m = m_;
  const std::size_t nodes = static_cast<std::size_t>(n) * n * n;
  const double* diff = basis_.diff.data();
  FlopCounter& fc = FlopCounter::instance();

  // p[0] = q(t_n).
  std::memcpy(p_.data(), q, cell_ * sizeof(double));
  record_ranges(cell_, q, p_.data());
  std::vector<double> ncp_tmp(m);

  for (int o = 0; o < n; ++o) {
    const double* po = p_.data() + p_index(o);

    // flux[o][d][k][:] = F_d(p[o][k]).
    for (int d = 0; d < 3; ++d) {
      double* fo = flux_.data() + od_index(o, d);
      for (std::size_t k = 0; k < nodes; ++k)
        pde_.flux(po + k * m, d, fo + k * m);
      record_ranges(cell_, po, fo);
    }
    fc.add(WidthClass::kScalar, 3 * nodes * pde_.flux_flops());

    // dF[o][d] = derive(flux[o][d], d); gradQ[o][d] = derive(p[o], d).
    // Naive contraction: for every output node a dot product over the n
    // nodes along dimension d — strided access, scalar arithmetic.
    for (int d = 0; d < 3; ++d) {
      const std::size_t stride = dim_stride(n, m, d);
      const double* fo = flux_.data() + od_index(o, d);
      double* dfo = df_.data() + od_index(o, d);
      double* go = gradq_.data() + od_index(o, d);
      record_naive_derivative(n, m, d, fo, po, dfo, go);
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
                acc_f += dkl * fo[line0 + l * stride + s];
                acc_q += dkl * po[line0 + l * stride + s];
              }
              dfo[base + s] = acc_f * inv_dx[d];
              go[base + s] = acc_q * inv_dx[d];
            }
          }
    }
    fc.add(WidthClass::kScalar, 3 * nodes * m * (4ull * n + 2));

    // dF[o][d][k] += B_d(p[o][k]) * gradQ[o][d][k].
    for (int d = 0; d < 3; ++d) {
      double* dfo = df_.data() + od_index(o, d);
      const double* go = gradq_.data() + od_index(o, d);
      for (std::size_t k = 0; k < nodes; ++k) {
        pde_.ncp(po + k * m, go + k * m, d, ncp_tmp.data());
        for (int s = 0; s < m; ++s) dfo[k * m + s] += ncp_tmp[s];
      }
      record_ranges(cell_, po, go, dfo);
    }
    fc.add(WidthClass::kScalar, 3 * nodes * (pde_.ncp_flops() + m));

    // p[o+1] = sum_d dF[o][d]  (+ source time derivative).
    double* pn = p_.data() + p_index(o + 1);
    std::memset(pn, 0, cell_ * sizeof(double));
    record_ranges(cell_, pn);
    for (int d = 0; d < 3; ++d) {
      const double* dfo = df_.data() + od_index(o, d);
      for (std::size_t i = 0; i < cell_; ++i) pn[i] += dfo[i];
      record_ranges(cell_, dfo, pn);
    }
    fc.add(WidthClass::k128, 3 * cell_);
    if (source != nullptr) add_source_derivative(aos_, *source, o, pn);
    // User functions read parameters from the node they receive, so every
    // derivative tensor must carry the original parameter values.
    refresh_param_rows(aos_, pde_.info().vars, q, pn);
  }

  // Time-averaged outputs: qavg = sum_o c[o] p[o], favg[d] = sum_o c[o]
  // dF[o][d], with c[o] = dt^o/(o+1)!. An favg[d], qavg or qavg_half the
  // caller does not read is summed into flux[0][d], flux[1][0] or
  // flux[1][1], which the recursion is done with.
  const auto coeff = time_average_coefficients(dt, n);
  std::array<double*, 3> favg;
  for (int d = 0; d < 3; ++d)
    favg[d] = out.favg[d] != nullptr ? out.favg[d]
                                     : flux_.data() + od_index(0, d);
  double* qavg =
      out.qavg != nullptr ? out.qavg : flux_.data() + od_index(1, 0);
  std::memset(qavg, 0, cell_ * sizeof(double));
  for (int d = 0; d < 3; ++d) std::memset(favg[d], 0, cell_ * sizeof(double));
  record_ranges(cell_, qavg, favg[0], favg[1], favg[2]);
  for (int o = 0; o < n; ++o) {
    const double c = coeff[o];
    const double* po = p_.data() + p_index(o);
    for (std::size_t i = 0; i < cell_; ++i) qavg[i] += c * po[i];
    record_ranges(cell_, po, qavg);
    for (int d = 0; d < 3; ++d) {
      const double* dfo = df_.data() + od_index(o, d);
      double* fd = favg[d];
      for (std::size_t i = 0; i < cell_; ++i) fd[i] += c * dfo[i];
      record_ranges(cell_, dfo, fd);
    }
  }
  // Contiguous axpy sweeps: the one part of the generic kernel the baseline
  // compiler packs (128-bit), as in the paper's Fig. 9 "Generic" column.
  fc.add(WidthClass::k128, 8ull * n * cell_);
  if (out.qnew != nullptr) {
    for (int d = 0; d < 3; ++d)
      add_volume_update(cell_, dt, d == 0 ? q : out.qnew, favg[d], out.qnew);
    if (source != nullptr) add_source_integral(aos_, dt, *source, out.qnew);
  }

  // The Taylor sum scaled the constant parameter rows; restore them so that
  // flux(qavg)/wave speeds of the averaged state stay well defined.
  refresh_param_rows(aos_, pde_.info().vars, q, qavg);
  if (out.traces != nullptr)
    project_faces(Isa::kScalar, aos_, basis_, qavg, out.traces);

  // Half-window average: the same p[o] with the dt/2 weights, summed in
  // the same order as qavg above.
  if (out.qavg_half != nullptr || out.traces_half != nullptr) {
    double* qavg_half = out.qavg_half != nullptr
                            ? out.qavg_half
                            : flux_.data() + od_index(1, 1);
    const auto half = time_average_coefficients(0.5 * dt, n);
    std::memset(qavg_half, 0, cell_ * sizeof(double));
    record_ranges(cell_, qavg_half);
    for (int o = 0; o < n; ++o) {
      const double c = half[o];
      const double* po = p_.data() + p_index(o);
      for (std::size_t i = 0; i < cell_; ++i) qavg_half[i] += c * po[i];
      record_ranges(cell_, po, qavg_half);
    }
    fc.add(WidthClass::k128, 2ull * n * cell_);
    refresh_param_rows(aos_, pde_.info().vars, q, qavg_half);
    if (out.traces_half != nullptr)
      project_faces(Isa::kScalar, aos_, basis_, qavg_half, out.traces_half);
  }
}

StpKernel make_generic_stp(std::shared_ptr<const PdeRuntime> pde, int order,
                           NodeFamily family) {
  auto impl = std::make_shared<GenericStp>(*pde, order, family);
  AosLayout layout = impl->layout();
  std::size_t bytes = impl->workspace_bytes();
  return StpKernel(
      StpVariant::kGeneric, layout, Isa::kScalar, bytes,
      [impl, pde](const double* q, double dt,
                  const std::array<double, 3>& inv_dx,
                  const SourceTerm* source, const StpOutputs& out) {
        impl->compute(q, dt, inv_dx, source, out);
      });
}

std::string variant_name(StpVariant v) {
  switch (v) {
    case StpVariant::kGeneric: return "generic";
    case StpVariant::kLog: return "log";
    case StpVariant::kSplitCk: return "splitck";
    case StpVariant::kAosoaSplitCk: return "aosoa_splitck";
    case StpVariant::kSoaUfSplitCk: return "soa_uf_splitck";
  }
  return "unknown";
}

}  // namespace exastp

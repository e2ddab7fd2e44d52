#include "exastp/tensor/transpose.h"

#include <cstring>

#include "exastp/common/check.h"
#include "exastp/perf/access_recorder.h"
#include "exastp/tensor/transpose_impl.h"

namespace exastp {

namespace {

void check_transpose_shapes(Isa isa, const AosLayout& aos,
                            const AosoaLayout& aosoa) {
  EXASTP_CHECK(aos.n == aosoa.n && aos.m == aosoa.m);
  const int w = vector_width(isa);
  EXASTP_CHECK_MSG(aos.m_pad % w == 0 && aosoa.n_pad % w == 0,
                   "transpose layouts are padded narrower than " +
                       isa_name(isa));
}

/// Reports an AoS <-> AoSoA transpose to an installed recorder: line by
/// line, the source's (k3,k2) line, then the destination's.
void record_lines(const double* src, std::size_t src_line, const double* dst,
                  std::size_t dst_line, int n) {
  AccessRecorder* rec = AccessRecorder::thread_instance();
  if (rec == nullptr) return;
  for (std::size_t l = 0; l < static_cast<std::size_t>(n) * n; ++l) {
    rec->range(src + l * src_line, src_line);
    rec->range(dst + l * dst_line, dst_line);
  }
}

}  // namespace

void aos_to_aosoa(Isa isa, const double* src, const AosLayout& aos,
                  double* dst, const AosoaLayout& aosoa) {
  check_transpose_shapes(isa, aos, aosoa);
  record_lines(src, static_cast<std::size_t>(aos.n) * aos.m_pad, dst,
               static_cast<std::size_t>(aosoa.m) * aosoa.n_pad, aos.n);
  switch (isa) {
    case Isa::kAvx2: detail::aos_to_aosoa_avx2(src, aos, dst, aosoa); return;
    case Isa::kAvx512:
      detail::aos_to_aosoa_avx512(src, aos, dst, aosoa);
      return;
    case Isa::kScalar: break;
  }
  const int n = aos.n, m = aos.m;
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int s = 0; s < m; ++s)
        for (int k1 = 0; k1 < aosoa.n_pad; ++k1)
          dst[aosoa.idx(k3, k2, s, k1)] =
              k1 < n ? src[aos.idx(k3, k2, k1, s)] : 0.0;
}

void aosoa_to_aos(Isa isa, const double* src, const AosoaLayout& aosoa,
                  double* dst, const AosLayout& aos) {
  check_transpose_shapes(isa, aos, aosoa);
  record_lines(src, static_cast<std::size_t>(aosoa.m) * aosoa.n_pad, dst,
               static_cast<std::size_t>(aos.n) * aos.m_pad, aos.n);
  switch (isa) {
    case Isa::kAvx2: detail::aosoa_to_aos_avx2(src, aosoa, dst, aos); return;
    case Isa::kAvx512:
      detail::aosoa_to_aos_avx512(src, aosoa, dst, aos);
      return;
    case Isa::kScalar: break;
  }
  const int n = aos.n, m = aos.m;
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1)
        for (int s = 0; s < aos.m_pad; ++s)
          dst[aos.idx(k3, k2, k1, s)] =
              s < m ? src[aosoa.idx(k3, k2, s, k1)] : 0.0;
}

void aos_to_soa(const double* src, const AosLayout& aos, double* dst,
                const SoaLayout& soa) {
  EXASTP_CHECK(aos.n == soa.n && aos.m == soa.m);
  record_ranges(aos.size(), src);
  record_ranges(soa.size(), dst);
  const int n = aos.n, m = aos.m;
  std::memset(dst, 0, soa.size() * sizeof(double));
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1)
        for (int s = 0; s < m; ++s)
          dst[soa.idx(s, k3, k2, k1)] = src[aos.idx(k3, k2, k1, s)];
}

void soa_to_aos(const double* src, const SoaLayout& soa, double* dst,
                const AosLayout& aos) {
  EXASTP_CHECK(aos.n == soa.n && aos.m == soa.m);
  record_ranges(soa.size(), src);
  record_ranges(aos.size(), dst);
  const int n = aos.n, m = aos.m;
  std::memset(dst, 0, aos.size() * sizeof(double));
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1)
        for (int s = 0; s < m; ++s)
          dst[aos.idx(k3, k2, k1, s)] = src[soa.idx(s, k3, k2, k1)];
}

void pad_aos(const double* src, int n, int m, double* dst,
             const AosLayout& aos) {
  EXASTP_CHECK(aos.n == n && aos.m == m);
  std::memset(dst, 0, aos.size() * sizeof(double));
  const std::size_t nodes = static_cast<std::size_t>(n) * n * n;
  for (std::size_t k = 0; k < nodes; ++k)
    std::memcpy(dst + k * aos.m_pad, src + k * m, sizeof(double) * m);
}

void unpad_aos(const double* src, const AosLayout& aos, int m, double* dst) {
  EXASTP_CHECK(aos.m == m);
  const std::size_t nodes =
      static_cast<std::size_t>(aos.n) * aos.n * aos.n;
  for (std::size_t k = 0; k < nodes; ++k)
    std::memcpy(dst + k * m, src + k * aos.m_pad, sizeof(double) * m);
}

}  // namespace exastp

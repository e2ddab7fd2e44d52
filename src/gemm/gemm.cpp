#include "exastp/gemm/gemm.h"

#include "exastp/common/check.h"
#include "exastp/gemm/gemm_impl.h"
#include "exastp/perf/access_recorder.h"
#include "exastp/perf/flop_count.h"

namespace exastp {
namespace {

template <class T>
void dispatch(Isa isa, bool accumulate, T alpha, int m, int n, int k,
              const T* a, int lda, long stride_a, const T* b, int ldb,
              long stride_b, T* c, int ldc, long stride_c, int batch) {
  EXASTP_CHECK(m >= 0 && n >= 0 && k >= 0 && batch >= 0);
  EXASTP_CHECK(lda >= k && ldb >= n && ldc >= n);
  if (AccessRecorder* rec = AccessRecorder::thread_instance())
    rec->gemm(m, n, k, a, lda, stride_a, b, ldb, stride_b, c, ldc, stride_c,
              batch);
  switch (isa) {
    case Isa::kScalar:
      detail::gemm_batch_baseline(accumulate, alpha, m, n, k, a, lda,
                                  stride_a, b, ldb, stride_b, c, ldc,
                                  stride_c, batch);
      break;
    case Isa::kAvx2:
      EXASTP_CHECK_MSG(host_supports(Isa::kAvx2), "host lacks AVX2");
      detail::gemm_batch_avx2(accumulate, alpha, m, n, k, a, lda, stride_a,
                              b, ldb, stride_b, c, ldc, stride_c, batch);
      break;
    case Isa::kAvx512:
      EXASTP_CHECK_MSG(host_supports(Isa::kAvx512), "host lacks AVX-512");
      detail::gemm_batch_avx512(accumulate, alpha, m, n, k, a, lda, stride_a,
                                b, ldb, stride_b, c, ldc, stride_c, batch);
      break;
  }
  // Each of the n columns is a SIMD lane carrying 2*m*k multiply-adds per
  // GEMM; columns beyond the last full vector run in the remainder tiles
  // and count as scalar. Zeroing stores are not FLOPs. Padded columns
  // execute real arithmetic and are included, as a hardware counter would.
  // FLOPs are precision-independent: the fp32 path books at the double
  // lane count so fp32/fp64 runs of one kernel report one instruction mix.
  count_packed_flops(isa, n, 2ull * m * k * static_cast<unsigned>(batch));
}

}  // namespace

WidthClass gemm_width_class(Isa isa) { return packed_width_class(isa); }

void gemm_batch(Isa isa, bool accumulate, double alpha, int m, int n, int k,
                const double* a, int lda, long stride_a, const double* b,
                int ldb, long stride_b, double* c, int ldc, long stride_c,
                int batch) {
  dispatch(isa, accumulate, alpha, m, n, k, a, lda, stride_a, b, ldb,
           stride_b, c, ldc, stride_c, batch);
}

void gemm_batch(Isa isa, bool accumulate, float alpha, int m, int n, int k,
                const float* a, int lda, long stride_a, const float* b,
                int ldb, long stride_b, float* c, int ldc, long stride_c,
                int batch) {
  dispatch(isa, accumulate, alpha, m, n, k, a, lda, stride_a, b, ldb,
           stride_b, c, ldc, stride_c, batch);
}

void gemm_reference(bool accumulate, double alpha, int m, int n, int k,
                    const double* a, int lda, const double* b, int ldb,
                    double* c, int ldc) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = accumulate ? c[static_cast<long>(i) * ldc + j] : 0.0;
      for (int l = 0; l < k; ++l) {
        acc += alpha * a[static_cast<long>(i) * lda + l] *
               b[static_cast<long>(l) * ldb + j];
      }
      c[static_cast<long>(i) * ldc + j] = acc;
    }
  }
}

}  // namespace exastp

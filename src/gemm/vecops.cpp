#include "exastp/gemm/vecops.h"

#include <cstring>

#include "exastp/common/check.h"
#include "exastp/gemm/gemm.h"
#include "exastp/gemm/vecops_impl.h"
#include "exastp/perf/access_recorder.h"
#include "exastp/perf/flop_count.h"

namespace exastp {
namespace {

void count_vec_flops(Isa isa, long n, std::uint64_t flops_per_element) {
  count_packed_flops(isa, n, flops_per_element);
}

}  // namespace

void vec_axpy(Isa isa, long n, double a, const double* x, double* y) {
  EXASTP_CHECK(n >= 0);
  record_ranges(static_cast<std::size_t>(n), x, y);
  switch (isa) {
    case Isa::kScalar: detail::vec_axpy_baseline(n, a, x, y); break;
    case Isa::kAvx2: detail::vec_axpy_avx2(n, a, x, y); break;
    case Isa::kAvx512: detail::vec_axpy_avx512(n, a, x, y); break;
  }
  count_vec_flops(isa, n, 2);
}

void vec_scale(Isa isa, long n, double a, const double* x, double* y) {
  EXASTP_CHECK(n >= 0);
  record_ranges(static_cast<std::size_t>(n), x, y);
  switch (isa) {
    case Isa::kScalar: detail::vec_scale_baseline(n, a, x, y); break;
    case Isa::kAvx2: detail::vec_scale_avx2(n, a, x, y); break;
    case Isa::kAvx512: detail::vec_scale_avx512(n, a, x, y); break;
  }
  count_vec_flops(isa, n, 1);
}

void vec_add(Isa isa, long n, const double* x, double* y) {
  EXASTP_CHECK(n >= 0);
  record_ranges(static_cast<std::size_t>(n), x, y);
  switch (isa) {
    case Isa::kScalar: detail::vec_add_baseline(n, x, y); break;
    case Isa::kAvx2: detail::vec_add_avx2(n, x, y); break;
    case Isa::kAvx512: detail::vec_add_avx512(n, x, y); break;
  }
  count_vec_flops(isa, n, 1);
}

void vec_zero(long n, double* y) {
  record_ranges(static_cast<std::size_t>(n), y);
  std::memset(y, 0, static_cast<std::size_t>(n) * sizeof(double));
}

void vec_copy(long n, const double* x, double* y) {
  record_ranges(static_cast<std::size_t>(n), x, y);
  std::memcpy(y, x, static_cast<std::size_t>(n) * sizeof(double));
}

void vec_axpy(Isa isa, long n, float a, const float* x, float* y) {
  EXASTP_CHECK(n >= 0);
  record_ranges(static_cast<std::size_t>(n), x, y);
  switch (isa) {
    case Isa::kScalar: detail::vec_axpy_baseline_f32(n, a, x, y); break;
    case Isa::kAvx2: detail::vec_axpy_avx2_f32(n, a, x, y); break;
    case Isa::kAvx512: detail::vec_axpy_avx512_f32(n, a, x, y); break;
  }
  count_vec_flops(isa, n, 2);
}

void vec_scale(Isa isa, long n, float a, const float* x, float* y) {
  EXASTP_CHECK(n >= 0);
  record_ranges(static_cast<std::size_t>(n), x, y);
  switch (isa) {
    case Isa::kScalar: detail::vec_scale_baseline_f32(n, a, x, y); break;
    case Isa::kAvx2: detail::vec_scale_avx2_f32(n, a, x, y); break;
    case Isa::kAvx512: detail::vec_scale_avx512_f32(n, a, x, y); break;
  }
  count_vec_flops(isa, n, 1);
}

void vec_add(Isa isa, long n, const float* x, float* y) {
  EXASTP_CHECK(n >= 0);
  record_ranges(static_cast<std::size_t>(n), x, y);
  switch (isa) {
    case Isa::kScalar: detail::vec_add_baseline_f32(n, x, y); break;
    case Isa::kAvx2: detail::vec_add_avx2_f32(n, x, y); break;
    case Isa::kAvx512: detail::vec_add_avx512_f32(n, x, y); break;
  }
  count_vec_flops(isa, n, 1);
}

void vec_zero(long n, float* y) {
  record_ranges(static_cast<std::size_t>(n), y);
  std::memset(y, 0, static_cast<std::size_t>(n) * sizeof(float));
}

void vec_copy(long n, const float* x, float* y) {
  record_ranges(static_cast<std::size_t>(n), x, y);
  std::memcpy(y, x, static_cast<std::size_t>(n) * sizeof(float));
}

void vec_widen(long n, const float* x, double* y) {
  record_ranges(static_cast<std::size_t>(n), x, y);
#pragma omp simd
  for (long i = 0; i < n; ++i) y[i] = static_cast<double>(x[i]);
}

void vec_narrow(long n, const double* x, float* y) {
  record_ranges(static_cast<std::size_t>(n), x, y);
#pragma omp simd
  for (long i = 0; i < n; ++i) y[i] = static_cast<float>(x[i]);
}

}  // namespace exastp

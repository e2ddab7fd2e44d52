#include <immintrin.h>

#include "exastp/tensor/transpose_impl.h"

namespace exastp::detail {
namespace {

/// 4x4 doubles in four ymm registers.
struct Block4 {
  using Vec = __m256d;
  static constexpr int kW = 4;
  static Vec load(const double* p) { return _mm256_loadu_pd(p); }
  static Vec zero() { return _mm256_setzero_pd(); }
  static void store(double* p, Vec v) { _mm256_storeu_pd(p, v); }
  static void transpose(Vec (&r)[4]) {
    const Vec t0 = _mm256_unpacklo_pd(r[0], r[1]);  // a00 a10 | a02 a12
    const Vec t1 = _mm256_unpackhi_pd(r[0], r[1]);  // a01 a11 | a03 a13
    const Vec t2 = _mm256_unpacklo_pd(r[2], r[3]);  // a20 a30 | a22 a32
    const Vec t3 = _mm256_unpackhi_pd(r[2], r[3]);  // a21 a31 | a23 a33
    r[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
    r[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
    r[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
    r[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
  }
};

}  // namespace

void aos_to_aosoa_avx2(const double* src, const AosLayout& aos, double* dst,
                       const AosoaLayout& aosoa) {
  aos_to_aosoa_blocks<Block4>(src, aos, dst, aosoa);
}

void aosoa_to_aos_avx2(const double* src, const AosoaLayout& aosoa,
                       double* dst, const AosLayout& aos) {
  aosoa_to_aos_blocks<Block4>(src, aosoa, dst, aos);
}

}  // namespace exastp::detail

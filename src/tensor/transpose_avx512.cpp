#include <immintrin.h>

#include "exastp/tensor/transpose_impl.h"

namespace exastp::detail {
namespace {

/// 8x8 doubles in eight zmm registers: pairs of rows interleave, then two
/// rounds of 128-bit lane shuffles gather each column.
struct Block8 {
  using Vec = __m512d;
  static constexpr int kW = 8;
  static Vec load(const double* p) { return _mm512_loadu_pd(p); }
  static Vec zero() { return _mm512_setzero_pd(); }
  static void store(double* p, Vec v) { _mm512_storeu_pd(p, v); }
  static void transpose(Vec (&r)[8]) {
    // t[2i] = (a_{2i,0} a_{2i+1,0} | a_{2i,2} a_{2i+1,2} | ...), t[2i+1]
    // the odd columns.
    Vec t[8];
    for (int i = 0; i < 4; ++i) {
      t[2 * i] = _mm512_unpacklo_pd(r[2 * i], r[2 * i + 1]);
      t[2 * i + 1] = _mm512_unpackhi_pd(r[2 * i], r[2 * i + 1]);
    }
    // For parity e: u = lanes 0,1 of rows 0-3 | ..., then pick lanes.
    for (int e = 0; e < 2; ++e) {
      const Vec u0 = _mm512_shuffle_f64x2(t[e], t[2 + e], 0x44);
      const Vec u1 = _mm512_shuffle_f64x2(t[e], t[2 + e], 0xEE);
      const Vec u2 = _mm512_shuffle_f64x2(t[4 + e], t[6 + e], 0x44);
      const Vec u3 = _mm512_shuffle_f64x2(t[4 + e], t[6 + e], 0xEE);
      r[e] = _mm512_shuffle_f64x2(u0, u2, 0x88);
      r[2 + e] = _mm512_shuffle_f64x2(u0, u2, 0xDD);
      r[4 + e] = _mm512_shuffle_f64x2(u1, u3, 0x88);
      r[6 + e] = _mm512_shuffle_f64x2(u1, u3, 0xDD);
    }
  }
};

}  // namespace

void aos_to_aosoa_avx512(const double* src, const AosLayout& aos,
                         double* dst, const AosoaLayout& aosoa) {
  aos_to_aosoa_blocks<Block8>(src, aos, dst, aosoa);
}

void aosoa_to_aos_avx512(const double* src, const AosoaLayout& aosoa,
                         double* dst, const AosLayout& aos) {
  aosoa_to_aos_blocks<Block8>(src, aosoa, dst, aos);
}

}  // namespace exastp::detail

#include <immintrin.h>

#include "exastp/tensor/transpose_impl.h"

namespace exastp::detail {
namespace {

/// The all-lanes zero-masked forms of the unpack and 128-bit lane shuffle
/// compile to the same unmasked instructions as the plain intrinsics, whose
/// GCC definitions read an `_mm512_undefined_pd()` operand that trips
/// -Wmaybe-uninitialized once inlined.
constexpr __mmask8 kAllLanes = 0xFF;

/// 8x8 doubles in eight zmm registers: pairs of rows interleave, then two
/// rounds of 128-bit lane shuffles gather each column.
struct Block8 {
  using Vec = __m512d;
  static constexpr int kW = 8;
  static Vec load(const double* p) { return _mm512_loadu_pd(p); }
  static Vec zero() { return _mm512_setzero_pd(); }
  static void store(double* p, Vec v) { _mm512_storeu_pd(p, v); }
  template <int kImm>
  static Vec lanes(Vec a, Vec b) {
    return _mm512_maskz_shuffle_f64x2(kAllLanes, a, b, kImm);
  }
  static void transpose(Vec (&r)[8]) {
    // t[2i] = (a_{2i,0} a_{2i+1,0} | a_{2i,2} a_{2i+1,2} | ...), t[2i+1]
    // the odd columns.
    Vec t[8];
    for (int i = 0; i < 4; ++i) {
      t[2 * i] = _mm512_maskz_unpacklo_pd(kAllLanes, r[2 * i], r[2 * i + 1]);
      t[2 * i + 1] =
          _mm512_maskz_unpackhi_pd(kAllLanes, r[2 * i], r[2 * i + 1]);
    }
    // For parity e: u = lanes 0,1 of rows 0-3 | ..., then pick lanes.
    for (int e = 0; e < 2; ++e) {
      const Vec u0 = lanes<0x44>(t[e], t[2 + e]);
      const Vec u1 = lanes<0xEE>(t[e], t[2 + e]);
      const Vec u2 = lanes<0x44>(t[4 + e], t[6 + e]);
      const Vec u3 = lanes<0xEE>(t[4 + e], t[6 + e]);
      r[e] = lanes<0x88>(u0, u2);
      r[2 + e] = lanes<0xDD>(u0, u2);
      r[4 + e] = lanes<0x88>(u1, u3);
      r[6 + e] = lanes<0xDD>(u1, u3);
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

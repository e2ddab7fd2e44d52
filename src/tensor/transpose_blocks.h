// The register blocks of the ISA translation units: a kW x kW block of
// doubles held in kW registers, with load/store/zero and an in-register
// transpose. The AoS <-> AoSoA transposes (transpose_impl.h) tile a cell
// line with them, and the AoSoA face projection (kernels/face_impl.h)
// folds and transposes with them, so a block also broadcasts a weight,
// multiply-adds (fused on the FMA ISAs) and loads kW floats widened
// exactly to doubles.
//
// Each policy exists only where its instructions do (__AVX512F__,
// __AVX2__, each with __FMA__), and internal linkage gives every including
// TU its own copy compiled with its own -m flags: the AVX-512 TU sees
// Block4 too, and must not hand its build of it to the AVX2 TU.
#pragma once

#include <cmath>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace exastp::detail {
namespace {

#if defined(__AVX512F__) && defined(__FMA__)
/// The all-lanes zero-masked forms of the unpack, the 128-bit lane shuffle
/// and the float widening compile to the same unmasked instructions as the
/// plain intrinsics, whose GCC definitions read an `_mm512_undefined_pd()`
/// operand that trips -Wmaybe-uninitialized once inlined.
constexpr __mmask8 kAllLanes = 0xFF;

/// 8x8 doubles in eight zmm registers: pairs of rows interleave, then two
/// rounds of 128-bit lane shuffles gather each column.
struct Block8 {
  using Vec = __m512d;
  static constexpr int kW = 8;
  static Vec load(const double* p) { return _mm512_loadu_pd(p); }
  static Vec load(const float* p) {
    return _mm512_maskz_cvtps_pd(kAllLanes, _mm256_loadu_ps(p));
  }
  static Vec zero() { return _mm512_setzero_pd(); }
  static Vec set1(double w) { return _mm512_set1_pd(w); }
  static Vec fmadd(Vec a, Vec b, Vec c) { return _mm512_fmadd_pd(a, b, c); }
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
#endif

#if defined(__AVX2__) && defined(__FMA__)
/// 4x4 doubles in four ymm registers.
struct Block4 {
  using Vec = __m256d;
  static constexpr int kW = 4;
  static Vec load(const double* p) { return _mm256_loadu_pd(p); }
  static Vec load(const float* p) { return _mm256_cvtps_pd(_mm_loadu_ps(p)); }
  static Vec zero() { return _mm256_setzero_pd(); }
  static Vec set1(double w) { return _mm256_set1_pd(w); }
  static Vec fmadd(Vec a, Vec b, Vec c) { return _mm256_fmadd_pd(a, b, c); }
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
#endif

/// One double: the scalar ISA's block, for the baseline TU. fmadd rounds
/// once where the TU has FMA and otherwise rounds the product and then the
/// sum, like the projection's mul_add (kernels/face_impl.h).
struct Block1 {
  using Vec = double;
  static constexpr int kW = 1;
  static Vec load(const double* p) { return *p; }
  static Vec load(const float* p) { return static_cast<double>(*p); }
  static Vec zero() { return 0.0; }
  static Vec set1(double w) { return w; }
  static Vec fmadd(Vec a, Vec b, Vec c) {
#if defined(__FMA__)
    return std::fma(a, b, c);
#else
    return c + a * b;
#endif
  }
  static void store(double* p, Vec v) { *p = v; }
  static void transpose(Vec (&)[1]) {}
};

}  // namespace
}  // namespace exastp::detail

// Register-block AoS <-> AoSoA transposes, instantiated once per ISA
// translation unit (transpose_avx2.cpp, transpose_avx512.cpp), the pattern
// of gemm_impl.h and vecops_impl.h. A block policy B supplies the register
// type Vec, its width kW in doubles, and load/store/zero/transpose of a
// kW x kW block held in kW registers.
//
// Both loops tile one (k3,k2) line: the n x m_pad AoS matrix [k1][s] and
// the m x n_pad AoSoA matrix [s][k1]. A block row that lies past the
// source's rows (k1 >= n, or s >= m) is a zero register, and a block row
// that lies past the destination's rows is not stored, so every
// destination element, padding included, is written exactly once.
#pragma once

#include <cstddef>

#include "exastp/tensor/layout.h"

namespace exastp::detail {

template <class B>
void aos_to_aosoa_blocks(const double* src, const AosLayout& aos,
                         double* dst, const AosoaLayout& aosoa) {
  constexpr int W = B::kW;
  const int n = aos.n, m = aos.m, mp = aos.m_pad, np = aosoa.n_pad;
  const std::size_t lines = static_cast<std::size_t>(n) * n;
  typename B::Vec r[W];
  for (std::size_t l = 0; l < lines; ++l) {
    const double* s_line = src + l * n * mp;
    double* d_line = dst + l * m * np;
    for (int s0 = 0; s0 < m; s0 += W)
      for (int k0 = 0; k0 < np; k0 += W) {
        for (int i = 0; i < W; ++i)
          r[i] = k0 + i < n ? B::load(s_line + (k0 + i) * mp + s0)
                            : B::zero();
        B::transpose(r);
        for (int i = 0; i < W && s0 + i < m; ++i)
          B::store(d_line + (s0 + i) * np + k0, r[i]);
      }
  }
}

template <class B>
void aosoa_to_aos_blocks(const double* src, const AosoaLayout& aosoa,
                         double* dst, const AosLayout& aos) {
  constexpr int W = B::kW;
  const int n = aos.n, m = aos.m, mp = aos.m_pad, np = aosoa.n_pad;
  const std::size_t lines = static_cast<std::size_t>(n) * n;
  typename B::Vec r[W];
  for (std::size_t l = 0; l < lines; ++l) {
    const double* s_line = src + l * m * np;
    double* d_line = dst + l * n * mp;
    for (int k0 = 0; k0 < n; k0 += W)
      for (int s0 = 0; s0 < mp; s0 += W) {
        for (int i = 0; i < W; ++i)
          r[i] = s0 + i < m ? B::load(s_line + (s0 + i) * np + k0)
                            : B::zero();
        B::transpose(r);
        for (int i = 0; i < W && k0 + i < n; ++i)
          B::store(d_line + (k0 + i) * mp + s0, r[i]);
      }
  }
}

void aos_to_aosoa_avx2(const double* src, const AosLayout& aos, double* dst,
                       const AosoaLayout& aosoa);
void aosoa_to_aos_avx2(const double* src, const AosoaLayout& aosoa,
                       double* dst, const AosLayout& aos);
void aos_to_aosoa_avx512(const double* src, const AosLayout& aos,
                         double* dst, const AosoaLayout& aosoa);
void aosoa_to_aos_avx512(const double* src, const AosoaLayout& aosoa,
                         double* dst, const AosLayout& aos);

}  // namespace exastp::detail

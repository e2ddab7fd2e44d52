// Layout conversions.
//
// The AoSoA kernel keeps the engine-facing API in AoS: the state is
// transposed to AoSoA on kernel entry and the outputs back to AoS on exit
// (paper Sec. V-B, "the performance impact of these transpositions is
// minimal"). The per-user-function-call AoS<->SoA transpose that the paper
// evaluated and rejected for linear PDEs is also provided for the ablation
// benchmark.
#pragma once

#include "exastp/common/simd.h"
#include "exastp/tensor/layout.h"

namespace exastp {

/// AoS -> AoSoA for one cell tensor. Each (k3,k2) line is an n x m_pad
/// matrix on the AoS side and an m x n_pad matrix on the AoSoA side; `isa`
/// moves it in register blocks of vector_width(isa)^2 doubles (8x8 on
/// AVX-512, 4x4 on AVX2, compiled in that ISA's translation unit) or, for
/// Isa::kScalar, element by element. Every destination element, padding
/// lanes included, is written exactly once, the padding with zero, so
/// downstream SIMD arithmetic on padded lanes is well defined. Both layouts
/// must be padded to a multiple of vector_width(isa). All ISAs produce the
/// same bytes; the scalar path is the reference.
void aos_to_aosoa(Isa isa, const double* src, const AosLayout& aos,
                  double* dst, const AosoaLayout& aosoa);

/// AoSoA -> AoS, the same way: every destination element is written once,
/// the quantity padding lanes with zero.
void aosoa_to_aos(Isa isa, const double* src, const AosoaLayout& aosoa,
                  double* dst, const AosLayout& aos);

/// AoS -> SoA over the whole cell (rejected-variant ablation).
void aos_to_soa(const double* src, const AosLayout& aos, double* dst,
                const SoaLayout& soa);

/// SoA -> AoS over the whole cell.
void soa_to_aos(const double* src, const SoaLayout& soa, double* dst,
                const AosLayout& aos);

/// Copies an unpadded AoS tensor (leading dimension m) into a padded one
/// (leading dimension aos.m_pad), zeroing the pad lanes, and back.
void pad_aos(const double* src, int n, int m, double* dst,
             const AosLayout& aos);
void unpad_aos(const double* src, const AosLayout& aos, int m, double* dst);

}  // namespace exastp

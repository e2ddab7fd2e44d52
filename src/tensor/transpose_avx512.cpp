#include "exastp/tensor/transpose_blocks.h"
#include "exastp/tensor/transpose_impl.h"

namespace exastp::detail {

void aos_to_aosoa_avx512(const double* src, const AosLayout& aos,
                         double* dst, const AosoaLayout& aosoa) {
  aos_to_aosoa_blocks<Block8>(src, aos, dst, aosoa);
}

void aosoa_to_aos_avx512(const double* src, const AosoaLayout& aosoa,
                         double* dst, const AosLayout& aos) {
  aosoa_to_aos_blocks<Block8>(src, aosoa, dst, aos);
}

}  // namespace exastp::detail

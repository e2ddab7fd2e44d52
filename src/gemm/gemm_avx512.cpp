// AVX-512 microkernel TU: compiled with -mavx512f -mavx512vl -mfma
// (Skylake-SP code path).
#include "exastp/gemm/gemm_impl.h"

namespace exastp::detail {

EXASTP_DEFINE_GEMM_KERNEL(gemm_batch_avx512)

}  // namespace exastp::detail

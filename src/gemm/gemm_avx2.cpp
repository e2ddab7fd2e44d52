// AVX2 microkernel TU: compiled with -mavx2 -mfma (Haswell code path of the
// paper's Fig. 4 comparison).
#include "exastp/gemm/gemm_impl.h"

namespace exastp::detail {

EXASTP_DEFINE_GEMM_KERNEL(gemm_batch_avx2)

}  // namespace exastp::detail

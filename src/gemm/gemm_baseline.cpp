// Baseline-ISA microkernel TU: compiled with the project's default flags
// (no -m extensions), so GCC packs at most 128 bits (SSE2).
#include "exastp/gemm/gemm_impl.h"

namespace exastp::detail {

EXASTP_DEFINE_GEMM_KERNEL(gemm_batch_baseline)

}  // namespace exastp::detail

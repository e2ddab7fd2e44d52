// AVX-512 line-function and face-trace TU: compiled with -mavx512f -mavx512vl -mfma.
#include "exastp/kernels/face_impl.h"
#include "exastp/pde/pde_lines_impl.h"

namespace exastp::detail {

EXASTP_DEFINE_PDE_LINES(avx512)
EXASTP_DEFINE_FACE_OPS(avx512, Isa::kAvx512, Block8)

}  // namespace exastp::detail

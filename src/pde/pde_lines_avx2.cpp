// AVX2 line-function and face-trace TU: compiled with -mavx2 -mfma.
#include "exastp/kernels/face_impl.h"
#include "exastp/pde/pde_lines_impl.h"

namespace exastp::detail {

EXASTP_DEFINE_PDE_LINES(avx2)
EXASTP_DEFINE_FACE_OPS(avx2, Isa::kAvx2, Block4)

}  // namespace exastp::detail

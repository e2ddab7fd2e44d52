// Baseline-ISA line-function and face-trace TU: compiled with the project's default flags
// (no -m extensions), so GCC packs at most 128 bits (SSE2).
#include "exastp/kernels/face_impl.h"
#include "exastp/pde/pde_lines_impl.h"

namespace exastp::detail {

EXASTP_DEFINE_PDE_LINES(baseline, 2)
EXASTP_DEFINE_FACE_OPS(baseline, Isa::kScalar, Block1)

}  // namespace exastp::detail

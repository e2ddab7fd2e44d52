// Baseline-ISA line-function TU: compiled with the project's default flags
// (no -m extensions), so GCC packs at most 128 bits (SSE2).
#include "exastp/pde/pde_lines_impl.h"

namespace exastp::detail {

EXASTP_DEFINE_PDE_LINES(baseline)

}  // namespace exastp::detail

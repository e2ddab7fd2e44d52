// AVX2 line-function TU: compiled with -mavx2 -mfma.
#include "exastp/pde/pde_lines_impl.h"

namespace exastp::detail {

EXASTP_DEFINE_PDE_LINES(avx2)

}  // namespace exastp::detail

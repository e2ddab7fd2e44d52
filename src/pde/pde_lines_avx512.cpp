// AVX-512 line-function TU: compiled with -mavx512f -mavx512vl -mfma.
#include "exastp/pde/pde_lines_impl.h"

namespace exastp::detail {

EXASTP_DEFINE_PDE_LINES(avx512)

}  // namespace exastp::detail

// Kernel registry: the code-generation stand-in.
//
// The paper's Toolkit/Kernel Generator emits one tailored kernel per
// (application, architecture, variant) before compilation; here the same
// role is played by C++ templates instantiated per PDE type, with the order
// and ISA as runtime configuration. make_stp_kernel is the single entry
// point the engine and the benchmarks use to obtain a configured kernel.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <utility>

#include "exastp/common/check.h"
#include "exastp/kernels/aosoa_stp.h"
#include "exastp/kernels/generic_stp.h"
#include "exastp/kernels/log_stp.h"
#include "exastp/kernels/soa_uf_stp.h"
#include "exastp/kernels/splitck_stp.h"
#include "exastp/kernels/stp_common.h"
#include "exastp/pde/pde_base.h"

namespace exastp {

/// Parses "generic" / "log" / "splitck" / "aosoa_splitck" (alias "aosoa") /
/// "soa_uf_splitck" (alias "soa_uf"); throws on unknown names. The inverse
/// mapping for reporting is variant_name() (stp_common.h).
StpVariant parse_variant(const std::string& name);

/// All variants make_stp_kernel dispatches, in the order the paper
/// introduces them — including the rejected SoA-UF transpose ablation.
inline constexpr StpVariant kAllVariants[] = {
    StpVariant::kGeneric, StpVariant::kLog, StpVariant::kSplitCk,
    StpVariant::kAosoaSplitCk, StpVariant::kSoaUfSplitCk};

namespace detail {

/// Type-erases one kernel implementation: builds `Impl` and wraps its
/// compute() in an StpKernel that shares ownership of it.
template <class Impl, class Pde>
StpKernel wrap_stp(StpVariant variant, Precision precision, Pde pde,
                   int order, Isa isa, NodeFamily family) {
  auto impl = std::make_shared<Impl>(std::move(pde), order, isa, family);
  return StpKernel(variant, impl->layout(), isa, impl->workspace_bytes(),
                   [impl](const double* q, double dt,
                          const std::array<double, 3>& inv_dx,
                          const SourceTerm* source, const StpOutputs& out) {
                     impl->compute(q, dt, inv_dx, source, out);
                   },
                   precision);
}

/// fp32 instantiations of the two SplitCK-family kernels. Only these two
/// variants carry an fp32 path: they are the memory-bound production
/// kernels where halved DOF bytes pay off; the generic/LoG/SoA-UF variants
/// exist as measured ablations of the paper's fp64 progression and stay
/// double-only.
template <class Pde>
StpKernel make_f32_kernel(Pde pde, StpVariant variant, int order, Isa isa,
                          NodeFamily family) {
  switch (variant) {
    case StpVariant::kSplitCk:
      return wrap_stp<SplitCkStpT<Pde, float>>(variant, Precision::kF32,
                                               std::move(pde), order, isa,
                                               family);
    case StpVariant::kAosoaSplitCk:
      return wrap_stp<AosoaStpT<Pde, float>>(variant, Precision::kF32,
                                             std::move(pde), order, isa,
                                             family);
    default:
      EXASTP_FAIL("precision=fp32 supports variants splitck and "
                  "aosoa_splitck; variant " +
                  variant_name(variant) + " is fp64-only");
  }
}

/// Builds the kernel without a fork factory; make_stp_kernel adds it.
template <class Pde>
StpKernel make_stp_kernel_impl(Pde pde, StpVariant variant, int order,
                               Isa isa, NodeFamily family,
                               Precision precision) {
  if (precision == Precision::kF32)
    return make_f32_kernel(std::move(pde), variant, order, isa, family);
  switch (variant) {
    case StpVariant::kGeneric: {
      // The generic kernel is runtime-dimensioned and calls the PDE through
      // the virtual interface, like ExaHyPE's default kernels. It always
      // uses the unpadded scalar layout regardless of `isa`.
      auto adapter = std::make_shared<PdeAdapter<Pde>>(std::move(pde));
      return make_generic_stp(adapter, order, family);
    }
    case StpVariant::kLog:
      return wrap_stp<LogStp<Pde>>(variant, Precision::kF64, std::move(pde),
                                   order, isa, family);
    case StpVariant::kSplitCk:
      return wrap_stp<SplitCkStp<Pde>>(variant, Precision::kF64,
                                       std::move(pde), order, isa, family);
    case StpVariant::kAosoaSplitCk:
      return wrap_stp<AosoaStp<Pde>>(variant, Precision::kF64,
                                     std::move(pde), order, isa, family);
    case StpVariant::kSoaUfSplitCk:
      return wrap_stp<SoaUfStp<Pde>>(variant, Precision::kF64,
                                     std::move(pde), order, isa, family);
  }
  EXASTP_FAIL("unknown STP variant");
}

}  // namespace detail

template <class Pde>
StpKernel make_stp_kernel(Pde pde, StpVariant variant, int order, Isa isa,
                          NodeFamily family = NodeFamily::kGaussLegendre,
                          Precision precision = Precision::kF64) {
  StpKernel kernel = detail::make_stp_kernel_impl(pde, variant, order, isa,
                                                  family, precision);
  // The fork factory re-runs this very function, so clones can fork again
  // (each carries its own workspace; the Pde value is copied per clone).
  kernel.set_fork(
      [pde = std::move(pde), variant, order, isa, family, precision] {
        return make_stp_kernel(pde, variant, order, isa, family, precision);
      });
  return kernel;
}

}  // namespace exastp

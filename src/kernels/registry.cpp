#include "exastp/kernels/registry.h"

#include "exastp/common/check.h"

namespace exastp {

StpKernel StpKernel::fork() const {
  EXASTP_CHECK_MSG(fork_ != nullptr,
                   "kernel has no fork factory (hand-built StpKernel?); "
                   "construct it through make_stp_kernel to run it "
                   "multi-threaded");
  return fork_();
}

std::string precision_name(Precision p) {
  return p == Precision::kF32 ? "fp32" : "fp64";
}

Precision parse_precision(const std::string& name) {
  if (name == "fp64" || name == "double") return Precision::kF64;
  if (name == "fp32" || name == "float" || name == "single")
    return Precision::kF32;
  EXASTP_FAIL("unknown precision name: " + name +
              " (expected fp64 or fp32)");
}

std::string variant_name(StpVariant v) {
  switch (v) {
    case StpVariant::kGeneric: return "generic";
    case StpVariant::kLog: return "log";
    case StpVariant::kSplitCk: return "splitck";
    case StpVariant::kAosoaSplitCk: return "aosoa_splitck";
    case StpVariant::kSoaUfSplitCk: return "soa_uf_splitck";
  }
  return "unknown";
}

StpVariant parse_variant(const std::string& name) {
  if (name == "generic") return StpVariant::kGeneric;
  if (name == "log") return StpVariant::kLog;
  if (name == "splitck") return StpVariant::kSplitCk;
  if (name == "aosoa_splitck" || name == "aosoa")
    return StpVariant::kAosoaSplitCk;
  if (name == "soa_uf_splitck" || name == "soa_uf")
    return StpVariant::kSoaUfSplitCk;
  EXASTP_FAIL("unknown STP variant name: " + name);
}

}  // namespace exastp

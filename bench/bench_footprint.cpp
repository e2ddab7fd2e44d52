// Reproduces the Sec. IV-A footprint analysis: kernel
// workspace per variant and order for the m = 21 benchmark, against the
// 1 MiB Skylake-SP L2 budget. The paper's claim: the generic/LoG space-time
// storage is O(N^{d+1} m d) and exceeds L2 from order ~6, SplitCK's
// O(N^d m) stays under it through order 11.
#include <cstdio>

#include "bench_common.h"

using namespace exastp;
using namespace exastp::bench;

int main() {
  constexpr std::size_t kL2 = 1024 * 1024;
  ReportTable table({"order", "generic_KiB", "log_KiB", "splitck_KiB",
                     "aosoa_KiB", "log_over_L2", "splitck_over_L2"});
  for (int order = kBenchMinOrder; order <= kBenchMaxOrder; ++order) {
    CurvilinearElasticPde pde;
    auto generic =
        make_stp_kernel(pde, StpVariant::kGeneric, order, Isa::kScalar);
    auto log = make_stp_kernel(pde, StpVariant::kLog, order, Isa::kAvx512);
    auto sp =
        make_stp_kernel(pde, StpVariant::kSplitCk, order, Isa::kAvx512);
    auto ao =
        make_stp_kernel(pde, StpVariant::kAosoaSplitCk, order, Isa::kAvx512);
    table.add_row({std::to_string(order),
                   std::to_string(generic.workspace_bytes() / 1024),
                   std::to_string(log.workspace_bytes() / 1024),
                   std::to_string(sp.workspace_bytes() / 1024),
                   std::to_string(ao.workspace_bytes() / 1024),
                   log.workspace_bytes() > kL2 ? "yes" : "no",
                   sp.workspace_bytes() > kL2 ? "yes" : "no"});
  }
  table.print("Sec. IV-A — kernel workspace vs 1 MiB L2");
  table.write_csv("bench_footprint.csv");

  // Scaling check: fitted exponents of the footprint growth.
  CurvilinearElasticPde pde;
  auto ws = [&](StpVariant v, int n) {
    return static_cast<double>(
        make_stp_kernel(pde, v, n, Isa::kAvx512).workspace_bytes());
  };
  std::printf(
      "\nfootprint growth order->2x order: LoG x%.1f (O(N^4) predicts 16), "
      "SplitCK x%.1f (O(N^3) predicts 8)\nwrote bench_footprint.csv\n",
      ws(StpVariant::kLog, 8) / ws(StpVariant::kLog, 4),
      ws(StpVariant::kSplitCk, 8) / ws(StpVariant::kSplitCk, 4));
  return 0;
}

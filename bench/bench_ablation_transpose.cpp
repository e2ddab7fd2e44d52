// Ablation E7 (Sec. V-A/B): data-layout transposition strategies.
//
// The paper evaluated two ways to feed SoA chunks to the user functions:
//   (a) transpose the whole tensor AoS -> AoSoA once per kernel call and
//       back at the end (chosen for linear PDEs),
//   (b) transpose AoS -> SoA and back around *every* user-function call
//       (rejected: effective only for expensive non-linear user functions).
// This bench measures the production boundary of (a) relative to one AoSoA
// kernel invocation with the solver's request (the face traces and the
// volume update qnew; no average and no favg leaves the kernel): q in and
// qnew out, each at the kernel's ISA width. It also measures the rejected
// per-call scheme (2 transposes x 3 dimensions x 2 user functions x N
// Taylor orders). Every host ISA gets its own rows.
//
//   build/bench/bench_ablation_transpose [min_order] [max_order]
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_common.h"

using namespace exastp;
using namespace exastp::bench;

namespace {

double time_seconds(const std::function<void()>& fn, int reps) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  for (int r = 0; r < reps; ++r) fn();
  return std::chrono::duration<double>(clock::now() - t0).count() / reps;
}

}  // namespace

int main(int argc, char** argv) {
  const int min_order = argc > 1 ? std::atoi(argv[1]) : kBenchMinOrder;
  const int max_order = argc > 2 ? std::atoi(argv[2]) : kBenchMaxOrder;
  const std::array<double, 3> inv_dx{8.0, 8.0, 8.0};
  const double dt = 1e-3;
  ReportTable table({"isa", "order", "aosoa_kernel_ms",
                     "boundary_transpose_ms", "boundary_pct_of_kernel",
                     "rejected_soa_uf_kernel_ms", "rejected_pct_of_aosoa"});
  ReportTable native(
      {"isa", "order", "wrapper_ms", "native_ms", "saving_pct"});
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!host_supports(isa)) continue;
    for (int order = min_order; order <= max_order; ++order) {
      AosoaStp<CurvilinearElasticPde> kernel(CurvilinearElasticPde{}, order,
                                             isa);
      const AosLayout& aos = kernel.layout();
      const AosoaLayout& aosoa = kernel.internal_layout();
      AlignedVector q = benchmark_cell(aos, 0);
      AlignedVector qnew(aos.size()), traces(6 * FaceLayout(aos).size());
      StpOutputs out;
      out.qnew = qnew.data();
      out.traces = traces.data();
      AlignedVector q_a(aosoa.size()), qnew_a(aosoa.size()),
          traces_a(traces.size());
      StpOutputs out_a;
      out_a.qnew = qnew_a.data();
      out_a.traces = traces_a.data();
      aos_to_aosoa(isa, q.data(), aos, q_a.data(), aosoa);

      const int reps = order >= 9 ? 30 : 120;
      // The wrapper: the kernel as the solver calls it.
      const double wrapper = time_seconds(
          [&] { kernel.compute(q.data(), dt, inv_dx, nullptr, out); }, reps);
      // (a) the chosen scheme's boundary: one transpose in, one out.
      const double boundary = time_seconds(
          [&] {
            aos_to_aosoa(isa, q.data(), aos, q_a.data(), aosoa);
            aosoa_to_aos(isa, qnew_a.data(), aosoa, qnew.data(), aos);
          },
          reps * 10);
      // (b) the rejected scheme, measured rather than estimated: SplitCK
      // with AoS->SoA->AoS round trips around every user-function sweep.
      Measurement rejected = measure_stp(StpVariant::kSoaUfSplitCk, order,
                                         isa, /*min_seconds=*/0.05);
      table.add_row(
          {isa_name(isa), std::to_string(order),
           ReportTable::num(wrapper * 1e3, 3),
           ReportTable::num(boundary * 1e3, 4),
           ReportTable::num(100.0 * boundary / wrapper, 1),
           ReportTable::num(rejected.seconds_per_call * 1e3, 3),
           ReportTable::num(100.0 * rejected.seconds_per_call / wrapper, 1)});

      // Extension: the AoSoA-native entry point (whole engine in AoSoA —
      // the paper's future-work variant) with the same request.
      const double nat = time_seconds(
          [&] {
            kernel.compute_native(q_a.data(), dt, inv_dx, nullptr, out_a);
          },
          reps);
      native.add_row({isa_name(isa), std::to_string(order),
                      ReportTable::num(wrapper * 1e3, 3),
                      ReportTable::num(nat * 1e3, 3),
                      ReportTable::num(100.0 * (wrapper - nat) / wrapper, 1)});
    }
  }
  table.print("Sec. V ablation — boundary AoSoA transposes (q in, qnew out) "
              "vs per-call AoS<->SoA transposes");
  table.write_csv("bench_ablation_transpose.csv");
  std::printf("\nexpected: boundary transposes cost a few %% of the kernel; "
              "the rejected per-call scheme costs a large multiple of "
              "that\nwrote bench_ablation_transpose.csv\n");
  native.print("extension — AoSoA-native engine mode vs transposing wrapper");
  native.write_csv("bench_ablation_transpose_native.csv");
  std::printf("\nwrote bench_ablation_transpose_native.csv\n");
  return 0;
}

// Kernel tour: drives the STP variants directly through the public kernel
// API (no mesh/solver) on one curvilinear-elastic cell, shows that they
// produce identical predictors, and prints each variant's footprint and
// instruction mix — the paper's whole story in one terminal screen. The
// kernels come from the string-keyed PDE registry, the same path the
// Simulation façade uses. Every run also requests the half-window average.
//
// Each row prints an FNV-1a digest of the bytes of qavg, favg0..2 and
// qavg_half, padding included. Two builds of the same kernels must print
// the same digests, so diffing the output of two builds checks that a
// change kept the kernel bits.
//
//   build/examples/kernel_tour [order]
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exastp/engine/pde_registry.h"
#include "exastp/pde/curvilinear_elastic.h"
#include "exastp/perf/instr_mix.h"
#include "exastp/perf/report.h"
#include "exastp/tensor/transpose.h"

using namespace exastp;

namespace {

/// 64-bit FNV-1a over the bytes of `n` doubles, continuing from `hash`.
std::uint64_t fnv1a(const double* data, std::size_t n, std::uint64_t hash) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n * sizeof(double); ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace

int main(int argc, char** argv) {
  const int order = argc > 1 ? std::atoi(argv[1]) : 6;
  auto factory = find_pde("curvilinear_elastic");
  const Isa isa = host_best_isa();
  std::printf("order %d, m = %d quantities, host ISA %s\n", order,
              factory->info().quants, isa_name(isa).c_str());

  // One smooth cell state, shared by all variants (unpadded AoS).
  const int m = factory->info().quants;
  std::vector<double> state(static_cast<std::size_t>(order) * order * order *
                            m);
  for (std::size_t k = 0; k < state.size() / m; ++k) {
    double* node = state.data() + k * m;
    for (int s = 0; s < 9; ++s)
      node[s] = std::sin(0.37 * static_cast<double>(k) + s);
    node[CurvilinearElasticPde::kRho] = 2.7;
    node[CurvilinearElasticPde::kCp] = 6.0;
    node[CurvilinearElasticPde::kCs] = 3.464;
    for (int r = 0; r < 3; ++r)
      node[CurvilinearElasticPde::kMetric + 3 * r + r] = 1.0;
  }

  // Every fp64 variant, then the fp32 SplitCK family. The generic fp64
  // probe is the reference: fp64 rows must match it to 1e-9, fp32 rows to
  // 1e-5 (relative).
  struct Row {
    StpVariant variant;
    Precision precision;
  };
  std::vector<Row> rows;
  for (StpVariant v : kAllVariants) rows.push_back({v, Precision::kF64});
  rows.push_back({StpVariant::kSplitCk, Precision::kF32});
  rows.push_back({StpVariant::kAosoaSplitCk, Precision::kF32});

  ReportTable table(
      {"variant", "precision", "workspace_KiB", "qavg[0]", "digest", "mix"});
  double reference = 0.0;
  for (const Row& row : rows) {
    StpKernel kernel = factory->make_kernel(
        row.variant, order, isa, NodeFamily::kGaussLegendre, row.precision);
    const AosLayout& aos = kernel.layout();
    AlignedVector q(aos.size()), qavg(aos.size()), f0(aos.size()),
        f1(aos.size()), f2(aos.size()), half(aos.size());
    pad_aos(state.data(), order, m, q.data(), aos);
    StpOutputs out{qavg.data(), {f0.data(), f1.data(), f2.data()},
                   half.data()};

    FlopSection section;
    kernel.run(q.data(), 1e-3, {4.0, 4.0, 4.0}, nullptr, out);
    InstrMix mix = instruction_mix(section.delta());

    std::uint64_t digest = 14695981039346656037ull;
    for (const AlignedVector* t : {&qavg, &f0, &f1, &f2, &half})
      digest = fnv1a(t->data(), t->size(), digest);
    char digest_hex[17];
    std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                  static_cast<unsigned long long>(digest));

    const double probe = qavg[aos.idx(1, 1, 1, 2)];
    if (row.variant == StpVariant::kGeneric) reference = probe;
    const std::string name = variant_name(row.variant);
    const std::string precision = precision_name(row.precision);
    table.add_row({name, precision,
                   std::to_string(kernel.workspace_bytes() / 1024),
                   ReportTable::num(probe, 12), digest_hex, format_mix(mix)});
    const double tolerance =
        row.precision == Precision::kF32 ? 1e-5 : 1e-9;
    if (std::abs(probe - reference) > tolerance * std::abs(reference)) {
      std::printf("VARIANT MISMATCH for %s %s\n", name.c_str(),
                  precision.c_str());
      return 1;
    }
  }
  table.print("all kernel variants, one scheme");
  std::printf("\nall variants agree to floating-point tolerance\n");
  return 0;
}

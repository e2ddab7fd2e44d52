// Kernel tour: drives the STP variants directly through the public kernel
// API (no mesh/solver) on one curvilinear-elastic cell, shows that they
// produce identical predictors, and prints each variant's footprint and
// instruction mix — the paper's whole story in one terminal screen. The
// kernels come from the string-keyed PDE registry, the same path the
// Simulation façade uses. Every run requests every output: qavg, favg0..2,
// the half-window average, the volume update qnew and the face traces of
// both averages.
//
// Each row prints an FNV-1a digest of the bytes of qavg, favg0..2 and
// qavg_half, one of qnew and one of the traces and half-window traces,
// padding included. Two builds of the same kernels must print the same
// digests, so diffing the output of two builds checks that a change kept
// the kernel bits. The tour exits 1 unless every qnew equals q + dt *
// favg0 + dt * favg1 + dt * favg2, and every trace set equals
// project_faces of the average it came from, bit for bit.
//
//   build/examples/kernel_tour [order]
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "exastp/engine/pde_registry.h"
#include "exastp/kernels/face.h"
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

  ReportTable table({"variant", "precision", "workspace_KiB", "qavg[0]",
                     "digest", "qnew", "traces", "mix"});
  const double dt = 1e-3;
  double reference = 0.0;
  for (const Row& row : rows) {
    StpKernel kernel = factory->make_kernel(
        row.variant, order, isa, NodeFamily::kGaussLegendre, row.precision);
    const AosLayout& aos = kernel.layout();
    AlignedVector q(aos.size()), qavg(aos.size()), f0(aos.size()),
        f1(aos.size()), f2(aos.size()), half(aos.size()), qnew(aos.size());
    const std::size_t trace_size = 6 * FaceLayout(aos).size();
    AlignedVector traces(trace_size), traces_half(trace_size);
    pad_aos(state.data(), order, m, q.data(), aos);
    StpOutputs out{qavg.data(), {f0.data(), f1.data(), f2.data()},
                   half.data(), qnew.data(), traces.data(),
                   traces_half.data()};

    FlopSection section;
    kernel.run(q.data(), dt, {4.0, 4.0, 4.0}, nullptr, out);
    InstrMix mix = instruction_mix(section.delta());

    std::uint64_t digest = 14695981039346656037ull;
    for (const AlignedVector* t : {&qavg, &f0, &f1, &f2, &half})
      digest = fnv1a(t->data(), t->size(), digest);
    const std::uint64_t qnew_digest =
        fnv1a(qnew.data(), qnew.size(), 14695981039346656037ull);
    const std::uint64_t traces_digest = fnv1a(
        traces_half.data(), traces_half.size(),
        fnv1a(traces.data(), traces.size(), 14695981039346656037ull));
    char digest_hex[17], qnew_hex[17], traces_hex[17];
    std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                  static_cast<unsigned long long>(digest));
    std::snprintf(qnew_hex, sizeof qnew_hex, "%016llx",
                  static_cast<unsigned long long>(qnew_digest));
    std::snprintf(traces_hex, sizeof traces_hex, "%016llx",
                  static_cast<unsigned long long>(traces_digest));

    const double probe = qavg[aos.idx(1, 1, 1, 2)];
    if (row.variant == StpVariant::kGeneric) reference = probe;
    const std::string name = variant_name(row.variant);
    const std::string precision = precision_name(row.precision);
    table.add_row({name, precision,
                   std::to_string(kernel.workspace_bytes() / 1024),
                   ReportTable::num(probe, 12), digest_hex, qnew_hex,
                   traces_hex, format_mix(mix)});
    // The solver's volume update, element by element in its order.
    for (std::size_t i = 0; i < q.size(); ++i) {
      double v = q[i];
      v += dt * f0[i];
      v += dt * f1[i];
      v += dt * f2[i];
      if (std::memcmp(&v, &qnew[i], sizeof v) != 0) {
        std::printf("QNEW MISMATCH for %s %s at element %zu\n", name.c_str(),
                    precision.c_str(), i);
        return 1;
      }
    }
    // The traces are the kernel's projection of the averages it returned.
    const BasisTables& basis = basis_tables(order);
    AlignedVector want(trace_size);
    for (const auto& [avg, got] :
         {std::pair{&qavg, &traces}, std::pair{&half, &traces_half}}) {
      project_faces(kernel.isa(), aos, basis, avg->data(), want.data());
      if (std::memcmp(want.data(), got->data(),
                      trace_size * sizeof(double)) != 0) {
        std::printf("TRACES MISMATCH for %s %s\n", name.c_str(),
                    precision.c_str());
        return 1;
      }
    }
    const double tolerance =
        row.precision == Precision::kF32 ? 1e-5 : 1e-9;
    if (std::abs(probe - reference) > tolerance * std::abs(reference)) {
      std::printf("VARIANT MISMATCH for %s %s\n", name.c_str(),
                  precision.c_str());
      return 1;
    }
  }
  table.print("all kernel variants, one scheme");
  std::printf("\nall variants agree to floating-point tolerance; every qnew "
              "is q + dt * sum favg and every trace set the projection of "
              "its average, bit for bit\n");
  return 0;
}

// The PDE line-function layer (pde/pde_lines.h, paper Sec. V-C / Fig. 8)
// at the shapes the AoSoA kernel issues, via google-benchmark: one whole
// cell of padded x-lines per call (n^2 lines of n_pad lanes, m * n_pad
// apart), for elastic orders 6 and 8 in fp64 (loh1_stiff_lts,
// loh1_o8_serial), acoustic order 4 in fp32 (planewave) and the paper's
// curvilinear elastic order 8 in fp64, at every host ISA. Elastic and
// acoustic order 9 in fp32 give lines of two chunks (n_pad 16 on AVX-512,
// run as two 8-float chunks since the chunk width is the double width).
//
//   Flux/<pde>/<isa>  one flux_line call over the cell per direction, the
//                     three directions of one Taylor step;
//   Ncp/<pde>/<isa>   the curvilinear NCP as the kernel issues it: one
//                     ncp_line call per x-line into a one-line buffer, the
//                     cell's lines per direction.
//
// The state is sin(0.37 k + s) on the evolved quantities of node k and the
// PDE's default parameters on the rest, with zero padding lanes as in the
// kernel. Timings are recorded, not gated.
//
//   build/bench/bench_line_functions [--benchmark_filter=Flux/elastic_o8]
#include <benchmark/benchmark.h>

#include <cmath>
#include <string>

#include "exastp/common/aligned.h"
#include "exastp/engine/pde_registry.h"
#include "exastp/pde/acoustic.h"
#include "exastp/pde/curvilinear_elastic.h"
#include "exastp/pde/elastic.h"
#include "exastp/pde/pde_lines.h"
#include "exastp/tensor/layout.h"

namespace {

using namespace exastp;

/// One cell of Pde in Real on the `aosoa` layout, padding lanes zero.
template <class Pde, class Real>
AlignedVectorT<Real> aosoa_cell(const AosoaLayout& aosoa) {
  const auto factory = find_pde(Pde::kName);
  AlignedVectorT<Real> cell(aosoa.size(), Real(0));
  double node[Pde::kQuants];
  const int n = aosoa.n;
  for (int k3 = 0; k3 < n; ++k3)
    for (int k2 = 0; k2 < n; ++k2)
      for (int k1 = 0; k1 < n; ++k1) {
        const int k = (k3 * n + k2) * n + k1;
        for (int s = 0; s < Pde::kQuants; ++s)
          node[s] = s < Pde::kVars ? std::sin(0.37 * k + s) : 0.0;
        factory->default_parameters(node);
        for (int s = 0; s < Pde::kQuants; ++s)
          cell[aosoa.idx(k3, k2, s, k1)] = static_cast<Real>(node[s]);
      }
  return cell;
}

template <class Pde, class Real>
void flux_cell(benchmark::State& state, Isa isa, int order) {
  const AosoaLayout aosoa(order, Pde::kQuants, isa);
  const AlignedVectorT<Real> q = aosoa_cell<Pde, Real>(aosoa);
  AlignedVectorT<Real> flux(aosoa.size(), Real(0));
  const int np = aosoa.n_pad;
  const int lines = aosoa.n * aosoa.n;
  const Pde pde;
  for (auto _ : state) {
    for (int d = 0; d < 3; ++d)
      flux_line(isa, pde, q.data(), d, flux.data(), np, np, lines,
                static_cast<long>(Pde::kQuants) * np);
    benchmark::DoNotOptimize(flux.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 3 * lines);
}

template <class Pde, class Real>
void ncp_cell(benchmark::State& state, Isa isa, int order) {
  const AosoaLayout aosoa(order, Pde::kQuants, isa);
  const AlignedVectorT<Real> q = aosoa_cell<Pde, Real>(aosoa);
  const AlignedVectorT<Real> gradq = q;
  const int np = aosoa.n_pad;
  const long line = static_cast<long>(Pde::kQuants) * np;
  const int lines = aosoa.n * aosoa.n;
  AlignedVectorT<Real> line_buf(line, Real(0));
  const Pde pde;
  for (auto _ : state) {
    for (int d = 0; d < 3; ++d)
      for (int l = 0; l < lines; ++l)
        ncp_line(isa, pde, q.data() + l * line, gradq.data() + l * line, d,
                 line_buf.data(), np, np, 1, 0);
    benchmark::DoNotOptimize(line_buf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 3 * lines);
}

void register_isa(Isa isa) {
  auto name = [isa](const char* shape) {
    std::string full = shape;
    full += '/';
    full += isa_name(isa);
    return full;
  };
  benchmark::RegisterBenchmark(name("Flux/elastic_o6_fp64").c_str(),
                               flux_cell<ElasticPde, double>, isa, 6);
  benchmark::RegisterBenchmark(name("Flux/elastic_o8_fp64").c_str(),
                               flux_cell<ElasticPde, double>, isa, 8);
  benchmark::RegisterBenchmark(name("Flux/acoustic_o4_fp32").c_str(),
                               flux_cell<AcousticPde, float>, isa, 4);
  benchmark::RegisterBenchmark(name("Flux/acoustic_o9_fp32").c_str(),
                               flux_cell<AcousticPde, float>, isa, 9);
  benchmark::RegisterBenchmark(name("Flux/elastic_o9_fp32").c_str(),
                               flux_cell<ElasticPde, float>, isa, 9);
  benchmark::RegisterBenchmark(
      name("Flux/curvilinear_elastic_o8_fp64").c_str(),
      flux_cell<CurvilinearElasticPde, double>, isa, 8);
  benchmark::RegisterBenchmark(
      name("Ncp/curvilinear_elastic_o8_fp64").c_str(),
      ncp_cell<CurvilinearElasticPde, double>, isa, 8);
}

}  // namespace

int main(int argc, char** argv) {
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512})
    if (host_supports(isa)) register_isa(isa);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

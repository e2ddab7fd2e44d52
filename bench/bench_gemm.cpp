// E8 (Sec. III-B): mini-GEMM microkernels vs the naive triple loop on the
// exact tensor-slice shapes the STP kernels issue, via google-benchmark.
// This is the LIBXSMM-substitution sanity check: the ISA paths must deliver
// clear speedups over the reference loop on every shape class.
#include <benchmark/benchmark.h>

#include <iterator>

#include "exastp/common/aligned.h"
#include "exastp/gemm/gemm.h"

namespace {

using namespace exastp;

struct Shape {
  int m, n, k;
};

// Slice shapes for the m=21 elastic benchmark (mPad = 24) at orders 6/8/11:
// AoS x-derivative (D x slice), fused y-slab, AoSoA x-line (slice x D^T);
// then the AoSoA shapes the perfbench workloads issue at isa=avx512
// (x-lines carry only the flux rows that can be nonzero: 9 for elastic,
// 2 + dir for acoustic).
const Shape kShapes[] = {
    {6, 24, 6},    // AoS x, order 6
    {8, 24, 8},    // AoS x, order 8
    {11, 24, 11},  // AoS x, order 11
    {8, 192, 8},   // AoS y fused, order 8
    {11, 264, 11}, // AoS y fused, order 11
    {21, 8, 8},    // AoSoA x, order 8
    {21, 16, 11},  // AoSoA x, order 11
    {9, 8, 8},     // elastic AoSoA x-line, order 8 (loh1_o8_serial)
    {8, 72, 8},    // elastic AoSoA y/z slab, order 8
    {9, 8, 6},     // elastic AoSoA x-line, order 6 (loh1_stiff_lts)
    {2, 8, 4},     // acoustic AoSoA x-line, order 4 (planewave)
};
constexpr int kLastShape = static_cast<int>(std::size(kShapes)) - 1;

void run_gemm(benchmark::State& state, Isa isa, bool reference) {
  const Shape shape = kShapes[state.range(0)];
  if (isa != Isa::kScalar && !host_supports(isa)) {
    state.SkipWithError("host lacks ISA");
    return;
  }
  AlignedVector a(static_cast<std::size_t>(shape.m) * shape.k, 1.5);
  AlignedVector b(static_cast<std::size_t>(shape.k) * shape.n, -0.5);
  AlignedVector c(static_cast<std::size_t>(shape.m) * shape.n, 0.0);
  for (auto _ : state) {
    if (reference) {
      gemm_reference(true, 1.0, shape.m, shape.n, shape.k, a.data(), shape.k,
                     b.data(), shape.n, c.data(), shape.n);
    } else {
      gemm_acc(isa, shape.m, shape.n, shape.k, a.data(), shape.k, b.data(),
               shape.n, c.data(), shape.n);
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlops"] = benchmark::Counter(
      2.0 * shape.m * shape.n * shape.k * state.iterations(),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

// Float GEMM on the same shapes: the fp32 storage path's microkernels
// (identical schedule, twice the lanes per vector). Compare against the
// double rows to see the fp32 arithmetic headroom in isolation.
void run_gemm_f32(benchmark::State& state, Isa isa) {
  const Shape shape = kShapes[state.range(0)];
  if (isa != Isa::kScalar && !host_supports(isa)) {
    state.SkipWithError("host lacks ISA");
    return;
  }
  AlignedVectorF a(static_cast<std::size_t>(shape.m) * shape.k, 1.5f);
  AlignedVectorF b(static_cast<std::size_t>(shape.k) * shape.n, -0.5f);
  AlignedVectorF c(static_cast<std::size_t>(shape.m) * shape.n, 0.0f);
  for (auto _ : state) {
    gemm_acc(isa, shape.m, shape.n, shape.k, a.data(), shape.k, b.data(),
             shape.n, c.data(), shape.n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlops"] = benchmark::Counter(
      2.0 * shape.m * shape.n * shape.k * state.iterations(),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

void BM_Naive(benchmark::State& state) {
  run_gemm(state, Isa::kScalar, /*reference=*/true);
}
void BM_Baseline(benchmark::State& state) {
  run_gemm(state, Isa::kScalar, /*reference=*/false);
}
void BM_Avx2(benchmark::State& state) {
  run_gemm(state, Isa::kAvx2, /*reference=*/false);
}
void BM_Avx512(benchmark::State& state) {
  run_gemm(state, Isa::kAvx512, /*reference=*/false);
}
void BM_Avx2F32(benchmark::State& state) {
  run_gemm_f32(state, Isa::kAvx2);
}
void BM_Avx512F32(benchmark::State& state) {
  run_gemm_f32(state, Isa::kAvx512);
}

}  // namespace

BENCHMARK(BM_Naive)->DenseRange(0, kLastShape);
BENCHMARK(BM_Baseline)->DenseRange(0, kLastShape);
BENCHMARK(BM_Avx2)->DenseRange(0, kLastShape);
BENCHMARK(BM_Avx512)->DenseRange(0, kLastShape);
BENCHMARK(BM_Avx2F32)->DenseRange(0, kLastShape);
BENCHMARK(BM_Avx512F32)->DenseRange(0, kLastShape);

BENCHMARK_MAIN();

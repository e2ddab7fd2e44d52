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
// AoS x-derivative (D x slice), fused y plane, AoSoA x-line (slice x D^T);
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
    {8, 72, 8},    // elastic AoSoA masked y/z block, order 8
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
      gemm_batch(isa, true, 1.0, shape.m, shape.n, shape.k, a.data(),
                 shape.k, 0, b.data(), shape.n, 0, c.data(), shape.n, 0, 1);
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
    gemm_batch(isa, true, 1.0f, shape.m, shape.n, shape.k, a.data(), shape.k,
               0, b.data(), shape.n, 0, c.data(), shape.n, 0, 1);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlops"] = benchmark::Counter(
      2.0 * shape.m * shape.n * shape.k * state.iterations(),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

// The dispatch gap: the AoSoA x sweep of one cell, as the perfbench
// workloads issue it at isa=avx512 — `lines` = n^2 x-line GEMMs Q'_l * D^T,
// the lines m * n_pad apart and D^T shared — once as a loop of single calls
// (one dispatch, argument check and FLOP booking each) and once as one
// strided batch. Same arithmetic, same bits.
struct LineBatch {
  Shape shape;
  int lines;
};
const LineBatch kLineBatches[] = {
    {{9, 8, 8}, 64},  // elastic order 8 (loh1_o8_serial)
    {{9, 8, 6}, 36},  // elastic order 6 (loh1_stiff_lts)
    {{2, 8, 4}, 16},  // acoustic order 4 (planewave, fp64 here)
};
constexpr int kLastLineBatch = static_cast<int>(std::size(kLineBatches)) - 1;

void run_line_batch(benchmark::State& state, bool batched) {
  const LineBatch lb = kLineBatches[state.range(0)];
  const Shape& s = lb.shape;
  if (!host_supports(Isa::kAvx512)) {
    state.SkipWithError("host lacks ISA");
    return;
  }
  const long line = static_cast<long>(s.m) * s.n;
  AlignedVector q(static_cast<std::size_t>(lb.lines) * line, 1.5);
  AlignedVector dt(static_cast<std::size_t>(s.k) * s.n, -0.5);
  AlignedVector out(q.size(), 0.0);
  for (auto _ : state) {
    if (batched) {
      gemm_batch(Isa::kAvx512, true, 0.5, s.m, s.n, s.k, q.data(), s.n, line,
                 dt.data(), s.n, 0, out.data(), s.n, line, lb.lines);
    } else {
      for (int l = 0; l < lb.lines; ++l)
        gemm_batch(Isa::kAvx512, true, 0.5, s.m, s.n, s.k, q.data() + l * line,
                   s.n, 0, dt.data(), s.n, 0, out.data() + l * line, s.n, 0,
                   1);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFlops"] = benchmark::Counter(
      2.0 * s.m * s.n * s.k * lb.lines * state.iterations(),
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
void BM_Avx512LinesPerCall(benchmark::State& state) {
  run_line_batch(state, /*batched=*/false);
}
void BM_Avx512LinesBatched(benchmark::State& state) {
  run_line_batch(state, /*batched=*/true);
}

}  // namespace

BENCHMARK(BM_Naive)->DenseRange(0, kLastShape);
BENCHMARK(BM_Baseline)->DenseRange(0, kLastShape);
BENCHMARK(BM_Avx2)->DenseRange(0, kLastShape);
BENCHMARK(BM_Avx512)->DenseRange(0, kLastShape);
BENCHMARK(BM_Avx2F32)->DenseRange(0, kLastShape);
BENCHMARK(BM_Avx512F32)->DenseRange(0, kLastShape);
BENCHMARK(BM_Avx512LinesPerCall)->DenseRange(0, kLastLineBatch);
BENCHMARK(BM_Avx512LinesBatched)->DenseRange(0, kLastLineBatch);

BENCHMARK_MAIN();

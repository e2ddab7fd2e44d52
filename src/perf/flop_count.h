// Dynamic floating-point-operation accounting.
//
// Substitutes for the VTune FLOP / instruction-mix counters used in the
// paper's Figs. 4, 6, 9, 10. Every compute path (mini-GEMM, element-wise
// kernel loops, PDE user functions) reports the FLOPs it executed, classified
// by the SIMD packing width of the loop that performed them:
//
//   kScalar — genuinely scalar code (pointwise user functions, runtime-dim
//             generic loops the compiler cannot vectorize),
//   k128    — baseline-ISA auto-vectorization (the build uses no -march, so
//             GCC's default x86-64 SSE2 packs 2 doubles; this is the "128
//             bits" class of Fig. 9),
//   k256    — AVX2 code paths (4 doubles),
//   k512    — AVX-512 code paths (8 doubles).
//
// Counts include the zero-padding work, exactly as a hardware counter would.
// Worker threads of the parallel steppers report concurrently: add() uses
// relaxed atomic increments (integer adds commute, so totals stay exact and
// deterministic for any thread count), while reset()/total() are meant for
// the quiescent phases between parallel regions — the benches measure
// single-core kernel runs exactly as before.
//
// Scoping: instance() returns the process-global counter unless the calling
// thread has a per-run counter installed (thread_instance(), set by
// telemetry/telemetry.h TelemetryScope). Kernels and benches keep calling
// instance() as always; inside a scoped Simulation the FLOPs land in that
// run's own TelemetryRegistry, so concurrent ensemble jobs no longer
// double-count each other's work in one shared accumulator.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "exastp/common/simd.h"

namespace exastp {

enum class WidthClass : int { kScalar = 0, k128 = 1, k256 = 2, k512 = 3 };

inline constexpr int kNumWidthClasses = 4;

struct FlopCounter {
  std::array<std::uint64_t, kNumWidthClasses> flops{};

  void add(WidthClass w, std::uint64_t count) {
    std::atomic_ref<std::uint64_t>(flops[static_cast<int>(w)])
        .fetch_add(count, std::memory_order_relaxed);
  }
  void reset() { flops = {}; }
  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (auto f : flops) t += f;
    return t;
  }
  /// Fraction of FLOPs in the given class (0 if nothing was counted).
  double fraction(WidthClass w) const {
    const std::uint64_t t = total();
    return t == 0 ? 0.0
                  : static_cast<double>(flops[static_cast<int>(w)]) /
                        static_cast<double>(t);
  }

  FlopCounter& operator+=(const FlopCounter& other) {
    for (int i = 0; i < kNumWidthClasses; ++i) flops[i] += other.flops[i];
    return *this;
  }

  static FlopCounter& instance() {
    FlopCounter* scoped = thread_instance();
    return scoped != nullptr ? *scoped : process_instance();
  }

  /// The process-global counter, bypassing any per-thread routing.
  static FlopCounter& process_instance() {
    static FlopCounter counter;
    return counter;
  }

  /// The calling thread's routing slot: null (the default) sends
  /// instance() to process_instance(); a telemetry scope points it at a
  /// per-run counter for the scope's lifetime.
  static FlopCounter*& thread_instance() {
    static thread_local FlopCounter* scoped = nullptr;
    return scoped;
  }
};

/// Packing class produced by a loop compiled for (and dispatched to) `isa`.
/// The baseline build carries no -m flags, so its auto-vectorized loops pack
/// at 128 bits (SSE2) — the Fig. 9 "128 bits" class.
constexpr WidthClass packed_width_class(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return WidthClass::k128;
    case Isa::kAvx2: return WidthClass::k256;
    case Isa::kAvx512: return WidthClass::k512;
  }
  return WidthClass::kScalar;
}

/// Accounts for a vectorized sweep of `lanes` elements at `flops_per_lane`;
/// the remainder that does not fill a vector register counts as scalar.
/// Runs once per GEMM and line-function call, so it looks the counter up
/// once and issues only the nonzero adds.
inline void count_packed_flops(Isa isa, long lanes,
                               std::uint64_t flops_per_lane) {
  if (flops_per_lane == 0) return;
  const int w = vector_width(isa);
  const long packed = lanes / w * w;
  FlopCounter& counter = FlopCounter::instance();
  if (packed > 0)
    counter.add(packed_width_class(isa), flops_per_lane * packed);
  if (lanes > packed)
    counter.add(WidthClass::kScalar, flops_per_lane * (lanes - packed));
}

/// RAII helper: snapshots the global counter and returns the delta.
class FlopSection {
 public:
  FlopSection() : start_(FlopCounter::instance()) {}
  FlopCounter delta() const {
    FlopCounter d = FlopCounter::instance();
    for (int i = 0; i < kNumWidthClasses; ++i)
      d.flops[i] -= start_.flops[i];
    return d;
  }

 private:
  FlopCounter start_;
};

}  // namespace exastp

// Per-call memory-access recording: what turns a real kernel into its trace
// twin (trace_model.h).
//
// Every primitive that touches a cell tensor reports the byte ranges of
// its operands to the calling thread's recorder, once per call, at its
// dispatcher: the mini-GEMM batch, the vecops, the PDE line functions, the
// layout transposes, the kernels' pointwise sweeps and their shared
// helpers (stp_common.h), the generic kernel's loops, the face projection
// and the surface update. Only trace_stp and tests install a recorder.
// Without one, a hook costs one thread-local load and one not-taken branch
// per call: since the predictor issues one call per sweep, that is a few
// hundred branches per kernel call, and the per-element code the paper
// measures stays as it is. A per-access callback would have changed that
// code.
//
// A recorder first learns: it keeps the distinct bytes it sees, as
// disjoint intervals in the order they were first touched (the coverage
// tests compare them with the kernel's workspace). attach() then lays the
// learned intervals out back to back in that order, each from a fresh
// cache line, and forwards every later access, translated, to a CacheSim.
// Every recorded buffer is 64-byte aligned (AlignedVector) and separate
// buffers never touch, so each learned interval is one buffer's touched
// extent, and the simulator sees the same addresses whatever malloc
// returns. trace_stp learns on a first run of its call sequence and
// simulates a second. Numbering single lines in first-touch order would
// not do: a loop that first touches two buffers alternately (a transpose,
// the generic kernel's derivative) would interleave their lines, and every
// later sweep of either buffer would reach the simulator as many short
// streams instead of one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

namespace exastp {

class CacheSim;

class AccessRecorder {
 public:
  AccessRecorder() = default;

  AccessRecorder(const AccessRecorder&) = delete;
  AccessRecorder& operator=(const AccessRecorder&) = delete;

  /// The calling thread's routing slot, like FlopCounter::thread_instance:
  /// null (the default) records nothing.
  static AccessRecorder*& thread_instance() {
    static thread_local AccessRecorder* installed = nullptr;
    return installed;
  }

  /// Installs a recorder on the calling thread for the scope's lifetime;
  /// the previous one comes back when the scope ends, also by an
  /// exception.
  class Scope {
   public:
    explicit Scope(AccessRecorder& recorder) : previous_(thread_instance()) {
      thread_instance() = &recorder;
    }
    ~Scope() { thread_instance() = previous_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    AccessRecorder* previous_;
  };

  /// Lays the intervals learned so far out back to back, in first-touch
  /// order, and feeds every later access to `sim`. Bytes first seen after
  /// this are appended to the layout.
  void attach(CacheSim& sim);

  /// `count` consecutive elements: one sequential, prefetched access.
  template <class T>
  void range(const T* p, std::size_t count) {
    touch(p, count * sizeof(T), /*demand=*/false);
  }

  /// `rows` sequential runs of `count` elements, `stride` elements apart,
  /// in ascending order.
  template <class T>
  void rows(const T* p, std::size_t rows, std::size_t count,
            std::ptrdiff_t stride) {
    for (std::size_t r = 0; r < rows; ++r)
      touch(p + static_cast<std::ptrdiff_t>(r) * stride, count * sizeof(T),
            false);
  }

  /// Like rows(), but every row is a demand access whose misses pay
  /// latency: the strided pattern of a naive contraction, which hardware
  /// prefetchers cannot hide.
  template <class T>
  void strided(const T* p, std::size_t rows, std::size_t count,
               std::ptrdiff_t stride) {
    for (std::size_t r = 0; r < rows; ++r)
      touch(p + static_cast<std::ptrdiff_t>(r) * stride, count * sizeof(T),
            true);
  }

  /// The mini-GEMM's access model (gemm.h): for every GEMM of the batch
  /// and every row i of C, C's row i and A's row i stream once, then B's
  /// k rows restream.
  template <class T>
  void gemm(int m, int n, int k, const T* a, int lda, long stride_a,
            const T* b, int ldb, long stride_b, const T* c, int ldc,
            long stride_c, int batch) {
    for (int g = 0; g < batch; ++g) {
      const T* ag = a + g * stride_a;
      const T* bg = b + g * stride_b;
      const T* cg = c + g * stride_c;
      for (int i = 0; i < m; ++i) {
        range(cg + static_cast<long>(i) * ldc, static_cast<std::size_t>(n));
        range(ag + static_cast<long>(i) * lda, static_cast<std::size_t>(k));
        rows(bg, static_cast<std::size_t>(k), static_cast<std::size_t>(n),
             ldb);
      }
    }
  }

  /// Distinct bytes recorded so far.
  std::size_t distinct_bytes() const;
  /// Distinct recorded bytes inside [p, p + bytes).
  std::size_t distinct_bytes_in(const void* p, std::size_t bytes) const;

 private:
  void touch(const void* p, std::size_t bytes, bool demand);
  /// Adds [begin, end) to the distinct bytes.
  void learn(std::uintptr_t begin, std::uintptr_t end);
  /// Appends [begin, end) to the attached layout; returns its address.
  std::uint64_t place(std::uintptr_t begin, std::uintptr_t end);

  /// The distinct bytes: start -> (end, first touch), disjoint.
  struct Learned {
    std::uintptr_t end;
    std::uint64_t first;
  };
  std::map<std::uintptr_t, Learned> bytes_;
  std::uint64_t touches_ = 0;

  /// After attach: the laid-out intervals, start -> (end, address).
  struct Placed {
    std::uintptr_t end;
    std::uint64_t address;
  };
  std::map<std::uintptr_t, Placed> layout_;
  std::uint64_t next_line_ = 64;  ///< the first page stays unused
  CacheSim* sim_ = nullptr;
};

/// Reports `count` elements of each operand, in turn, to the calling
/// thread's recorder, if one is installed.
template <class... T>
inline void record_ranges(std::size_t count, const T*... operands) {
  if (AccessRecorder* rec = AccessRecorder::thread_instance())
    (rec->range(operands, count), ...);
}

}  // namespace exastp

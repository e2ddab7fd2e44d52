// Shared mini-GEMM schedule, instantiated once per ISA translation unit.
//
// The three TUs (gemm_baseline.cpp / gemm_avx2.cpp / gemm_avx512.cpp) are
// compiled with different -m flags; including this header gives each the
// same schedule at the vector width and register count of the TU's target.
// This mirrors how LIBXSMM generates one microkernel per ISA from one
// schedule.
//
// Schedule: MB x JB register tiles of C. The unit-stride C columns are cut
// into blocks of JB = 32/16/8/4 elements (the widest first, then each
// narrower tier at most once), the last n % 4 columns into 2- and 1-wide
// tail blocks, and each column block into tiles of MB rows. A tile's MB*JB
// accumulators stay in vector registers across the whole k-loop; every k
// step loads the B row segment once and feeds it to all MB rows, so the
// tile runs MB independent FMA chains instead of one and each C element is
// loaded/stored once per GEMM.
// Rows past the last full tile (M % MB: elastic's 9-row x-lines, acoustic's
// 2-4) run in one tile of exactly that many rows.
//
// Register budget: the TU's register file (16 vector registers on the
// baseline SSE2 and AVX2 targets, 32 on AVX-512) holds MB rows of
// accumulators, one B row and the broadcast a_il (plus alpha):
//     MB = (registers - 2 - vecs) / vecs,  vecs = registers per JB-row,
// capped at kMaxTileRows. A tier whose single row does not fit (MB < 1:
// JB = 32 doubles below AVX-512, JB = 16 doubles on SSE2) is skipped and
// its columns go to the next narrower tier, so no path spills.
//
// Bits: tiling only changes which C elements are computed side by side.
// Every element keeps its exact operation sequence,
//     acc = c (or 0);  for l ascending: acc += (alpha * a_il) * b_lj,
// with the multiply-add fused on FMA targets (GCC contracts it) and
// rounded twice on the baseline target. So results are bit-identical for
// any tile shape, any M and any column window, and the 4-aligned column
// blocks every kernel issues are bit-identical to the one-row schedule
// this replaced. (That schedule's scalar tail, for n % 4 columns, let GCC
// vectorize the k-loop as an ordered reduction without fusing, so on FMA
// targets tail columns rounded differently from the same columns in a
// vector block; the tail tiles here fuse like every other tile.)
//
// Each TU also runs the strided-batch loop (gemm_batch_body) around this
// schedule, so one call crosses the dispatch once for a whole sweep and
// every GEMM of the batch still runs the one tile schedule of its ISA.
//
// The schedule is templated on the scalar type: the fp32 kernel path runs
// the same tiles over float tensors (twice the lanes per register, so the
// register budget admits wider column blocks).
//
// Everything here has internal linkage (anonymous namespace) ON PURPOSE:
// each ISA TU must get its own copy compiled with its own -m flags; an
// inline symbol would be merged across TUs by the linker and silently pick
// one ISA for all three.
#pragma once

namespace exastp::detail {
namespace {

#if defined(__AVX512F__)
constexpr int kVectorBytes = 64;
constexpr int kVectorRegisters = 32;
#elif defined(__AVX__)
constexpr int kVectorBytes = 32;
constexpr int kVectorRegisters = 16;
#else
constexpr int kVectorBytes = 16;
constexpr int kVectorRegisters = 16;
#endif

constexpr int kMaxTileRows = 8;

/// Shape of the register tile for a JB-column block of T.
template <int JB, class T>
struct TileShape {
  static constexpr int kRowBytes = JB * static_cast<int>(sizeof(T));
  static constexpr int kVecBytes =
      kRowBytes < kVectorBytes ? kRowBytes : kVectorBytes;
  static constexpr int kLanes = kVecBytes / static_cast<int>(sizeof(T));
  static constexpr int kVecs = JB / kLanes;  ///< registers per tile row
  static constexpr int kFit = (kVectorRegisters - 2 - kVecs) / kVecs;
  /// Rows per tile; 0 when one row of this tier does not fit.
  static constexpr int kRows = kFit < kMaxTileRows ? kFit : kMaxTileRows;
  typedef T Vec __attribute__((vector_size(kVecBytes)));
};

/// C[0..MB)[0..JB) (+)= alpha * A[0..MB)[0..k) * B[0..k)[0..JB), k >= 1.
template <int MB, int JB, class T>
inline void gemm_tile(bool accumulate, T alpha, int k, const T* a, int lda,
                      const T* b, int ldb, T* c, int ldc) {
  using Vec = typename TileShape<JB, T>::Vec;
  constexpr int kVecs = TileShape<JB, T>::kVecs;
  constexpr int kLanes = TileShape<JB, T>::kLanes;
  Vec acc[MB][kVecs];
#pragma GCC unroll 32
  for (int r = 0; r < MB; ++r)
#pragma GCC unroll 32
    for (int v = 0; v < kVecs; ++v) {
      if (accumulate)
        __builtin_memcpy(&acc[r][v],
                         c + static_cast<long>(r) * ldc + v * kLanes,
                         sizeof(Vec));
      else
        acc[r][v] = Vec{};
    }
  // No zero-trip path: a k = 0 exit would make the register allocator
  // merge two copies of every accumulator after the loop.
  if (k <= 0) __builtin_unreachable();
  for (int l = 0; l < k; ++l) {
    Vec bl[kVecs];
#pragma GCC unroll 32
    for (int v = 0; v < kVecs; ++v)
      __builtin_memcpy(&bl[v], b + static_cast<long>(l) * ldb + v * kLanes,
                       sizeof(Vec));
#pragma GCC unroll 32
    for (int r = 0; r < MB; ++r) {
      const T ail = alpha * a[static_cast<long>(r) * lda + l];
#pragma GCC unroll 32
      for (int v = 0; v < kVecs; ++v) acc[r][v] += ail * bl[v];
    }
  }
#pragma GCC unroll 32
  for (int r = 0; r < MB; ++r)
#pragma GCC unroll 32
    for (int v = 0; v < kVecs; ++v)
      __builtin_memcpy(c + static_cast<long>(r) * ldc + v * kLanes,
                       &acc[r][v], sizeof(Vec));
}

/// The remainder tile: exactly `rows` (1 <= rows <= MB) rows.
template <int MB, int JB, class T>
inline void gemm_tile_rows(int rows, bool accumulate, T alpha, int k,
                           const T* a, int lda, const T* b, int ldb, T* c,
                           int ldc) {
  if constexpr (MB > 1) {
    if (rows < MB) {
      gemm_tile_rows<MB - 1, JB>(rows, accumulate, alpha, k, a, lda, b, ldb,
                                 c, ldc);
      return;
    }
  }
  gemm_tile<MB, JB>(accumulate, alpha, k, a, lda, b, ldb, c, ldc);
}

/// All m rows of one JB-column block: full tiles, then the remainder.
template <int JB, class T>
inline void gemm_column_block(bool accumulate, T alpha, int m, int k,
                              const T* a, int lda, const T* b, int ldb, T* c,
                              int ldc) {
  constexpr int MB = TileShape<JB, T>::kRows;
  int i = 0;
  for (; i + MB <= m; i += MB)
    gemm_tile<MB, JB>(accumulate, alpha, k, a + static_cast<long>(i) * lda,
                      lda, b, ldb, c + static_cast<long>(i) * ldc, ldc);
  if (i < m)
    gemm_tile_rows<MB, JB>(m - i, accumulate, alpha, k,
                           a + static_cast<long>(i) * lda, lda, b, ldb,
                           c + static_cast<long>(i) * ldc, ldc);
}

/// Columns [0, n) in JB-wide blocks (when the tier fits this TU), the
/// rest in the next narrower tier, down to single columns.
template <int JB, class T>
inline void gemm_columns(bool accumulate, T alpha, int m, int n, int k,
                         const T* a, int lda, const T* b, int ldb, T* c,
                         int ldc) {
  int jb = 0;
  if constexpr (TileShape<JB, T>::kRows >= 1) {
    for (; jb + JB <= n; jb += JB)
      gemm_column_block<JB>(accumulate, alpha, m, k, a, lda, b + jb, ldb,
                            c + jb, ldc);
  }
  if constexpr (JB > 1) {
    if (jb < n)
      gemm_columns<JB / 2>(accumulate, alpha, m, n - jb, k, a, lda, b + jb,
                           ldb, c + jb, ldc);
  }
}

template <class T>
inline void gemm_kernel_body(bool accumulate, T alpha, int m, int n, int k,
                             const T* a, int lda, const T* b, int ldb, T* c,
                             int ldc) {
  if (k == 0) {  // empty sum: C stays (acc) or becomes zero (set)
    if (!accumulate)
      for (int i = 0; i < m; ++i)
        for (int j = 0; j < n; ++j) c[static_cast<long>(i) * ldc + j] = T(0);
    return;
  }
  gemm_columns<32>(accumulate, alpha, m, n, k, a, lda, b, ldb, c, ldc);
}

/// The strided batch (gemm.h): each GEMM of the batch through the one
/// schedule above, in order.
template <class T>
inline void gemm_batch_body(bool accumulate, T alpha, int m, int n, int k,
                            const T* a, int lda, long stride_a, const T* b,
                            int ldb, long stride_b, T* c, int ldc,
                            long stride_c, int batch) {
  for (int i = 0; i < batch; ++i)
    gemm_kernel_body(accumulate, alpha, m, n, k, a + i * stride_a, lda,
                     b + i * stride_b, ldb, c + i * stride_c, ldc);
}

}  // namespace
}  // namespace exastp::detail

#define EXASTP_DEFINE_GEMM_KERNEL(NAME)                                      \
  void NAME(bool accumulate, double alpha, int m, int n, int k,              \
            const double* a, int lda, long stride_a, const double* b,        \
            int ldb, long stride_b, double* c, int ldc, long stride_c,       \
            int batch) {                                                     \
    gemm_batch_body(accumulate, alpha, m, n, k, a, lda, stride_a, b, ldb,    \
                    stride_b, c, ldc, stride_c, batch);                      \
  }                                                                          \
  void NAME(bool accumulate, float alpha, int m, int n, int k,               \
            const float* a, int lda, long stride_a, const float* b, int ldb, \
            long stride_b, float* c, int ldc, long stride_c, int batch) {    \
    gemm_batch_body(accumulate, alpha, m, n, k, a, lda, stride_a, b, ldb,    \
                    stride_b, c, ldc, stride_c, batch);                      \
  }

namespace exastp::detail {

// Each ISA TU's batch entry, in both precisions.
#define EXASTP_DECLARE_GEMM_KERNEL(NAME)                                     \
  void NAME(bool accumulate, double alpha, int m, int n, int k,              \
            const double* a, int lda, long stride_a, const double* b,        \
            int ldb, long stride_b, double* c, int ldc, long stride_c,       \
            int batch);                                                      \
  void NAME(bool accumulate, float alpha, int m, int n, int k,               \
            const float* a, int lda, long stride_a, const float* b, int ldb, \
            long stride_b, float* c, int ldc, long stride_c, int batch);

EXASTP_DECLARE_GEMM_KERNEL(gemm_batch_baseline)
EXASTP_DECLARE_GEMM_KERNEL(gemm_batch_avx2)
EXASTP_DECLARE_GEMM_KERNEL(gemm_batch_avx512)

#undef EXASTP_DECLARE_GEMM_KERNEL

}  // namespace exastp::detail

// Shared-memory parallel loop utility for the cell-parallel hot paths.
//
// The per-cell predictor is embarrassingly parallel (ROADMAP), so both
// steppers fan their cell loops out over a fixed team of threads: a
// persistent std::thread pool per team, the only backend, so the
// ThreadSanitizer CI job checks the code every build ships. A hand-off
// between the caller and the workers polls briefly before it blocks, so
// back-to-back regions (one per shard sweep) cost no sleep and wake-up.
//
// Determinism contract: work is split into contiguous chunks whose
// boundaries depend only on (n, num_threads, granularity) — never on
// scheduling — and every chunk writes disjoint output. Callers that reduce
// must combine per-chunk (or per-item) partials in index order themselves;
// see ordered_partials() and the solver norms for the pattern. Under this
// contract a run with any fixed thread count is bitwise-reproducible, and
// the solvers additionally arrange their loops (per-cell accumulation, one
// item per partial) so results are bitwise-identical across thread counts.
#pragma once

#include <functional>
#include <memory>
#include <vector>

namespace exastp {

/// Number of hardware threads, at least 1.
int hardware_threads();

/// Resolves a requested thread count: values < 1 mean "auto" and map to
/// hardware_threads(); explicit counts pass through (oversubscription is
/// allowed — useful for sanitizer tests on small machines).
int resolve_threads(int requested);

namespace detail {
class ThreadPool;
}

/// A fixed-size thread team running static contiguous partitions.
/// Copyable and cheap to pass around; copies share the same pool.
class ParallelFor {
 public:
  /// Single-threaded team: run() executes inline on the caller.
  ParallelFor() = default;
  /// Team of resolve_threads(threads) threads (the caller counts as one;
  /// the pool holds threads - 1 workers).
  explicit ParallelFor(int threads);

  int num_threads() const { return threads_; }

  /// Invokes fn(tid, begin, end) over a static partition of [0, n) into
  /// num_threads() contiguous chunks, each a multiple of `granularity`
  /// except the last. tid is the chunk index in [0, num_threads()); chunks
  /// may be empty when n is small. Blocks until every chunk finished.
  /// Exceptions thrown by fn are captured and rethrown on the caller
  /// (first chunk index wins).
  void run(long n, long granularity,
           const std::function<void(int, long, long)>& fn) const;

  /// run() with granularity 1 and a per-index body fn(tid, i).
  void for_each(long n, const std::function<void(int, long)>& fn) const;

 private:
  int threads_ = 1;
  std::shared_ptr<detail::ThreadPool> pool_;  // null for a serial team
};

/// Deterministic reduction helper: evaluates fn(i) for every i in [0, n)
/// in parallel, storing each result into slot i of the returned vector.
/// Summing (or max-ing) the returned partials serially in index order gives
/// a result independent of the thread count — the "ordered reduction" used
/// for norms, energies and blow-up detection.
std::vector<double> ordered_partials(const ParallelFor& par, long n,
                                     const std::function<double(long)>& fn);

}  // namespace exastp

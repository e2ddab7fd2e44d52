#include "exastp/common/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>

#include "exastp/common/check.h"
#include "exastp/telemetry/telemetry.h"

namespace exastp {

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int resolve_threads(int requested) {
  return requested < 1 ? hardware_threads() : requested;
}

namespace detail {

/// Persistent worker team. One job at a time: run() publishes a job by
/// bumping the epoch, every worker runs its fixed tid once per epoch and
/// counts down, and run() returns when the count reaches zero. Each side of
/// a hand-off (a worker waiting for the next epoch, the caller waiting for
/// the last worker) first polls its atomic for up to kPoll, then blocks on
/// its condition variable. A sharded step forks the team once per shard
/// sweep, hundreds of times per step; without the poll every region paid a
/// sleep and a wake-up, and a late wake-up made the others oversleep in
/// turn. The poll yields the core between reads, so on a busy or
/// oversubscribed host the waiting threads cede it to runnable ones.
class ThreadPool {
 public:
  explicit ThreadPool(int workers) {
    workers_.reserve(workers);
    for (int tid = 0; tid < workers; ++tid)
      workers_.emplace_back([this, tid] { worker_loop(tid); });
  }

  ~ThreadPool() {
    stop_ = true;
    publish();
    for (std::thread& t : workers_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const { return static_cast<int>(workers_.size()); }

  /// Runs fn(tid) on every worker (tid in [1, workers]) while the caller
  /// runs fn(0); returns after all of them completed.
  void run(const std::function<void(int)>& fn) {
    job_ = &fn;
    remaining_.store(workers(), std::memory_order_relaxed);
    publish();
    fn(0);
    const auto finished = [this] {
      return remaining_.load(std::memory_order_acquire) == 0;
    };
    if (poll_until(finished)) return;
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, finished);
  }

 private:
  /// The bound on each hand-off's poll: well past the serial gap between a
  /// sharded step's regions and a late thread's wake-up, short enough that
  /// a team idling through a long serial phase soon sleeps.
  static constexpr std::chrono::milliseconds kPoll{1};

  /// Starts the next epoch: job_, remaining_ and stop_ are written before
  /// the release bump, so a worker that sees the new epoch sees them too.
  void publish() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      epoch_.fetch_add(1, std::memory_order_release);
    }
    start_cv_.notify_all();
  }

  /// Polls `ready` for up to kPoll; true once it holds.
  template <class Ready>
  static bool poll_until(const Ready& ready) {
    const auto deadline = std::chrono::steady_clock::now() + kPoll;
    while (!ready()) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::yield();
    }
    return true;
  }

  void worker_loop(int tid) {
    std::uint64_t seen = 0;
    for (;;) {
      const auto published = [&] {
        return epoch_.load(std::memory_order_acquire) != seen;
      };
      if (!poll_until(published)) {
        std::unique_lock<std::mutex> lock(mutex_);
        start_cv_.wait(lock, published);
      }
      seen = epoch_.load(std::memory_order_acquire);
      if (stop_) return;
      (*job_)(tid + 1);  // tid 0 is the caller
      if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // The caller may be between its last poll and its wait: taking the
        // mutex orders this notify after that wait has begun.
        { std::lock_guard<std::mutex> lock(mutex_); }
        done_cv_.notify_one();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable start_cv_, done_cv_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> remaining_{0};
  const std::function<void(int)>* job_ = nullptr;
  bool stop_ = false;
  std::vector<std::thread> workers_;  // last: the threads use the above
};

}  // namespace detail

ParallelFor::ParallelFor(int threads) : threads_(resolve_threads(threads)) {
  if (threads_ > 1)
    pool_ = std::make_shared<detail::ThreadPool>(threads_ - 1);
}

namespace {

/// Chunk [begin, end) of tid's share of [0, n): ceil(n / threads) rounded
/// up to the granularity, clamped to n. Depends only on the arguments.
void chunk_bounds(long n, long granularity, int threads, int tid,
                  long* begin, long* end) {
  const long per =
      (n + threads - 1) / threads;
  const long step = (per + granularity - 1) / granularity * granularity;
  *begin = std::min<long>(n, static_cast<long>(tid) * step);
  *end = std::min<long>(n, *begin + step);
}

}  // namespace

void ParallelFor::run(long n, long granularity,
                      const std::function<void(int, long, long)>& fn) const {
  EXASTP_CHECK(n >= 0 && granularity >= 1);
  if (n == 0) return;
  if (threads_ == 1) {
    fn(0, 0, n);
    return;
  }

  const int nt = threads_;
  std::vector<std::exception_ptr> errors(nt);
  // Pooled workers carry no telemetry installation of their own — hand them
  // the caller's, so their spans and FLOPs land in the run that spawned
  // this region.
  const TelemetryEnv telemetry_env = TelemetryEnv::capture();
  pool_->run([&](int tid) {
    long begin = 0, end = 0;
    chunk_bounds(n, granularity, nt, tid, &begin, &end);
    if (begin >= end) return;
    TelemetryEnv::Install install(telemetry_env);
    ScopedSpan region(SpanId::kParallelRegion, /*arg=*/n);
    try {
      fn(tid, begin, end);
    } catch (...) {
      errors[tid] = std::current_exception();
    }
  });

  // First failing chunk wins, matching the serial first-throw behaviour.
  for (int tid = 0; tid < nt; ++tid)
    if (errors[tid]) std::rethrow_exception(errors[tid]);
}

void ParallelFor::for_each(long n,
                           const std::function<void(int, long)>& fn) const {
  run(n, 1, [&fn](int tid, long begin, long end) {
    for (long i = begin; i < end; ++i) fn(tid, i);
  });
}

std::vector<double> ordered_partials(const ParallelFor& par, long n,
                                     const std::function<double(long)>& fn) {
  std::vector<double> partials(static_cast<std::size_t>(n), 0.0);
  par.for_each(n, [&](int /*tid*/, long i) {
    partials[static_cast<std::size_t>(i)] = fn(i);
  });
  return partials;
}

}  // namespace exastp

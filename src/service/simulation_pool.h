// SimulationPool: the batched many-run engine of the ensemble service.
//
// The other scaling regime from the big sharded run: thousands of small
// simulations batched onto one machine behind an API. The pool takes a
// queue of job specs (a batch file of one-config-per-line key=value
// strings, or programmatic submit() calls), schedules up to `jobs`
// concurrent simulations onto worker threads, and streams one JobResult
// row per job through the pluggable galleries (result_gallery.h) — in
// ascending job-id order, so batch output is deterministic at any
// concurrency.
//
// Shared caches. All jobs share the process-wide basis-table cache
// (basis/basis_tables.h) and the kernel prototype cache
// (engine/kernel_cache.h, keyed by the kernel configuration) — a batch
// of a thousand jobs over a handful of configurations builds each kernel
// configuration once. Completed results are memoized by the canonical
// config string (canonical_config_string): duplicate configs in a batch
// run once, the duplicates return the cached summary (marked from_cache;
// a duplicate scheduled while the original is still running waits for it
// instead of re-running). Neutral config keys (threads= among them) are
// not part of it.
//
// Failure isolation. A job that throws (parse error, blow-up, bad output
// path) is marked failed with the captured message; the batch continues.
// stop_on_failure flips that: queued jobs after a failure are reported as
// skipped (run_sweep's abort semantics).
//
// Thread budget. Each job honours its own threads= key. Jobs that leave
// it on auto get hardware_threads() / jobs instead of a full team each, so
// a jobs=N batch does not oversubscribe the machine N-fold. Results do not
// depend on the choice (bitwise thread-count invariance).
#pragma once

#include <atomic>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "exastp/service/job_queue.h"
#include "exastp/service/result_gallery.h"

namespace exastp {

struct PoolOptions {
  /// Concurrent simulations. 1 (the default) runs the queue inline on the
  /// caller, in submit order; N > 1 runs on N worker threads.
  int jobs = 1;
  /// Abort semantics: once a job fails, jobs that have not started yet are
  /// skipped (in-flight jobs finish). Off = full failure isolation.
  bool stop_on_failure = false;
  /// Result memoization by canonical config (off re-runs duplicates —
  /// bench mode).
  bool memoize = true;
  /// key=value pairs prepended to every job's args (batch-wide defaults,
  /// e.g. a common scenario or order; a job line repeating a base key is a
  /// duplicate-key error, by design).
  std::vector<std::string> base_args;
};

class SimulationPool {
 public:
  explicit SimulationPool(PoolOptions options = {});

  /// Queues one job; returns its id (= submit order). `label` defaults to
  /// the args joined with spaces; the output-path suffix defaults to
  /// "_j<id>" and keeps concurrent jobs' file outputs apart — pass an
  /// explicit suffix to override (run_sweep uses "_<value>").
  int submit(std::vector<std::string> args, std::string label = "",
             std::string suffix = "");

  /// Queues every non-comment line of a batch file; returns the number of
  /// jobs added. Lines are labelled with their own text.
  int submit_batch_file(const std::string& path);

  const std::vector<JobSpec>& jobs() const { return queue_; }

  /// Runs every queued job (at most options.jobs concurrently), streaming
  /// rows to `galleries` in job-id order as results become available, and
  /// returns all results sorted by id. Galleries get open()/finish()
  /// bracketing the rows. Callable once per submitted batch; jobs
  /// submitted after a run() are picked up by the next run().
  std::vector<JobResult> run(
      const std::vector<ResultGallery*>& galleries = {});

  /// Simulations actually constructed and run (memoization misses) since
  /// this pool was created — the memoization-verifying counter.
  int runs_executed() const { return runs_executed_.load(); }

 private:
  PoolOptions options_;
  std::vector<JobSpec> queue_;
  int next_unrun_ = 0;  ///< queue_ index the next run() starts from
  std::atomic<int> runs_executed_{0};
  /// Memoized results by canonical config string. Lives on the pool (not
  /// one run() call) so a long-lived service keeps benefiting from every
  /// batch it has completed.
  std::map<std::string, std::shared_future<JobResult>> memo_;
  std::mutex memo_mutex_;
};

}  // namespace exastp

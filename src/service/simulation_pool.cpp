#include "exastp/service/simulation_pool.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>

#include "exastp/common/check.h"
#include "exastp/common/parallel.h"
#include "exastp/engine/simulation.h"

namespace exastp {
namespace {

std::string join_args(const std::vector<std::string>& args) {
  std::string out;
  for (const std::string& arg : args)
    out += (out.empty() ? "" : " ") + arg;
  return out;
}

bool has_explicit_threads(const std::vector<std::string>& args) {
  for (const std::string& arg : args)
    if (arg.rfind("threads=", 0) == 0) return true;
  return false;
}

/// Executes one parsed config; never throws — failures become the result's
/// status. The suffix on every artifact key keeps this job's file outputs
/// apart from its batch siblings (as run_sweep does for swept values).
JobResult execute_job(SimulationConfig config, const JobSpec& spec) {
  JobResult r;
  r.id = spec.id;
  r.label = spec.label;
  try {
    for (const ConfigKey& key : config_schema())
      if (key.policy == MemoPolicy::kArtifact && !key.format(config).empty())
        key.parse(config, with_path_suffix(key.format(config), spec.suffix));

    const auto start = std::chrono::steady_clock::now();
    Simulation sim = Simulation::from_config(std::move(config));
    r.summary = sim.summary();
    {
      // The job span lands in the job's own registry (run() installs it),
      // so a trace of a pool job shows one enclosing "job" span.
      TelemetryScope scope(&sim.telemetry());
      ScopedSpan span(SpanId::kJob, /*arg=*/spec.id);
      r.steps = sim.run();
    }
    r.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    // Per-job FLOPs: the run-scoped counter, not the process-wide one, so
    // concurrent batch siblings never double-count (the satellite fix).
    r.flops = sim.telemetry().flops().total();
    r.t = sim.solver().time();
    r.l2_error = sim.has_exact_solution()
                     ? sim.l2_error()
                     : std::numeric_limits<double>::quiet_NaN();
    r.status = JobStatus::kDone;
  } catch (const std::exception& e) {
    r.status = JobStatus::kFailed;
    r.error = e.what();
  } catch (...) {
    r.status = JobStatus::kFailed;
    r.error = "unknown error";
  }
  return r;
}

}  // namespace

SimulationPool::SimulationPool(PoolOptions options)
    : options_(std::move(options)) {
  EXASTP_CHECK_MSG(options_.jobs >= 1, "pool needs jobs >= 1");
}

int SimulationPool::submit(std::vector<std::string> args, std::string label,
                           std::string suffix) {
  JobSpec spec;
  spec.id = static_cast<int>(queue_.size());
  spec.label = label.empty() ? join_args(args) : std::move(label);
  spec.suffix = suffix.empty() ? "_j" + std::to_string(spec.id)
                               : std::move(suffix);
  spec.args = std::move(args);
  queue_.push_back(std::move(spec));
  return queue_.back().id;
}

int SimulationPool::submit_batch_file(const std::string& path) {
  int added = 0;
  for (std::vector<std::string>& args : parse_batch_file(path)) {
    submit(std::move(args));
    ++added;
  }
  return added;
}

std::vector<JobResult> SimulationPool::run(
    const std::vector<ResultGallery*>& galleries) {
  const int begin = next_unrun_;
  const int n = static_cast<int>(queue_.size()) - begin;
  next_unrun_ = static_cast<int>(queue_.size());
  for (ResultGallery* g : galleries) g->open();

  std::vector<JobResult> results(std::max(n, 0));
  std::atomic<int> next{0};
  std::atomic<bool> stop{false};

  // Gallery rows stream strictly in job-id order: completed results park
  // in `results` until every lower id is done, then flush in one sweep.
  std::mutex emit_mutex;
  int emitted = 0;
  std::vector<char> ready(std::max(n, 0), 0);
  const auto emit_ready = [&] {  // callers hold emit_mutex
    while (emitted < n && ready[emitted]) {
      for (ResultGallery* g : galleries) g->add(results[emitted]);
      ++emitted;
    }
  };

  const auto process = [&](int i) -> JobResult {
    const JobSpec& spec = queue_[begin + i];
    if (stop.load()) {
      JobResult r;
      r.id = spec.id;
      r.label = spec.label;
      r.status = JobStatus::kSkipped;
      r.error = "skipped after an earlier failure";
      return r;
    }
    SimulationConfig config;
    try {
      std::vector<std::string> args = options_.base_args;
      args.insert(args.end(), spec.args.begin(), spec.args.end());
      config = parse_simulation_args(args);
      // The pool is a single-process service; a rank-per-shard launch
      // cannot host many independent simulations.
      EXASTP_CHECK_MSG(config.backend != "mpi",
                       "batch jobs are single-process — backend=mpi is not "
                       "supported (run one configuration per mpirun launch)");
      // Jobs that leave threads= on auto split the machine instead of
      // oversubscribing it jobs-fold; an explicit threads= is honoured.
      // Either way results are bitwise-identical (README "Threading").
      if (!has_explicit_threads(args) && options_.jobs > 1)
        config.threads = std::max(1, hardware_threads() / options_.jobs);
    } catch (const std::exception& e) {
      JobResult r;
      r.id = spec.id;
      r.label = spec.label;
      r.status = JobStatus::kFailed;
      r.error = e.what();
      return r;
    }

    if (!options_.memoize) {
      runs_executed_.fetch_add(1);
      return execute_job(std::move(config), spec);
    }

    // Memoization: the first job to claim a canonical config owns the run
    // and fulfils the future; duplicates wait on it and tag their copy
    // from_cache. Failed runs memoize too — a deterministic failure need
    // not be re-proven per duplicate. The key is the canonical config
    // BEFORE the per-job suffix: two jobs that differ only in their
    // assigned suffix are duplicates (the cached summary is returned; only
    // the executing job's artifacts exist).
    const std::string key = canonical_config_string(config);
    std::promise<JobResult> promise;
    std::shared_future<JobResult> future;
    bool owner = false;
    {
      std::lock_guard<std::mutex> lock(memo_mutex_);
      auto it = memo_.find(key);
      if (it == memo_.end()) {
        future = promise.get_future().share();
        memo_.emplace(key, future);
        owner = true;
      } else {
        future = it->second;
      }
    }
    if (owner) {
      runs_executed_.fetch_add(1);
      JobResult r = execute_job(std::move(config), spec);
      promise.set_value(r);
      return r;
    }
    JobResult r = future.get();  // waits when the original is in flight
    r.id = spec.id;
    r.label = spec.label;
    r.from_cache = true;
    return r;
  };

  const auto worker = [&] {
    while (true) {
      const int i = next.fetch_add(1);
      if (i >= n) break;
      JobResult result = process(i);
      if (result.status == JobStatus::kFailed && options_.stop_on_failure)
        stop.store(true);
      std::lock_guard<std::mutex> lock(emit_mutex);
      results[i] = std::move(result);
      ready[i] = 1;
      emit_ready();
    }
  };

  const int workers = std::min(options_.jobs, std::max(n, 1));
  if (workers <= 1) {
    worker();  // inline: deterministic submit-order execution
  } else {
    std::vector<std::thread> team;
    team.reserve(workers);
    for (int w = 0; w < workers; ++w) team.emplace_back(worker);
    for (std::thread& t : team) t.join();
  }

  for (ResultGallery* g : galleries) g->finish();
  return results;
}

}  // namespace exastp

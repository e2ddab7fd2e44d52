// Streaming per-step metrics and the opt-in progress heartbeat.
//
// StepMetricsObserver rides the observer subsystem (io/observer.h) on the
// solver time loop and streams one row every `interval` steps, built from
// the run's TelemetryRegistry aggregates — the same incremental-writer
// contract as the receiver sinks: flushed per row, the file is valid after
// every append, so a long run can be tailed or scraped live. CSV by
// default; a path ending in ".jsonl" streams JSON objects instead.
//
// Columns (docs/observability.md): step, t, dt, wall_s (wall time of the
// interval), the per-phase breakdown within the interval (predict/correct/
// rk_stage/exchange_post seconds, and the scheduler's unhidden sched_wait
// under the exchange_wait_s column), overlap_eff (hidden-communication
// fraction: compute-during-exchange / (that + sched_wait)), the per-shard
// step-time min/mean/max and imbalance ratio (max/mean), kernel-cache
// hits (process cumulative), flops/mflops_s from the run-scoped
// FlopCounter, and the LTS cluster count, substeps and imbalance. Values
// that do not apply (no exchange, one shard, LTS off) print as nan.
//
// ProgressObserver is the `progress=stderr` heartbeat: a one-line step/t/
// rate report, wall-clock throttled to ~1 Hz, rank 0 only. Both observers
// only read the solver and the registry — enabling them changes no
// simulation bytes.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "exastp/io/observer.h"
#include "exastp/telemetry/telemetry.h"

namespace exastp {

class StepMetricsObserver final : public Observer {
 public:
  /// Streams to `path` (".jsonl" suffix switches the format) every
  /// `interval` steps (>= 1). The registry must outlive the observer (the
  /// Simulation façade owns both, registry declared first).
  StepMetricsObserver(const TelemetryRegistry* registry, std::string path,
                      int interval);

  void on_start(const SolverBase& solver) override;
  void on_step(const SolverBase& solver, int step) override;
  void on_finish(const SolverBase& solver) override;

 private:
  struct Snapshot {
    std::int64_t wall_ns = 0;
    double t = 0.0;
    std::int64_t predict_ns = 0;
    std::int64_t correct_ns = 0;
    std::int64_t rk_stage_ns = 0;
    std::int64_t post_ns = 0;
    std::int64_t wait_ns = 0;
    std::int64_t overlap_ns = 0;
    std::uint64_t flops = 0;
  };
  Snapshot snapshot(const SolverBase& solver) const;
  /// The interval (last_, now]'s row: one ordered (column, formatted
  /// value) list, from which the CSV header, a CSV row and a JSONL object
  /// are all written.
  using Row = std::vector<std::pair<const char*, std::string>>;
  Row row(const SolverBase& solver, int step, const Snapshot& now) const;

  const TelemetryRegistry* registry_;
  std::string path_;
  int interval_;
  bool jsonl_ = false;
  std::ofstream out_;
  Snapshot last_;
  int last_step_ = 0;
};

class ProgressObserver final : public Observer {
 public:
  /// `min_seconds` between heartbeats (wall clock; the first observed step
  /// always reports). Writes to stderr.
  explicit ProgressObserver(double min_seconds = 1.0);

  void on_start(const SolverBase& solver) override;
  void on_step(const SolverBase& solver, int step) override;
  void on_finish(const SolverBase& solver) override;

 private:
  double min_seconds_;
  std::int64_t start_ns_ = 0;
  std::int64_t last_ns_ = 0;
  int last_step_ = 0;
};

}  // namespace exastp

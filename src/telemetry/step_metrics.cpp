#include "exastp/telemetry/step_metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>

#include "exastp/common/check.h"
#include "exastp/engine/kernel_cache.h"
#include "exastp/solver/solver_base.h"

namespace exastp {
namespace {

std::int64_t wall_ns_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Metric values print compactly but round-trip well enough for plots;
/// "nan" keeps the columns numerically parseable (the receiver-CSV idiom).
std::string metric(double v) {
  if (std::isnan(v)) return "nan";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

double s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

}  // namespace

StepMetricsObserver::StepMetricsObserver(const TelemetryRegistry* registry,
                                         std::string path, int interval)
    : registry_(registry), path_(std::move(path)), interval_(interval) {
  EXASTP_CHECK_MSG(registry_ != nullptr, "metrics need a telemetry registry");
  EXASTP_CHECK_MSG(!path_.empty(), "metrics= needs a path");
  EXASTP_CHECK_MSG(interval_ >= 1, "metrics_interval must be >= 1");
  const std::string suffix = ".jsonl";
  jsonl_ = path_.size() >= suffix.size() &&
           path_.compare(path_.size() - suffix.size(), suffix.size(),
                         suffix) == 0;
}

StepMetricsObserver::Snapshot StepMetricsObserver::snapshot(
    const SolverBase& solver) const {
  Snapshot snap;
  snap.wall_ns = wall_ns_now();
  snap.t = solver.time();
  snap.predict_ns = registry_->aggregate(SpanId::kPredict).total_ns;
  snap.correct_ns = registry_->aggregate(SpanId::kCorrectInterior).total_ns +
                    registry_->aggregate(SpanId::kCorrectBoundary).total_ns;
  snap.rk_stage_ns =
      registry_->aggregate(SpanId::kRkStageInterior).total_ns +
      registry_->aggregate(SpanId::kRkStageBoundary).total_ns;
  snap.post_ns = registry_->aggregate(SpanId::kExchangePost).total_ns;
  // The unhidden halo latency: the scheduler's blocked sched_wait polls.
  snap.wait_ns = registry_->aggregate(SpanId::kSchedWait).total_ns;
  snap.overlap_ns = registry_->aggregate(SpanId::kOverlapCompute).total_ns;
  snap.flops = registry_->flops().total();
  return snap;
}

void StepMetricsObserver::on_start(const SolverBase& solver) {
  last_ = snapshot(solver);
  last_step_ = solver.steps_taken();
  if (!out_.is_open()) {
    out_.open(path_, std::ios::trunc);
    EXASTP_CHECK_MSG(out_.good(), "cannot open metrics \"" + path_ + "\"");
    if (!jsonl_) {
      // The column names of an (empty) interval's row.
      const char* sep = "";
      for (const auto& [name, value] : row(solver, last_step_, last_)) {
        out_ << sep << name;
        sep = ",";
      }
      out_ << "\n" << std::flush;
    }
  }
}

void StepMetricsObserver::on_step(const SolverBase& solver, int step) {
  if (step % interval_ != 0) return;
  const Snapshot now = snapshot(solver);
  const char* sep = jsonl_ ? "{" : "";
  for (const auto& [name, value] : row(solver, step, now)) {
    out_ << sep;
    sep = ",";
    if (jsonl_)  // JSON has no NaN literal: metric()'s "nan" becomes null.
      out_ << '"' << name << "\":" << (value == "nan" ? "null" : value);
    else
      out_ << value;
  }
  out_ << (jsonl_ ? "}\n" : "\n") << std::flush;
  last_ = now;
  last_step_ = step;
}

StepMetricsObserver::Row StepMetricsObserver::row(const SolverBase& solver,
                                                  int step,
                                                  const Snapshot& now) const {
  const int steps = std::max(step - last_step_, 1);
  const double wall = s(now.wall_ns - last_.wall_ns);
  const double dt = (now.t - last_.t) / steps;

  const double hidden = s(now.overlap_ns - last_.overlap_ns);
  const double waited = s(now.wait_ns - last_.wait_ns);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double overlap_eff =
      hidden + waited > 0.0 ? hidden / (hidden + waited) : nan;

  // Per-shard interior+boundary times are cumulative; imbalance uses the
  // cumulative values (per-interval shard deltas would need a per-shard
  // snapshot array for little extra signal — the ratio converges fast).
  std::int64_t s_min = 0, s_max = 0, s_sum = 0;
  int shards = 0;
  for (int i = 0; i < kMaxShardTracks; ++i) {
    const std::int64_t ns = registry_->shard_ns(i);
    if (ns == 0) continue;
    s_min = shards == 0 ? ns : std::min(s_min, ns);
    s_max = std::max(s_max, ns);
    s_sum += ns;
    ++shards;
  }
  const double shard_min = shards > 1 ? s(s_min) : nan;
  const double shard_mean = shards > 1 ? s(s_sum) / shards : nan;
  const double shard_max = shards > 1 ? s(s_max) : nan;
  const double imbalance =
      shards > 1 && s_sum > 0 ? s(s_max) / (s(s_sum) / shards) : nan;

  const double flops = static_cast<double>(now.flops - last_.flops);
  const double mflops = wall > 0.0 ? flops / wall * 1e-6 : nan;
  const long cache_hits = kernel_cache_stats().hits;

  // Clustered LTS: cluster count, cumulative cell-substeps, and the
  // skew of measured per-cluster sweep time (max / mean over clusters;
  // 1 = perfectly even). All nan when LTS is off.
  double lts_clusters = nan, lts_substeps = nan, lts_imbalance = nan;
  const auto cluster_stats = solver.lts_cluster_stats();
  if (!cluster_stats.empty()) {
    lts_clusters = static_cast<double>(cluster_stats.size());
    long long substeps = 0, ns_max = 0, ns_sum = 0;
    for (const auto& st : cluster_stats) {
      substeps += st.cell_substeps;
      ns_max = std::max(ns_max, st.ns);
      ns_sum += st.ns;
    }
    lts_substeps = static_cast<double>(substeps);
    if (ns_sum > 0)
      lts_imbalance = static_cast<double>(ns_max) /
                      (static_cast<double>(ns_sum) /
                       static_cast<double>(cluster_stats.size()));
  }

  return {{"step", std::to_string(step)},
          {"t", metric(now.t)},
          {"dt", metric(dt)},
          {"wall_s", metric(wall)},
          {"predict_s", metric(s(now.predict_ns - last_.predict_ns))},
          {"correct_s", metric(s(now.correct_ns - last_.correct_ns))},
          {"rk_stage_s", metric(s(now.rk_stage_ns - last_.rk_stage_ns))},
          {"exchange_post_s", metric(s(now.post_ns - last_.post_ns))},
          {"exchange_wait_s", metric(waited)},
          {"overlap_eff", metric(overlap_eff)},
          {"shard_min_s", metric(shard_min)},
          {"shard_mean_s", metric(shard_mean)},
          {"shard_max_s", metric(shard_max)},
          {"imbalance", metric(imbalance)},
          {"cache_hits", std::to_string(cache_hits)},
          {"flops", metric(flops)},
          {"mflops_s", metric(mflops)},
          {"lts_clusters", metric(lts_clusters)},
          {"lts_substeps", metric(lts_substeps)},
          {"lts_imbalance", metric(lts_imbalance)}};
}

void StepMetricsObserver::on_finish(const SolverBase& /*solver*/) {
  if (out_.is_open()) out_.flush();
}

ProgressObserver::ProgressObserver(double min_seconds)
    : min_seconds_(min_seconds) {}

void ProgressObserver::on_start(const SolverBase& solver) {
  start_ns_ = wall_ns_now();
  last_ns_ = 0;  // the first observed step always reports
  last_step_ = solver.steps_taken();
}

void ProgressObserver::on_step(const SolverBase& solver, int step) {
  const std::int64_t now = wall_ns_now();
  if (last_ns_ != 0 && s(now - last_ns_) < min_seconds_) return;
  const double elapsed = s(now - start_ns_);
  const double rate = elapsed > 0.0 ? (step - last_step_) / elapsed : 0.0;
  std::fprintf(stderr, "progress: step %d t=%.6g (%.1f steps/s, %.1f s)\n",
               step, solver.time(), rate, elapsed);
  last_ns_ = now;
}

void ProgressObserver::on_finish(const SolverBase& solver) {
  std::fprintf(stderr, "progress: finished at step %d t=%.6g (%.1f s)\n",
               solver.steps_taken(), solver.time(),
               s(wall_ns_now() - start_ns_));
}

}  // namespace exastp

// Runtime observability (src/telemetry/, docs/observability.md).
//
// Under test:
//   * ScopedSpan nesting and attribution: spans record only inside an
//     installed TelemetryScope with spans enabled, nested spans land in
//     emission order, shard-tracked spans feed the imbalance statistic,
//   * ThreadRing wraparound: a full ring keeps the tail of the run and
//     reports how many events it dropped,
//   * the run-scoped FLOP accounting: TelemetryScope routes
//     FlopCounter::instance() to the run's own counter and restores the
//     routing on exit (the concurrent-pool double-counting fix),
//   * the Chrome trace export: trace= produces a JSON array a minimal
//     parser can walk, with the expected phase names, per-thread tids and
//     per-shard synthetic tracks,
//   * the metrics stream: header, row cadence under metrics_interval,
//     overlap/imbalance columns populated on sharded runs,
//   * determinism: enabling every telemetry output changes no simulation
//     bytes across the threads x shards acceptance matrix (the threaded +
//     sharded ctest labels run this under TSan),
//   * overhead: spans on vs off on the same workload stays within the
//     documented budget,
//   * config plumbing: key validation and the canonical-string rules
//     (trace/metrics split the memoization key, progress does not).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exastp/engine/simulation.h"
#include "exastp/service/result_gallery.h"
#include "exastp/service/simulation_pool.h"
#include "exastp/telemetry/step_metrics.h"
#include "exastp/telemetry/telemetry.h"
#include "exastp/telemetry/trace_export.h"

namespace exastp {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Every `"name":"..."` value in a trace-export JSON document. The export
/// emits one object per line with snprintf'd fields, so a string scan is a
/// faithful (and dependency-free) reader for what the tests assert.
std::set<std::string> trace_names(const std::string& json) {
  std::set<std::string> names;
  const std::string key = "\"name\":\"";
  std::size_t pos = 0;
  while ((pos = json.find(key, pos)) != std::string::npos) {
    pos += key.size();
    const std::size_t end = json.find('"', pos);
    if (end == std::string::npos) break;
    names.insert(json.substr(pos, end - pos));
    pos = end;
  }
  return names;
}

std::set<int> trace_values(const std::string& json, const std::string& field) {
  std::set<int> values;
  const std::string key = "\"" + field + "\":";
  std::size_t pos = 0;
  while ((pos = json.find(key, pos)) != std::string::npos) {
    pos += key.size();
    values.insert(std::atoi(json.c_str() + pos));
  }
  return values;
}

// ---------------------------------------------------------------------------
// Core units: spans, rings, scopes.

TEST(Telemetry, SpanNamesAreStable) {
  EXPECT_STREQ(span_name(SpanId::kStep), "step");
  EXPECT_STREQ(span_name(SpanId::kPredict), "predict");
  EXPECT_STREQ(span_name(SpanId::kExchangeWait), "exchange_wait");
  EXPECT_STREQ(span_name(SpanId::kJob), "job");
  for (int i = 0; i < kNumSpanIds; ++i)
    EXPECT_GT(std::string(span_name(static_cast<SpanId>(i))).size(), 0u);
}

TEST(Telemetry, SpansRecordOnlyInsideAnEnabledScope) {
  TelemetryRegistry enabled(/*spans_enabled=*/true);
  TelemetryRegistry disabled(/*spans_enabled=*/false);

  { ScopedSpan orphan(SpanId::kStep); }  // no scope installed: no-op
  EXPECT_EQ(enabled.aggregate(SpanId::kStep).count, 0);

  {
    TelemetryScope scope(&disabled);
    ScopedSpan span(SpanId::kStep);
  }
  EXPECT_EQ(disabled.aggregate(SpanId::kStep).count, 0);
  EXPECT_TRUE(disabled.rings().empty());

  {
    TelemetryScope scope(&enabled);
    EXPECT_EQ(TelemetryScope::current(), &enabled);
    ScopedSpan outer(SpanId::kStep);
    { ScopedSpan inner(SpanId::kPredict); }
  }
  EXPECT_EQ(TelemetryScope::current(), nullptr);
  EXPECT_EQ(enabled.aggregate(SpanId::kStep).count, 1);
  EXPECT_EQ(enabled.aggregate(SpanId::kPredict).count, 1);
  // Nested spans close first, so the ring holds inner before outer, and
  // the outer interval encloses the inner one.
  ASSERT_EQ(enabled.rings().size(), 1u);
  const std::vector<SpanEvent> events = enabled.rings()[0]->snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].id, static_cast<int>(SpanId::kPredict));
  EXPECT_EQ(events[1].id, static_cast<int>(SpanId::kStep));
  EXPECT_LE(events[1].t0_ns, events[0].t0_ns);
  EXPECT_GE(events[1].t1_ns, events[0].t1_ns);
}

TEST(Telemetry, ShardTrackedSpansFeedTheImbalanceStatistic) {
  TelemetryRegistry registry(/*spans_enabled=*/true);
  TelemetryScope scope(&registry);
  { ScopedSpan span(SpanId::kShardInterior, /*arg=*/0, /*track=*/3); }
  { ScopedSpan span(SpanId::kShardBoundary, /*arg=*/0, /*track=*/3); }
  EXPECT_GE(registry.shard_ns(3), 0);
  EXPECT_EQ(registry.aggregate(SpanId::kShardInterior).count, 1);
  EXPECT_EQ(registry.shard_ns(0), 0);
  // Out-of-range tracks are ignored, not UB.
  EXPECT_EQ(registry.shard_ns(-1), 0);
  EXPECT_EQ(registry.shard_ns(kMaxShardTracks), 0);
}

TEST(Telemetry, RingWraparoundKeepsTheTailAndCountsDrops) {
  TelemetryRegistry registry(/*spans_enabled=*/true, /*ring_capacity=*/4);
  TelemetryScope scope(&registry);
  for (int i = 0; i < 10; ++i)
    ScopedSpan span(SpanId::kStep, /*arg=*/i);

  ASSERT_EQ(registry.rings().size(), 1u);
  const ThreadRing& ring = *registry.rings()[0];
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  const std::vector<SpanEvent> events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // The tail of the run survives, oldest surviving first.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(events[i].arg, 6 + i);
  // Aggregates see every span regardless of ring drops.
  EXPECT_EQ(registry.aggregate(SpanId::kStep).count, 10);
}

TEST(Telemetry, ScopeRoutesFlopAccountingAndRestoresIt) {
  FlopCounter& process = FlopCounter::process_instance();
  const std::uint64_t before = process.total();

  TelemetryRegistry a(/*spans_enabled=*/false);
  TelemetryRegistry b(/*spans_enabled=*/false);
  {
    TelemetryScope scope_a(&a);
    FlopCounter::instance().add(WidthClass::kScalar, 100);
    {
      TelemetryScope scope_b(&b);  // scopes nest; innermost wins
      FlopCounter::instance().add(WidthClass::k256, 7);
    }
    FlopCounter::instance().add(WidthClass::kScalar, 1);
  }
  FlopCounter::instance().add(WidthClass::kScalar, 5);  // back to process

  EXPECT_EQ(a.flops().total(), 101u);
  EXPECT_EQ(b.flops().total(), 7u);
  EXPECT_EQ(process.total(), before + 5);
}

TEST(Telemetry, SummaryTableIsEmptyWithoutStepsAndPopulatedWithThem) {
  TelemetryRegistry registry(/*spans_enabled=*/true);
  EXPECT_EQ(telemetry_summary_table(registry), "");
  {
    TelemetryScope scope(&registry);
    ScopedSpan step(SpanId::kStep);
    ScopedSpan predict(SpanId::kPredict);
  }
  registry.add_counter("setup_kernel_cache_hits", 3);
  const std::string table = telemetry_summary_table(registry);
  EXPECT_NE(table.find("predict"), std::string::npos);
  EXPECT_NE(table.find("setup_kernel_cache_hits"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: trace export, metrics stream, determinism, overhead.

std::vector<std::string> base_args() {
  return {"scenario=planewave", "order=3", "cells=6x6x6", "t_end=0.04"};
}

Simulation run_with(std::vector<std::string> args,
                    const std::vector<std::string>& extra) {
  args.insert(args.end(), extra.begin(), extra.end());
  Simulation sim = Simulation::from_args(args);
  sim.run();
  return sim;
}

TEST(Telemetry, TraceExportIsParseableWithPhaseNamesAndShardTracks) {
  const std::string path = "test_telemetry_trace.json";
  Simulation sim =
      run_with(base_args(), {"shards=2x1x1", "threads=2", "trace=" + path});

  const std::string json = read_file(path);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.find('\''), std::string::npos);

  const std::set<std::string> names = trace_names(json);
  for (const char* expected :
       {"step", "stable_dt", "predict", "correct_interior",
        "correct_boundary", "exchange_post", "shard_interior",
        "shard_boundary", "parallel_region", "setup_solver", "setup_init",
        "process_name", "thread_name", "shard 0", "shard 1", "worker 1"})
    EXPECT_TRUE(names.count(expected)) << "trace lacks \"" << expected << '"';

  // One pid (local run), real thread tids plus the two synthetic shard
  // tracks at kShardTrackBase.
  EXPECT_EQ(trace_values(json, "pid"), std::set<int>{0});
  const std::set<int> tids = trace_values(json, "tid");
  EXPECT_TRUE(tids.count(0));
  EXPECT_TRUE(tids.count(kShardTrackBase + 0));
  EXPECT_TRUE(tids.count(kShardTrackBase + 1));

  // The registry agrees with the file: overlap was measured, both shards
  // accumulated sweep time.
  EXPECT_GT(sim.telemetry().aggregate(SpanId::kOverlapCompute).count, 0);
  EXPECT_GT(sim.telemetry().shard_ns(0), 0);
  EXPECT_GT(sim.telemetry().shard_ns(1), 0);
  EXPECT_GT(sim.telemetry().flops().total(), 0u);
  EXPECT_NE(sim.telemetry_summary().find("overlap efficiency"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(Telemetry, TracePartMergeMatchesTheLocalWriterFormat) {
  TelemetryRegistry registry(/*spans_enabled=*/true);
  {
    TelemetryScope scope(&registry);
    ScopedSpan span(SpanId::kStep);
  }
  const std::string path = "test_telemetry_merge.json";
  write_chrome_trace_part(registry, path, 0);
  write_chrome_trace_part(registry, path, 1);
  merge_chrome_trace_parts(path, 2);

  const std::string json = read_file(path);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(trace_values(json, "pid"), (std::set<int>{0, 1}));
  const std::set<std::string> names = trace_names(json);
  EXPECT_TRUE(names.count("step"));
  EXPECT_TRUE(names.count("exastp rank 0"));
  EXPECT_TRUE(names.count("exastp rank 1"));
  // A missing part is an error, not a silent partial merge.
  EXPECT_THROW(merge_chrome_trace_parts(path, 3), std::exception);
  std::remove(path.c_str());
  for (int r = 0; r < 2; ++r)
    std::remove((path + ".r" + std::to_string(r) + ".part").c_str());
}

TEST(Telemetry, MetricsStreamHasHeaderCadenceAndOverlapColumns) {
  const std::string path = "test_telemetry_metrics.csv";
  Simulation sim = run_with(base_args(), {"shards=2x1x1", "threads=2",
                                          "metrics=" + path,
                                          "metrics_interval=2"});
  const int steps = sim.solver().steps_taken();
  ASSERT_GT(steps, 2);

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_GT(lines.size(), 1u);
  EXPECT_EQ(lines[0],
            "step,t,dt,wall_s,predict_s,correct_s,rk_stage_s,"
            "exchange_post_s,exchange_wait_s,overlap_eff,shard_min_s,"
            "shard_mean_s,shard_max_s,imbalance,cache_hits,flops,mflops_s,"
            "lts_clusters,lts_substeps,lts_imbalance");
  EXPECT_EQ(static_cast<int>(lines.size()) - 1, steps / 2);

  // Every row parses to the full column count; the sharded overlapped run
  // populates overlap_eff (col 9) and imbalance (col 13) with numbers,
  // and the lts columns stay "nan" (LTS off).
  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::vector<std::string> fields;
    std::stringstream ss(lines[i]);
    std::string field;
    while (std::getline(ss, field, ',')) fields.push_back(field);
    ASSERT_EQ(fields.size(), 20u) << lines[i];
    const double overlap_eff = std::stod(fields[9]);
    EXPECT_GE(overlap_eff, 0.0);
    EXPECT_LE(overlap_eff, 1.0);
    const double imbalance = std::stod(fields[13]);
    EXPECT_GE(imbalance, 1.0);
    EXPECT_GT(std::stod(fields[15]), 0.0) << "flops column";
    EXPECT_EQ(fields[17], "nan") << "lts_clusters off a global-stepping run";
  }
  std::remove(path.c_str());
}

TEST(Telemetry, MetricsStreamSwitchesToJsonlBySuffix) {
  const std::string path = "test_telemetry_metrics.jsonl";
  run_with(base_args(), {"metrics=" + path});
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_GT(lines.size(), 0u);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.rfind("{\"step\":", 0), 0u) << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_EQ(line.find("nan"), std::string::npos) << line;  // null instead
  }
  // The monolithic run has no exchange or second shard: those columns are
  // null, not fabricated zeros.
  EXPECT_NE(lines[0].find("\"overlap_eff\":null"), std::string::npos);
  EXPECT_NE(lines[0].find("\"imbalance\":null"), std::string::npos);
  std::remove(path.c_str());
}

/// The determinism acceptance matrix: every telemetry output enabled at
/// once changes no simulation bytes vs the bare run, for threads 1/4 and
/// shards 1/4 (TSan sees the 4x4 cell through the ctest labels).
TEST(Telemetry, EnablingTelemetryChangesNoSimulationBytes) {
  for (const std::string& shards : {std::string("1"), std::string("2x2x1")}) {
    for (int threads : {1, 4}) {
      const std::string tag = shards + "_" + std::to_string(threads);
      const std::string trace = "test_telemetry_inv_" + tag + ".json";
      const std::string metrics = "test_telemetry_inv_" + tag + ".csv";
      Simulation bare = run_with(
          base_args(),
          {"shards=" + shards, "threads=" + std::to_string(threads)});
      Simulation instrumented = run_with(
          base_args(),
          {"shards=" + shards, "threads=" + std::to_string(threads),
           "trace=" + trace, "metrics=" + metrics});

      const SolverBase& a = bare.solver();
      const SolverBase& b = instrumented.solver();
      ASSERT_EQ(a.grid().num_cells(), b.grid().num_cells());
      ASSERT_EQ(a.time(), b.time());
      for (int c = 0; c < a.grid().num_cells(); ++c) {
        const double* qa = a.cell_dofs(c);
        const double* qb = b.cell_dofs(c);
        for (std::size_t i = 0; i < a.layout().size(); ++i)
          ASSERT_EQ(qa[i], qb[i])
              << "shards=" << shards << " threads=" << threads << " cell "
              << c << " dof " << i;
      }
      std::remove(trace.c_str());
      std::remove(metrics.c_str());
    }
  }
}

/// CPU time the calling thread has consumed, in seconds.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

TEST(Telemetry, OverheadStaysWithinBudget) {
  // Min-of-interleaved-runs: the minimum is the noise-resistant statistic,
  // interleaving decorrelates it from machine drift. The absolute epsilon
  // keeps a sub-0.1 s workload from failing on scheduler jitter alone.
  // threads=1 runs everything on this thread, so its CPU time measures
  // the work without the time other processes take the core away.
  const std::vector<std::string> args = {"scenario=planewave", "order=4",
                                         "cells=6x6x6", "t_end=0.06",
                                         "threads=1", "shards=1"};
  const auto time_run = [&](bool telemetry) {
    std::vector<std::string> full = args;
    if (telemetry) {
      full.push_back("trace=test_telemetry_overhead.json");
      full.push_back("metrics=test_telemetry_overhead.csv");
    }
    Simulation sim = Simulation::from_args(full);
    const double start = thread_cpu_seconds();
    sim.run();
    return thread_cpu_seconds() - start;
  };
  time_run(false);  // warm the kernel prototype cache out of the measurement
  double off = 1e300, on = 1e300;
  for (int i = 0; i < 3; ++i) {
    off = std::min(off, time_run(false));
    on = std::min(on, time_run(true));
  }
  EXPECT_LE(on, off * 1.02 + 0.02)
      << "telemetry overhead: off=" << off << " s, on=" << on << " s";
  std::remove("test_telemetry_overhead.json");
  std::remove("test_telemetry_overhead.csv");
}

// ---------------------------------------------------------------------------
// Config plumbing and the ensemble-service integration.

TEST(Telemetry, ConfigKeysParseAndValidate) {
  const SimulationConfig config = parse_simulation_args(
      {"scenario=planewave", "trace=t.json", "metrics=m.csv",
       "metrics_interval=5", "progress=stderr"});
  EXPECT_EQ(config.telemetry.trace, "t.json");
  EXPECT_EQ(config.telemetry.metrics, "m.csv");
  EXPECT_EQ(config.telemetry.metrics_interval, 5);
  EXPECT_EQ(config.telemetry.progress, "stderr");

  EXPECT_THROW(
      parse_simulation_args({"scenario=planewave", "metrics_interval=0"}),
      std::exception);
  EXPECT_THROW(
      parse_simulation_args({"scenario=planewave", "progress=stdout"}),
      std::exception);
  EXPECT_THROW(parse_simulation_args({"scenario=planewave", "trace="}),
               std::exception);
}

TEST(Telemetry, CanonicalStringSplitsOnArtifactsNotOnProgress) {
  SimulationConfig a, b;
  EXPECT_EQ(canonical_config_string(a), canonical_config_string(b));
  b.telemetry.progress = "stderr";  // heartbeat: no artifact, same key
  EXPECT_EQ(canonical_config_string(a), canonical_config_string(b));
  b.telemetry.trace = "t.json";  // artifact: splits the memoization key
  EXPECT_NE(canonical_config_string(a), canonical_config_string(b));
  b.telemetry.trace.clear();
  b.telemetry.metrics = "m.csv";
  EXPECT_NE(canonical_config_string(a), canonical_config_string(b));
  b.telemetry.metrics.clear();
  b.telemetry.metrics_interval = 7;
  EXPECT_NE(canonical_config_string(a), canonical_config_string(b));
}

TEST(Telemetry, ConcurrentPoolJobsScopeTheirOwnFlops) {
  // Four concurrent jobs, two distinct configs: per-job registries mean
  // each result reports exactly its own run's FLOPs — identical configs
  // report identical counts (FLOP totals are deterministic), and the
  // process-wide counter no longer absorbs scoped work.
  const std::uint64_t process_before =
      FlopCounter::process_instance().total();
  PoolOptions options;
  options.jobs = 4;
  options.memoize = false;
  options.base_args = {"scenario=planewave", "cells=4x4x4", "t_end=0.03",
                       "threads=1"};
  SimulationPool pool(options);
  pool.submit({"order=3"});
  pool.submit({"order=4"});
  pool.submit({"order=3"});
  pool.submit({"order=4"});
  const std::vector<JobResult> results = pool.run({});
  ASSERT_EQ(results.size(), 4u);
  for (const JobResult& r : results) {
    EXPECT_EQ(r.status, JobStatus::kDone) << r.error;
    EXPECT_GT(r.flops, 0u);
  }
  EXPECT_EQ(results[0].flops, results[2].flops);
  EXPECT_EQ(results[1].flops, results[3].flops);
  EXPECT_GT(results[1].flops, results[0].flops);  // order 4 does more work
  EXPECT_EQ(FlopCounter::process_instance().total(), process_before);
}

TEST(Telemetry, GalleryRowsCarryFlops) {
  JobResult r;
  r.id = 1;
  r.label = "x";
  r.status = JobStatus::kDone;
  r.flops = 123456789u;

  std::ostringstream csv;
  auto gallery = make_gallery(parse_gallery_spec("csv"), &csv);
  gallery->open();
  gallery->add(r);
  gallery->finish();
  EXPECT_NE(csv.str().find(",123456789,"), std::string::npos);

  const std::string bin = "test_telemetry_gallery.bin";
  auto bin_gallery = make_gallery(parse_gallery_spec("bin:" + bin), nullptr);
  bin_gallery->open();
  bin_gallery->add(r);
  bin_gallery->finish();
  const std::vector<JobResult> rows = read_gallery_records(bin);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].flops, 123456789u);
  std::remove(bin.c_str());
}

}  // namespace
}  // namespace exastp

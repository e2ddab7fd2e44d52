// Tests for the src/io streaming observer subsystem: hook ordering on the
// SolverBase time loop, batched receiver accuracy against the analytic
// planewave, incremental writer round-trips (appending CSV, binary record
// stream, VTK series + .pvd index), the record-stream reader's bounds (a
// header-only stream, a seeded mutational fuzz), and the two acceptance
// guards — field state bitwise-identical with/without observers at any
// thread count, and < 5% wall-clock overhead with 64 receivers on the
// threaded planewave workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exastp/engine/simulation.h"
#include "exastp/io/receiver_network.h"
#include "exastp/io/receiver_sinks.h"
#include "exastp/io/vtk_series.h"
#include "exastp/scenarios/planewave.h"
#include "stream_fuzz.h"

namespace exastp {
namespace {

/// Logs every hook invocation as "start", "step<k>" or "finish".
class LoggingObserver final : public Observer {
 public:
  void on_start(const SolverBase&) override { events.push_back("start"); }
  void on_step(const SolverBase&, int step) override {
    events.push_back("step" + std::to_string(step));
  }
  void on_finish(const SolverBase&) override { events.push_back("finish"); }

  std::vector<std::string> events;
};

Simulation planewave_sim(const std::vector<std::string>& extra = {}) {
  // A base default survives only when `extra` does not set the same key —
  // duplicate config keys are a hard parse error.
  std::vector<std::string> args;
  for (const std::string def :
       {"scenario=planewave", "order=4", "cells=3x3x3", "t_end=0.1"}) {
    const std::string key = def.substr(0, def.find('=') + 1);
    bool overridden = false;
    for (const std::string& arg : extra)
      if (arg.rfind(key, 0) == 0) overridden = true;
    if (!overridden) args.push_back(def);
  }
  args.insert(args.end(), extra.begin(), extra.end());
  return Simulation::from_args(args);
}

TEST(ObserverHooks, FireInStartStepFinishOrder) {
  Simulation sim = planewave_sim();
  LoggingObserver log;
  sim.solver().add_observer(&log);
  const int steps = sim.solver().run_until(0.05);
  ASSERT_GT(steps, 0);
  ASSERT_EQ(log.events.size(), static_cast<std::size_t>(steps) + 2);
  EXPECT_EQ(log.events.front(), "start");
  EXPECT_EQ(log.events.back(), "finish");
  for (int i = 0; i < steps; ++i)
    EXPECT_EQ(log.events[static_cast<std::size_t>(i) + 1],
              "step" + std::to_string(i + 1));
}

TEST(ObserverHooks, StartFiresOnceAcrossRepeatedRuns) {
  Simulation sim = planewave_sim();
  LoggingObserver log;
  sim.solver().add_observer(&log);
  const int first = sim.solver().run_until(0.03);
  const int second = sim.solver().run_until(0.06);
  ASSERT_GT(first, 0);
  ASSERT_GT(second, 0);
  // One start, every step numbered cumulatively, one finish per run.
  EXPECT_EQ(std::count(log.events.begin(), log.events.end(), "start"), 1);
  EXPECT_EQ(std::count(log.events.begin(), log.events.end(), "finish"), 2);
  EXPECT_EQ(log.events[1], "step1");
  EXPECT_EQ(log.events.back(), "finish");
  EXPECT_EQ(sim.solver().steps_taken(), first + second);
}

TEST(ObserverHooks, ZeroStepRunStillStartsAndFinishes) {
  Simulation sim = planewave_sim();
  LoggingObserver log;
  sim.solver().add_observer(&log);
  EXPECT_EQ(sim.solver().run_until(0.0), 0);
  EXPECT_EQ(log.events, (std::vector<std::string>{"start", "finish"}));
}

TEST(ObserverHooks, ObserverAttachedBetweenRunsGetsItsStart) {
  Simulation sim = planewave_sim();
  sim.solver().run_until(0.03);
  LoggingObserver late;
  sim.solver().add_observer(&late);
  sim.solver().run_until(0.06);
  ASSERT_FALSE(late.events.empty());
  EXPECT_EQ(late.events.front(), "start");
}

TEST(ObserverHooks, DuplicateAttachmentThrows) {
  Simulation sim = planewave_sim();
  LoggingObserver log;
  sim.solver().add_observer(&log);
  EXPECT_THROW(sim.solver().add_observer(&log), std::invalid_argument);
}

TEST(ReceiverNetwork, TraceMatchesTheAnalyticPlanewave) {
  Simulation sim = planewave_sim(
      {"order=5", "t_end=0.25", "receivers=0.3,0.4,0.5;0.7,0.2,0.9"});
  sim.run();
  const ReceiverNetwork& net = *sim.receivers();
  ASSERT_EQ(net.num_receivers(), 2u);
  ASSERT_GT(net.num_samples(), 10u);
  const PlaneWave wave;
  for (std::size_t r = 0; r < net.num_receivers(); ++r) {
    const std::vector<double> pressure = net.trace(r, 0);  // quantity 0 = p
    for (std::size_t i = 0; i < net.num_samples(); ++i)
      EXPECT_NEAR(pressure[i],
                  wave.pressure(net.positions()[r], net.times()[i]), 2e-3)
          << "receiver " << r << " sample " << i;
  }
}

TEST(ReceiverNetwork, SamplesEveryStepPlusTheInitialState) {
  Simulation sim = planewave_sim({"receivers=0.5,0.5,0.5"});
  const int steps = sim.run();
  EXPECT_EQ(sim.receivers()->num_samples(),
            static_cast<std::size_t>(steps) + 1);
  EXPECT_DOUBLE_EQ(sim.receivers()->times().front(), 0.0);
  EXPECT_DOUBLE_EQ(sim.receivers()->times().back(), sim.solver().time());
}

TEST(ReceiverNetwork, OutOfDomainReceiverThrows) {
  EXPECT_THROW(planewave_sim({"receivers=2.5,0.5,0.5"}).run(),
               std::invalid_argument);
}

TEST(ReceiverNetwork, StreamPathsWithoutReceiversThrow) {
  EXPECT_THROW(planewave_sim({"output.receivers_csv=/tmp/x.csv"}),
               std::invalid_argument);
}

TEST(ReceiverNetwork, CsvSinkStreamsHeaderAndOneRowPerSample) {
  const std::string path = "/tmp/exastp_io_recv.csv";
  Simulation sim = planewave_sim({"receivers=0.5,0.5,0.5;0.25,0.5,0.5",
                                  "output.quantities=0,3",
                                  "output.receivers_csv=" + path});
  sim.run();
  const ReceiverNetwork& net = *sim.receivers();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "t,r0_q0,r0_q3,r1_q0,r1_q3");
  std::size_t rows = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::stringstream ss(line);
    double t = 0.0, value = 0.0;
    char comma = 0;
    ss >> t;
    EXPECT_NEAR(t, net.times()[rows], 1e-5 + 1e-5 * std::abs(t));
    for (std::size_t i = 0; i < 4; ++i) {
      ss >> comma >> value;
      const double expect = net.value(rows, i / 2, i % 2);
      EXPECT_NEAR(value, expect, 1e-5 + 1e-5 * std::abs(expect));
    }
    ++rows;
  }
  EXPECT_EQ(rows, net.num_samples());
  std::remove(path.c_str());
}

TEST(ReceiverNetwork, BinaryRecordStreamRoundTripsExactly) {
  const std::string path = "/tmp/exastp_io_recv.bin";
  Simulation sim = planewave_sim({"receivers=0.5,0.5,0.5;0.2,0.8,0.4",
                                  "output.receivers_bin=" + path});
  sim.run();
  const ReceiverNetwork& net = *sim.receivers();

  const ReceiverRecords records = read_receiver_records(path);
  ASSERT_EQ(records.positions.size(), net.num_receivers());
  EXPECT_EQ(records.positions, net.positions());
  EXPECT_EQ(records.quantities, net.quantities());
  ASSERT_EQ(records.times.size(), net.num_samples());
  for (std::size_t i = 0; i < records.times.size(); ++i) {
    EXPECT_EQ(records.times[i], net.times()[i]);  // bitwise
    for (std::size_t r = 0; r < net.num_receivers(); ++r)
      for (std::size_t q = 0; q < net.quantities().size(); ++q)
        EXPECT_EQ(records.value(i, r, q), net.value(i, r, q));
  }
  std::remove(path.c_str());
}

TEST(ReceiverNetwork, DefaultQuantitiesAreTheEvolvedOnes) {
  // The programmatic default must match the receivers= config default:
  // evolved quantities only (acoustic: p, vx, vy, vz — no rho/c params).
  Simulation sim = planewave_sim();
  ReceiverNetwork net;
  net.add_receiver({0.5, 0.5, 0.5});
  net.bind(sim.solver());
  EXPECT_EQ(sim.solver().evolved_quantities(), 4);
  EXPECT_EQ(net.quantities(), (std::vector<int>{0, 1, 2, 3}));
}

TEST(ReceiverNetwork, EmptyNetworkWithSinkSurvivesRepeatedSampling) {
  // Regression: an empty network's bind used bound_.empty() as its
  // already-bound flag, re-opening the sink on every sample.
  const std::string path = "/tmp/exastp_io_empty.csv";
  Simulation sim = planewave_sim();
  auto network = std::make_shared<ReceiverNetwork>();
  network->add_sink(std::make_unique<CsvReceiverSink>(path));
  sim.add_observer(network);
  EXPECT_NO_THROW(sim.run());
  EXPECT_EQ(network->num_samples(), 0u);
  std::remove(path.c_str());
}

TEST(ReceiverNetwork, RecordReaderRejectsForeignFiles) {
  const std::string path = "/tmp/exastp_io_bogus.bin";
  std::ofstream(path) << "definitely not a record stream";
  EXPECT_THROW(read_receiver_records(path), std::invalid_argument);
  std::remove(path.c_str());
  EXPECT_THROW(read_receiver_records("/tmp/exastp_io_missing.bin"),
               std::invalid_argument);
}

TEST(ReceiverNetwork, RecordReaderAllocatesOnlyTheRowsTheFileHolds) {
  // A header-only stream of 2,000 receivers x 20,000 quantities: 125 KiB
  // on disk, but one row of it would take 305 MiB.
  const std::string path = "/tmp/exastp_io_wide_header.bin";
  ReceiverRecords wide;
  wide.positions.assign(2000, {0.5, 0.5, 0.5});
  wide.quantities.assign(20000, 0);
  write_receiver_records(wide, path);
  const long growth = stream_fuzz::peak_rss_growth_mib([&] {
    const ReceiverRecords records = read_receiver_records(path);
    return records.positions.size() == 2000 && records.times.empty();
  });
  std::remove(path.c_str());
  EXPECT_GE(growth, 0) << "the read threw or returned the wrong header";
  EXPECT_LT(growth, 64) << "the read raised the peak resident set by "
                        << growth << " MiB";
}

TEST(ReceiverNetwork, RecordReaderFuzzStaysWithinTheFileOrNamesIt) {
  // A corrupted header reframes the rows (zero receivers make every record
  // one time stamp), so the bound is the file, not the row count: every
  // row returned is backed by its bytes.
  const std::string path = "/tmp/exastp_io_fuzz.bin";
  ReceiverRecords records;
  records.positions = {{0.5, 0.5, 0.5}, {0.25, 0.5, 0.75}};
  records.quantities = {0, 1, 3};
  for (int i = 0; i < 3; ++i) {
    records.times.push_back(0.1 * i);
    for (std::size_t j = 0; j < records.row_size(); ++j)
      records.data.push_back(std::sin(1.0 + i + 0.1 * j));
  }
  write_receiver_records(records, path);
  const std::string stream = stream_fuzz::file_bytes(path);
  stream_fuzz::fuzz_stream(
      stream, path, [](const std::string& file, const std::string& bytes) {
        const ReceiverRecords read = read_receiver_records(file);
        EXPECT_EQ(read.data.size(), read.times.size() * read.row_size());
        EXPECT_LE(read.times.size() * (1 + read.row_size()) * sizeof(double),
                  bytes.size());
      });
}

TEST(VtkSeries, EmitsIntervalSpacedSnapshotsWithAnIndex) {
  const std::string base = "/tmp/exastp_io_series";
  Simulation sim = planewave_sim(
      {"output.series=" + base, "output.interval=0.03", "t_end=0.1"});
  sim.run();

  std::ifstream index(base + ".pvd");
  ASSERT_TRUE(index.good());
  std::stringstream ss;
  ss << index.rdbuf();
  const std::string body = ss.str();
  EXPECT_NE(body.find("<VTKFile type=\"Collection\""), std::string::npos);

  // t = 0 snapshot, one per 0.03 interval, and the end state: >= 4 files,
  // each present on disk and listed in the index.
  int count = 0;
  for (;; ++count) {
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), "_%04d.vtk", count);
    std::ifstream snap(base + suffix);
    if (!snap.good()) break;
    EXPECT_NE(body.find(std::string("exastp_io_series") + suffix),
              std::string::npos);
    std::string first_line;
    std::getline(snap, first_line);
    EXPECT_EQ(first_line, "# vtk DataFile Version 3.0");
  }
  EXPECT_GE(count, 4);
  EXPECT_LE(count, 6);
  for (int i = 0; i < count; ++i) {
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), "_%04d.vtk", i);
    std::remove((base + suffix).c_str());
  }
  std::remove((base + ".pvd").c_str());
}

/// Unpadded nodal snapshot of every quantity in every cell.
std::vector<double> snapshot(const SolverBase& solver) {
  const AosLayout& layout = solver.layout();
  std::vector<double> values;
  for (int c = 0; c < solver.grid().num_cells(); ++c) {
    const double* qc = solver.cell_dofs(c);
    for (int k3 = 0; k3 < layout.n; ++k3)
      for (int k2 = 0; k2 < layout.n; ++k2)
        for (int k1 = 0; k1 < layout.n; ++k1)
          for (int s = 0; s < layout.m; ++s)
            values.push_back(qc[layout.idx(k3, k2, k1, s)]);
  }
  return values;
}

/// 64 receivers on an 8x8 surface grid over the unit box.
std::string receiver_grid_arg() {
  std::string arg = "receivers=";
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j) {
      if (!(i == 0 && j == 0)) arg += ";";
      arg += std::to_string(0.06 + 0.125 * i) + "," +
             std::to_string(0.06 + 0.125 * j) + ",0.5";
    }
  return arg;
}

// Acceptance guard: with 64 receivers attached on the threaded planewave
// workload, the field state stays bitwise-identical to an observer-free
// run — observers only read. Checked per thread count, against the
// observer-free serial reference.
TEST(ObserverInvariance, FieldStateBitwiseIdenticalWithReceivers) {
  const std::vector<std::string> base = {"scenario=planewave", "order=4",
                                         "cells=3x3x3", "t_end=0.1"};
  auto run = [&](const std::vector<std::string>& extra) {
    std::vector<std::string> args = base;
    args.insert(args.end(), extra.begin(), extra.end());
    Simulation sim = Simulation::from_args(args);
    sim.run();
    return sim;
  };
  Simulation bare = run({"threads=1"});
  const std::vector<double> reference = snapshot(bare.solver());
  const std::string receivers = receiver_grid_arg();
  for (int threads : {1, 4}) {
    Simulation observed =
        run({receivers, "threads=" + std::to_string(threads)});
    EXPECT_EQ(observed.receivers()->num_receivers(), 64u);
    const std::vector<double> state = snapshot(observed.solver());
    ASSERT_EQ(state.size(), reference.size());
    for (std::size_t i = 0; i < state.size(); ++i)
      ASSERT_EQ(state[i], reference[i])
          << "threads=" << threads << " node " << i;
    // The traces themselves are thread-count invariant too.
    EXPECT_EQ(observed.receivers()->trace(63, 0),
              run({receivers, "threads=1"}).receivers()->trace(63, 0));
  }
}

// Acceptance guard: < 5% overhead for 64 receivers. Both times come from
// one run's telemetry (progress=stderr turns the spans on): the
// `observers` span (sampling after each step) against the `step` span. A
// slower or busier host stretches both alike, so the check does not
// depend on the host's speed, as two separately timed runs did. The mesh
// is 8x8x8 so that a step (about 4.5 ms here) is long enough to compare
// with: the 4x4x4 planewave steps 27 times in about 20 ms. The absolute
// slack covers the span bookkeeping.
TEST(ObserverInvariance, ReceiverOverheadUnderFivePercent) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "wall-clock ratios are not meaningful under TSan";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  GTEST_SKIP() << "wall-clock ratios are not meaningful under TSan";
#endif
#endif
  Simulation sim = Simulation::from_args(
      {"scenario=planewave", "order=5", "cells=8x8x8", "t_end=0.1",
       "threads=4", receiver_grid_arg(), "progress=stderr"});
  sim.run();
  const TelemetryRegistry& telemetry = sim.telemetry();
  const double step = 1e-9 * telemetry.aggregate(SpanId::kStep).total_ns;
  const double observers =
      1e-9 * telemetry.aggregate(SpanId::kObservers).total_ns;
  ASSERT_GT(step, 0.0);
  EXPECT_LT(observers, step * 0.05 + 0.002)
      << "64 receivers cost " << observers / step * 100.0 << "% of "
      << step << " s stepped";
}

}  // namespace
}  // namespace exastp

// Tests for the ensemble service (src/service/): batch-file parsing, the
// pluggable result galleries, the bin-gallery reader's bounds (a flipped
// length, a seeded mutational fuzz), and the SimulationPool itself — pool
// results bitwise-identical to standalone runs, memoization of duplicate
// configs (verified by run counters), failure isolation, and deterministic
// id-ordered gallery rows at any concurrency.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exastp/engine/kernel_cache.h"
#include "exastp/engine/simulation.h"
#include "exastp/service/job_queue.h"
#include "exastp/service/result_gallery.h"
#include "exastp/service/simulation_pool.h"
#include "stream_fuzz.h"

namespace exastp {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Captures the rows a pool streams, for order/bracketing assertions.
class RecordingGallery final : public ResultGallery {
 public:
  void open() override { opened = true; }
  void add(const JobResult& r) override {
    EXPECT_TRUE(opened);
    EXPECT_FALSE(finished);
    rows.push_back(r);
  }
  void finish() override { finished = true; }

  bool opened = false;
  bool finished = false;
  std::vector<JobResult> rows;
};

TEST(BatchFile, SplitsLinesSkipsCommentsAndBlanks) {
  EXPECT_EQ(split_batch_line("  scenario=planewave   order=3 "),
            (std::vector<std::string>{"scenario=planewave", "order=3"}));
  EXPECT_TRUE(split_batch_line("# a comment").empty());
  EXPECT_TRUE(split_batch_line("   ").empty());
  EXPECT_EQ(split_batch_line("order=3 # trailing comment"),
            (std::vector<std::string>{"order=3"}));

  const std::string path = "/tmp/exastp_test_batch.txt";
  {
    std::ofstream out(path);
    out << "# header comment\n"
        << "scenario=planewave order=2\n"
        << "\n"
        << "scenario=gaussian t_end=0.1\n";
  }
  const auto jobs = parse_batch_file(path);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0],
            (std::vector<std::string>{"scenario=planewave", "order=2"}));
  EXPECT_EQ(jobs[1],
            (std::vector<std::string>{"scenario=gaussian", "t_end=0.1"}));
  std::remove(path.c_str());

  EXPECT_THROW(parse_batch_file("/tmp/no_such_batch_file.txt"),
               std::invalid_argument);
}

TEST(BatchFile, PathSuffixGoesBeforeTheExtension) {
  EXPECT_EQ(with_path_suffix("out.csv", "_j3"), "out_j3.csv");
  EXPECT_EQ(with_path_suffix("a/b.c/snap", "_j0"), "a/b.c/snap_j0");
  EXPECT_EQ(with_path_suffix("", "_j1"), "");
}

TEST(Gallery, SpecParsesKindAndOptionalPath) {
  EXPECT_EQ(parse_gallery_spec("csv").kind, "csv");
  EXPECT_TRUE(parse_gallery_spec("csv").path.empty());
  const GallerySpec spec = parse_gallery_spec("bin:/tmp/a:b.bin");
  EXPECT_EQ(spec.kind, "bin");
  EXPECT_EQ(spec.path, "/tmp/a:b.bin");
  try {
    parse_gallery_spec("sqlite:/tmp/x");
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "gallery=sqlite: expected csv|jsonl|bin|dir"),
              std::string::npos)
        << e.what();
  }
}

TEST(Gallery, KindsAreTheFourFormats) {
  EXPECT_EQ(gallery_kinds(),
            (std::vector<std::string>{"csv", "jsonl", "bin", "dir"}));
  for (const std::string& kind : gallery_kinds())
    EXPECT_EQ(parse_gallery_spec(kind + ":x").kind, kind);
}

JobResult sample_result() {
  JobResult r;
  r.id = 7;
  r.label = "order=3, \"quoted\"";
  r.status = JobStatus::kFailed;
  r.error = "bad thing,\nwith a newline";
  r.steps = 12;
  r.t = 0.25;
  r.l2_error = 1.5e-3;
  r.seconds = 0.125;
  r.from_cache = true;
  r.summary = "pde=acoustic order=3";
  return r;
}

TEST(Gallery, CsvQuotesFreeTextFields) {
  std::ostringstream out;
  auto gallery = make_gallery(parse_gallery_spec("csv"), &out);
  gallery->open();
  gallery->add(sample_result());
  gallery->finish();
  std::istringstream in(out.str());
  std::string header, row;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header, "job,label,status,steps,t,l2_error,seconds,flops,cached,error");
  ASSERT_TRUE(std::getline(in, row));
  EXPECT_EQ(row.rfind("7,\"order=3, \"\"quoted\"\"\",failed,12,", 0), 0u)
      << row;
}

TEST(Gallery, JsonlEscapesStrings) {
  std::ostringstream out;
  auto gallery = make_gallery(parse_gallery_spec("jsonl"), &out);
  gallery->open();
  gallery->add(sample_result());
  gallery->finish();
  const std::string line = out.str();
  EXPECT_NE(line.find("\"status\":\"failed\""), std::string::npos);
  EXPECT_NE(line.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(line.find("\\n"), std::string::npos);
  EXPECT_NE(line.find("\"cached\":true"), std::string::npos);
}

TEST(Gallery, BinRoundTrips) {
  const std::string path = "/tmp/exastp_test_gallery.bin";
  auto gallery = make_gallery(parse_gallery_spec("bin:" + path), nullptr);
  gallery->open();
  JobResult a = sample_result();
  JobResult b;
  b.id = 8;
  b.label = "plain";
  b.status = JobStatus::kDone;
  b.steps = 4;
  b.t = 0.5;
  b.l2_error = std::numeric_limits<double>::quiet_NaN();
  b.seconds = 0.01;
  gallery->add(a);
  gallery->add(b);
  gallery->finish();

  const auto rows = read_gallery_records(path);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].id, a.id);
  EXPECT_EQ(rows[0].label, a.label);
  EXPECT_EQ(rows[0].status, a.status);
  EXPECT_EQ(rows[0].error, a.error);
  EXPECT_EQ(rows[0].steps, a.steps);
  EXPECT_EQ(rows[0].t, a.t);
  EXPECT_EQ(rows[0].l2_error, a.l2_error);
  EXPECT_EQ(rows[0].seconds, a.seconds);
  EXPECT_EQ(rows[0].from_cache, a.from_cache);
  EXPECT_EQ(rows[0].summary, a.summary);
  EXPECT_EQ(rows[1].id, b.id);
  EXPECT_EQ(rows[1].status, JobStatus::kDone);
  EXPECT_TRUE(std::isnan(rows[1].l2_error));
  std::remove(path.c_str());

  EXPECT_THROW(make_gallery(parse_gallery_spec("bin"), nullptr),
               std::invalid_argument);
}

/// A 203-byte bin gallery of three records: done, failed (with an error)
/// and skipped.
std::string three_record_gallery(const std::string& path) {
  auto gallery = make_gallery(parse_gallery_spec("bin:" + path), nullptr);
  gallery->open();
  const char* labels[] = {"first", "second", "third"};
  const JobStatus statuses[] = {JobStatus::kDone, JobStatus::kFailed,
                                JobStatus::kSkipped};
  for (int i = 0; i < 3; ++i) {
    JobResult r;
    r.id = i;
    r.label = labels[i];
    r.status = statuses[i];
    r.error = i == 1 ? "exploded" : "";
    r.steps = 10 + i;
    r.t = 0.1 * i;
    r.l2_error = 1e-3 * i;
    r.seconds = 0.5;
    r.flops = 1000u + i;
    r.summary = "o=3";
    gallery->add(r);
  }
  gallery->finish();
  return stream_fuzz::file_bytes(path);
}

TEST(Gallery, BinReaderStopsAtALengthPastTheEnd) {
  // One flipped bit (0x40 in the high byte of the second record's label
  // length) asks for a 1 GiB label in a 203-byte file. That is the
  // documented trailing partial record: the reader returns the first
  // record without allocating the label.
  const std::string path = "/tmp/exastp_test_gallery_flip.bin";
  std::string bytes = three_record_gallery(path);
  ASSERT_EQ(bytes.size(), 203u);
  // magic, the first record (42 fixed bytes, three length prefixes and
  // "first" + "" + "o=3"), then the second record's fixed bytes.
  const std::size_t label_length = 8 + (42 + 12 + 5 + 0 + 3) + 42;
  ASSERT_EQ(bytes[label_length], 6);  // "second"
  bytes[label_length + 3] ^= 0x40;
  stream_fuzz::write_bytes(path, bytes);
  const long growth = stream_fuzz::peak_rss_growth_mib([&] {
    const std::vector<JobResult> rows = read_gallery_records(path);
    return rows.size() == 1 && rows[0].label == "first";
  });
  std::remove(path.c_str());
  EXPECT_GE(growth, 0) << "the read threw or did not return the first record";
  EXPECT_LT(growth, 64) << "the read raised the peak resident set by "
                        << growth << " MiB";
}

TEST(Gallery, BinReaderFuzzReturnsAtMostTheRecordsOrANamedError) {
  const std::string path = "/tmp/exastp_test_gallery_fuzz.bin";
  const std::string stream = three_record_gallery(path);
  stream_fuzz::fuzz_stream(
      stream, path, [](const std::string& file, const std::string&) {
        EXPECT_LE(read_gallery_records(file).size(), 3u);
      });
}

TEST(Gallery, DirWritesOneFilePerJobPlusIndex) {
  const std::string path = "/tmp/exastp_test_gallery_dir";
  auto gallery = make_gallery(parse_gallery_spec("dir:" + path), nullptr);
  gallery->open();
  gallery->add(sample_result());
  gallery->finish();
  const std::string job = slurp(path + "/job_0007.json");
  EXPECT_NE(job.find("\"job\":7"), std::string::npos);
  const std::string index = slurp(path + "/index.csv");
  EXPECT_EQ(index.rfind("job,label,status", 0), 0u);
  std::remove((path + "/job_0007.json").c_str());
  std::remove((path + "/index.csv").c_str());
}

// --- The pool itself --------------------------------------------------

/// The acceptance matrix: distinct configs through the pool at jobs=4 are
/// bitwise-identical to standalone runs of the same configs, including the
/// streamed receiver artifacts.
TEST(SimulationPool, ResultsBitwiseIdenticalToStandaloneRuns) {
  const std::vector<std::vector<std::string>> configs = {
      {"scenario=planewave", "order=2", "cells=3x3x3", "t_end=0.05"},
      {"scenario=planewave", "order=3", "cells=3x3x3", "t_end=0.05",
       "stepper=rk4"},
      {"scenario=gaussian", "order=3", "t_end=0.05"},
      {"scenario=planewave", "order=2", "cells=4x3x3", "t_end=0.04",
       "receivers=0.5,0.5,0.5",
       "output.receivers_bin=/tmp/exastp_pool_recv.bin"},
  };

  PoolOptions options;
  options.jobs = 4;
  SimulationPool pool(options);
  for (const auto& args : configs) pool.submit(args);
  const std::vector<JobResult> results = pool.run();
  ASSERT_EQ(results.size(), configs.size());

  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE(results[i].label);
    ASSERT_EQ(results[i].status, JobStatus::kDone) << results[i].error;
    // The standalone run: same args, its own receiver path.
    std::vector<std::string> args = configs[i];
    for (std::string& arg : args)
      if (arg.rfind("output.receivers_bin=", 0) == 0)
        arg = "output.receivers_bin=/tmp/exastp_alone_recv.bin";
    Simulation sim = Simulation::from_args(args);
    const int steps = sim.run();
    EXPECT_EQ(results[i].steps, steps);
    EXPECT_EQ(results[i].t, sim.solver().time());  // exact, not approximate
    if (sim.has_exact_solution()) {
      EXPECT_EQ(results[i].l2_error, sim.l2_error());  // bitwise
    } else {
      EXPECT_TRUE(std::isnan(results[i].l2_error));
    }
  }
  // The job's receiver stream (suffixed _j3 by the pool) is byte-identical
  // to the standalone run's.
  EXPECT_EQ(slurp("/tmp/exastp_pool_recv_j3.bin"),
            slurp("/tmp/exastp_alone_recv.bin"));
  std::remove("/tmp/exastp_pool_recv_j3.bin");
  std::remove("/tmp/exastp_alone_recv.bin");
}

TEST(SimulationPool, MemoizationRunsEachUniqueConfigExactlyOnce) {
  const std::vector<std::string> a = {"scenario=planewave", "order=2",
                                      "cells=3x3x3", "t_end=0.04"};
  const std::vector<std::string> b = {"scenario=planewave", "order=3",
                                      "cells=3x3x3", "t_end=0.04"};
  PoolOptions options;
  options.jobs = 4;
  SimulationPool pool(options);
  pool.submit(a);
  pool.submit(b);
  pool.submit(a);  // duplicate of 0
  pool.submit(b);  // duplicate of 1
  pool.submit(a);  // duplicate of 0
  const auto results = pool.run();
  EXPECT_EQ(pool.runs_executed(), 2);

  ASSERT_EQ(results.size(), 5u);
  for (const JobResult& r : results)
    EXPECT_EQ(r.status, JobStatus::kDone) << r.error;
  // 5 submissions, 2 unique configs: exactly 3 rows are cache hits (under
  // jobs=4 the owner of each config is whichever worker claimed it first,
  // not necessarily the lowest id).
  int cached = 0;
  for (const JobResult& r : results) cached += r.from_cache ? 1 : 0;
  EXPECT_EQ(cached, 3);
  // Duplicates carry the original's numbers bitwise.
  EXPECT_EQ(results[2].steps, results[0].steps);
  EXPECT_EQ(results[2].l2_error, results[0].l2_error);
  EXPECT_EQ(results[4].l2_error, results[0].l2_error);
  EXPECT_EQ(results[3].l2_error, results[1].l2_error);
  // A later batch on the same pool still remembers.
  pool.submit(a);
  const auto again = pool.run();
  ASSERT_EQ(again.size(), 1u);
  EXPECT_TRUE(again[0].from_cache);
  EXPECT_EQ(pool.runs_executed(), 2);
}

TEST(SimulationPool, ThreadCountDoesNotSplitTheMemoKey) {
  // Results are bitwise-identical for every thread count, so threads= is
  // excluded from the canonical key — the second job is a cache hit.
  SimulationPool pool;
  pool.submit({"scenario=planewave", "order=2", "cells=3x3x3",
               "t_end=0.04", "threads=1"});
  pool.submit({"scenario=planewave", "order=2", "cells=3x3x3",
               "t_end=0.04", "threads=2"});
  const auto results = pool.run();
  EXPECT_EQ(pool.runs_executed(), 1);
  EXPECT_TRUE(results[1].from_cache);
  EXPECT_EQ(results[0].l2_error, results[1].l2_error);
}

TEST(SimulationPool, OneFailingJobDoesNotKillTheBatch) {
  PoolOptions options;
  options.jobs = 2;
  SimulationPool pool(options);
  pool.submit({"scenario=planewave", "order=2", "cells=3x3x3",
               "t_end=0.04"});
  pool.submit({"scenario=no_such_scenario", "t_end=0.01"});
  pool.submit({"scenario=gaussian", "order=2", "t_end=0.04"});
  const auto results = pool.run();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status, JobStatus::kDone);
  EXPECT_EQ(results[1].status, JobStatus::kFailed);
  EXPECT_NE(results[1].error.find("no_such_scenario"), std::string::npos);
  EXPECT_EQ(results[2].status, JobStatus::kDone);
}

TEST(SimulationPool, StopOnFailureSkipsTheQueueTail) {
  PoolOptions options;
  options.jobs = 1;
  options.stop_on_failure = true;
  SimulationPool pool(options);
  pool.submit({"scenario=planewave", "order=2", "cells=3x3x3",
               "t_end=0.04"});
  pool.submit({"scenario=no_such_scenario", "t_end=0.01"});
  pool.submit({"scenario=gaussian", "order=2", "t_end=0.04"});
  const auto results = pool.run();
  EXPECT_EQ(results[0].status, JobStatus::kDone);
  EXPECT_EQ(results[1].status, JobStatus::kFailed);
  EXPECT_EQ(results[2].status, JobStatus::kSkipped);
  EXPECT_EQ(pool.runs_executed(), 1);
}

TEST(SimulationPool, DuplicateConfigKeyFailsThatJobOnly) {
  SimulationPool pool;
  pool.submit({"scenario=planewave", "order=2", "order=3", "cells=3x3x3",
               "t_end=0.02"});
  pool.submit({"scenario=planewave", "order=2", "cells=3x3x3",
               "t_end=0.02"});
  const auto results = pool.run();
  EXPECT_EQ(results[0].status, JobStatus::kFailed);
  EXPECT_NE(results[0].error.find("duplicate config key \"order\""),
            std::string::npos);
  EXPECT_EQ(results[1].status, JobStatus::kDone);
}

TEST(SimulationPool, RejectsMpiBackendJobs) {
  SimulationPool pool;
  pool.submit({"scenario=planewave", "order=2", "cells=3x3x3",
               "t_end=0.02", "backend=mpi"});
  const auto results = pool.run();
  EXPECT_EQ(results[0].status, JobStatus::kFailed);
  EXPECT_NE(results[0].error.find("single-process"), std::string::npos);
}

TEST(SimulationPool, GalleryRowsStreamInIdOrderAtAnyConcurrency) {
  for (int jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    PoolOptions options;
    options.jobs = jobs;
    SimulationPool pool(options);
    // Mixed durations so completion order under jobs=4 differs from id
    // order: later jobs are cheaper than earlier ones.
    for (int order : {4, 3, 2, 2})
      pool.submit({"scenario=planewave", "order=" + std::to_string(order),
                   "cells=3x3x3", "t_end=0.0" + std::to_string(5 - order)});
    RecordingGallery gallery;
    const auto results = pool.run({&gallery});
    EXPECT_TRUE(gallery.finished);
    ASSERT_EQ(gallery.rows.size(), 4u);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(gallery.rows[i].id, i);
      EXPECT_EQ(results[i].id, i);
    }
  }
}

TEST(SimulationPool, JobsShareTheKernelPrototypeCache) {
  const KernelCacheStats before = kernel_cache_stats();
  PoolOptions options;
  options.jobs = 2;
  options.memoize = false;  // force real runs — sharing is at kernel level
  SimulationPool pool(options);
  for (int i = 0; i < 4; ++i)
    pool.submit({"scenario=planewave", "order=2", "cells=3x3x3",
                 "t_end=0.02"});
  const auto results = pool.run();
  for (const JobResult& r : results)
    EXPECT_EQ(r.status, JobStatus::kDone) << r.error;
  EXPECT_EQ(pool.runs_executed(), 4);
  const KernelCacheStats after = kernel_cache_stats();
  // All four jobs want the same (pde, variant, order, isa, family): at
  // most one build, at least three served from the shared prototype.
  EXPECT_LE(after.misses - before.misses, 1);
  EXPECT_GE(after.hits - before.hits, 3);
}

TEST(SimulationPool, BaseArgsApplyToEveryJob) {
  PoolOptions options;
  options.base_args = {"scenario=planewave", "cells=3x3x3", "t_end=0.04"};
  SimulationPool pool(options);
  pool.submit({"order=2"});
  pool.submit({"order=3"});
  const auto results = pool.run();
  ASSERT_EQ(results[0].status, JobStatus::kDone) << results[0].error;
  ASSERT_EQ(results[1].status, JobStatus::kDone) << results[1].error;
  // Higher order resolves the planewave better.
  EXPECT_LT(results[1].l2_error, results[0].l2_error);
}

}  // namespace
}  // namespace exastp

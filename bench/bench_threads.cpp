// Thread-scaling bench: three ADER-DG workloads stepped with 1, 2, 4, ...
// threads through the Simulation façade — exactly what `threads=N` gives an
// exastp_run user:
//
//   planewave_o4_fp32          acoustic plane wave, order 4, fp32, 16^3
//                              cells, one monolithic solver;
//   planewave_o4_fp32_shards64 the same run cut into 4x4x4 shards;
//   loh1_o8                    elastic LOH1, order 8, fp64, 4^3 cells.
//
// Each row times a fixed number of steps (after one untimed warm-up step),
// best of three repetitions, and reads the telemetry `predict` span over
// those steps, so predictor scaling shows apart from the corrector's. The
// per-cell work is embarrassingly parallel: on a dedicated machine both
// columns should scale until memory bandwidth or the core count saturates.
// CI's bench-smoke job archives this output per commit.
//
//   bench/bench_threads [max_threads] [json_path]
//
// max_threads defaults to 4; the thread counts are the powers of two up to
// it, plus max_threads itself. With json_path the rows are also written as
// a record (BENCH_threads.json in the repository root) with its
// provenance: git revision, compiler, flags, ISA, host and nproc.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "exastp/common/parallel.h"
#include "exastp/engine/simulation.h"
#include "exastp/telemetry/telemetry.h"

using namespace exastp;
using exastp::bench::time_steps;

namespace {

struct Workload {
  const char* name;
  std::vector<std::string> args;
  int steps;  ///< timed steps per repetition: about a second at one thread
};

// A row reports its fastest repetition: on a shared host other tenants
// only ever add time, so the minimum is the steadiest estimate.
constexpr int kRepetitions = 3;

const Workload kWorkloads[] = {
    {"planewave_o4_fp32",
     {"scenario=planewave", "pde=acoustic", "order=4", "precision=fp32",
      "cells=16x16x16"},
     12},
    {"planewave_o4_fp32_shards64",
     {"scenario=planewave", "pde=acoustic", "order=4", "precision=fp32",
      "cells=16x16x16", "shards=4x4x4"},
     12},
    {"loh1_o8",
     {"scenario=loh1", "pde=elastic", "order=8", "precision=fp64",
      "cells=4x4x4"},
     50},
};

struct Row {
  std::string workload;
  int threads = 0;
  int steps = 0;
  double seconds = 0.0;
  double predict_s = 0.0;
};

/// The workload at `threads` threads, spans on (progress= turns them on;
/// its heartbeat runs only inside Simulation::run, which the bench skips).
Simulation make_sim(const Workload& w, int threads) {
  std::vector<std::string> args = w.args;
  args.insert(args.end(), {"stepper=ader", "variant=aosoa_splitck",
                           "progress=stderr",
                           "threads=" + std::to_string(threads)});
  return Simulation::from_args(args);
}

Row measure(const Workload& w, int threads) {
  Simulation sim = make_sim(w, threads);
  // Route spans and FLOPs to this run's registry, as Simulation::run does.
  TelemetryScope scope(&sim.telemetry());
  const double dt = sim.solver().stable_dt();
  sim.solver().step(dt);  // untimed warm-up
  Row best{w.name, threads, w.steps, 0.0, 0.0};
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const std::int64_t predict0 =
        sim.telemetry().aggregate(SpanId::kPredict).total_ns;
    const double seconds = time_steps(sim, dt, w.steps);
    const std::int64_t predict1 =
        sim.telemetry().aggregate(SpanId::kPredict).total_ns;
    if (rep == 0 || seconds < best.seconds) {
      best.seconds = seconds;
      best.predict_s = static_cast<double>(predict1 - predict0) * 1e-9;
    }
  }
  return best;
}

/// The checkout's commit, with "-dirty" when the tree has uncommitted
/// changes (a record taken before committing names its parent commit).
/// Read before the record is opened: truncating a tracked record would
/// itself make the tree dirty.
std::string git_revision() {
  const std::string cmd =
      std::string("git -C '") + EXASTP_SOURCE_DIR +
      "' describe --always --dirty --abbrev=40 2>/dev/null";
  std::string out;
  if (FILE* pipe = popen(cmd.c_str(), "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
    pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  return out.empty() ? "unknown" : out;
}

std::string host_name() {
  char buf[256] = {};
  return gethostname(buf, sizeof buf - 1) == 0 ? buf : "unknown";
}

void write_json(const std::string& path, const std::string& revision,
                const std::vector<Row>& rows) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"threads\",\n  \"provenance\": {\n"
      << "    \"git_revision\": \"" << revision << "\",\n"
      << "    \"compiler\": \"" << EXASTP_COMPILER << "\",\n"
      << "    \"cxx_flags\": \"" << EXASTP_CXX_FLAGS << "\",\n"
      << "    \"isa\": \"" << isa_name(host_best_isa()) << "\",\n"
      << "    \"host\": \"" << host_name() << "\",\n"
      << "    \"nproc\": " << hardware_threads() << "\n  },\n"
      << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "    {\"workload\": \"%s\", \"threads\": %d, \"steps\": %d, "
                  "\"seconds\": %.4f, \"predict_s\": %.4f}%s\n",
                  r.workload.c_str(), r.threads, r.steps, r.seconds,
                  r.predict_s, i + 1 < rows.size() ? "," : "");
    out << line;
  }
  out << "  ]\n}\n";
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int max_threads = argc > 1 ? std::atoi(argv[1]) : 4;
  const std::string json_path = argc > 2 ? argv[2] : "";
  if (max_threads < 1) {
    std::fprintf(stderr, "usage: bench_threads [max_threads] [json_path]\n");
    return 1;
  }
  const std::string revision = json_path.empty() ? "" : git_revision();
  std::vector<int> counts;
  for (int t = 1; t <= max_threads; t *= 2) counts.push_back(t);
  if (counts.back() != max_threads) counts.push_back(max_threads);

  std::printf("# thread scaling, hardware threads: %d, host ISA %s\n",
              hardware_threads(), isa_name(host_best_isa()).c_str());
  std::printf("%-28s %8s %6s %10s %10s %9s %9s\n", "workload", "threads",
              "steps", "seconds", "predict_s", "speedup", "pred_spd");
  std::vector<Row> rows;
  for (const Workload& w : kWorkloads) {
    Row serial;
    for (int threads : counts) {
      const Row row = measure(w, threads);
      if (threads == 1) serial = row;
      std::printf("%-28s %8d %6d %10.4f %10.4f %8.2fx %8.2fx\n", w.name,
                  threads, row.steps, row.seconds, row.predict_s,
                  serial.seconds / row.seconds,
                  serial.predict_s / row.predict_s);
      rows.push_back(row);
    }
  }
  if (!json_path.empty()) write_json(json_path, revision, rows);
  return 0;
}

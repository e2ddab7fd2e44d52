// Config-driven runner: any PDE x scenario x kernel variant x ISA x order
// from one binary, no recompilation.
//
//   build/examples/exastp_run pde=acoustic scenario=planewave
//       variant=aosoa_splitck order=5 cells=3x3x3 t_end=0.25   (one line)
//
// Streaming outputs come from the observer subsystem (receivers=...,
// output.series=..., output.receivers_csv=...), shards=AxBxC|N|auto runs
// the mesh domain-decomposed (the summary line prints the effective
// topology: shards=AxBxC threads=N cells/shard=...), and
// sweep=key:v1,v2,... runs the config once per value, streaming one
// summary CSV row per run to stdout.
//
// Ensemble mode: batch=jobs.txt runs every line of the file (one
// key=value config per line, '#' comments) through the SimulationPool —
// jobs=N simulations concurrently, results streamed in job order through
// gallery=csv|jsonl|bin|dir sinks (csv to stdout by default). A failing
// job is reported failed in its gallery row and the batch continues
// (failure isolation), so the exit code stays 0 as long as the batch
// itself ran.
//
// Run without arguments (or with "help") for the key reference and the
// PDE, scenario and gallery names.
#include <cstdio>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exastp/common/mpi_runtime.h"
#include "exastp/engine/simulation.h"
#include "exastp/engine/sweep.h"
#include "exastp/service/simulation_pool.h"

using namespace exastp;

namespace {

void print_names(const char* what, const std::vector<std::string>& names) {
  std::printf("\n%s:", what);
  for (const std::string& name : names) std::printf(" %s", name.c_str());
}

void print_usage() {
  std::printf("%s", simulation_usage().c_str());
  print_names("PDEs", pde_names());
  print_names("scenarios", scenario_names());
  print_names("galleries", gallery_kinds());
  std::printf("\n");
}

/// The ensemble keys, peeled off before config parsing (like sweep=):
/// batch=FILE, jobs=N, gallery=KIND[:PATH] (repeatable). Everything else
/// stays in the argument list as batch-wide config defaults.
struct BatchCli {
  bool found = false;
  std::string file;
  int jobs = 1;
  std::vector<GallerySpec> galleries;
};

std::vector<std::string> extract_batch(const std::vector<std::string>& args,
                                       BatchCli* batch) {
  std::vector<std::string> rest;
  for (const std::string& arg : args) {
    if (arg.rfind("batch=", 0) == 0) {
      batch->found = true;
      batch->file = arg.substr(6);
    } else if (arg.rfind("jobs=", 0) == 0) {
      batch->jobs = parse_config_int("jobs", arg.substr(5));
      if (batch->jobs < 1) {
        throw std::invalid_argument("jobs=" + arg.substr(5) +
                                    " needs a positive count");
      }
    } else if (arg.rfind("gallery=", 0) == 0) {
      batch->galleries.push_back(parse_gallery_spec(arg.substr(8)));
    } else {
      rest.push_back(arg);
    }
  }
  return rest;
}

int run_batch(const BatchCli& batch, std::vector<std::string> base_args) {
  PoolOptions options;
  options.jobs = batch.jobs;
  options.base_args = std::move(base_args);
  SimulationPool pool(std::move(options));
  const int submitted = pool.submit_batch_file(batch.file);
  std::fprintf(stderr, "batch %s: %d jobs at jobs=%d\n", batch.file.c_str(),
               submitted, batch.jobs);

  std::vector<GallerySpec> specs = batch.galleries;
  if (specs.empty()) specs.push_back(GallerySpec{});  // csv to stdout
  std::vector<std::unique_ptr<ResultGallery>> galleries;
  std::vector<ResultGallery*> sinks;
  for (const GallerySpec& spec : specs) {
    galleries.push_back(make_gallery(spec, &std::cout));
    sinks.push_back(galleries.back().get());
  }

  const std::vector<JobResult> results = pool.run(sinks);
  int done = 0, failed = 0, cached = 0, skipped = 0;
  for (const JobResult& r : results) {
    if (r.status == JobStatus::kDone) ++done;
    if (r.status == JobStatus::kFailed) ++failed;
    if (r.status == JobStatus::kSkipped) ++skipped;
    if (r.from_cache) ++cached;
    if (r.status == JobStatus::kFailed)
      std::fprintf(stderr, "job %d failed (%s): %s\n", r.id,
                   r.label.c_str(), r.error.c_str());
  }
  std::fprintf(stderr,
               "batch done: %d done (%d cached), %d failed, %d skipped — "
               "%d simulations executed\n",
               done, cached, failed, skipped, pool.runs_executed());
  for (const GallerySpec& spec : specs)
    if (!spec.path.empty())
      std::fprintf(stderr, "gallery %s: %s\n", spec.kind.c_str(),
                   spec.path.c_str());
  // Failure isolation is the point of the pool: bad configs are reported
  // in their rows, not through the batch exit code.
  return 0;
}

void report_outputs(const Simulation& sim) {
  const OutputConfig& output = sim.config().output;
  const TelemetryConfig& telemetry = sim.config().telemetry;
  if (!output.csv.empty()) std::printf("wrote %s\n", output.csv.c_str());
  if (!output.vtk.empty()) std::printf("wrote %s\n", output.vtk.c_str());
  if (!output.receivers_csv.empty())
    std::printf("streamed %s\n", output.receivers_csv.c_str());
  if (!output.receivers_bin.empty())
    std::printf("streamed %s\n", output.receivers_bin.c_str());
  if (!output.series.empty())
    std::printf("streamed VTK series %s_NNNN.vtk (index %s.pvd)\n",
                output.series.c_str(), output.series.c_str());
  if (sim.receivers() != nullptr)
    std::printf("sampled %zu receivers x %zu samples\n",
                sim.receivers()->num_receivers(),
                sim.receivers()->num_samples());
  if (!telemetry.trace.empty())
    std::printf("wrote trace %s (load in ui.perfetto.dev)\n",
                telemetry.trace.c_str());
  if (!telemetry.metrics.empty())
    std::printf("streamed metrics %s\n", telemetry.metrics.c_str());
}

}  // namespace

/// MPI_Init/Finalize bracket for mpirun launches (backend=mpi); both calls
/// are no-ops in builds without -DEXASTP_WITH_MPI=ON.
struct ScopedMpi {
  ScopedMpi(int* argc, char*** argv) { MpiRuntime::init(argc, argv); }
  ~ScopedMpi() { MpiRuntime::finalize(); }
};

int main(int argc, char** argv) {
  ScopedMpi mpi(&argc, &argv);
  // One reporting rank: under mpirun every rank runs the same simulation
  // loop (collectives keep them in lockstep) but only rank 0 narrates.
  const bool root = MpiRuntime::rank() == 0;

  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty() || args[0] == "help" || args[0] == "--help" ||
      args[0] == "-h") {
    if (root) print_usage();
    return 0;
  }

  try {
    SweepSpec sweep;
    bool has_sweep = false;
    args = extract_sweep(args, &sweep, &has_sweep);

    BatchCli batch;
    args = extract_batch(args, &batch);
    if (!batch.found && (batch.jobs != 1 || !batch.galleries.empty()))
      throw std::invalid_argument("jobs=/gallery= need batch=FILE");
    if (batch.found) {
      if (has_sweep)
        throw std::invalid_argument(
            "batch= and sweep= are mutually exclusive — put the swept "
            "configs in the batch file");
      if (MpiRuntime::initialized() && MpiRuntime::size() > 1)
        throw std::invalid_argument(
            "batch= is a single-process ensemble — do not launch it under "
            "mpirun");
      return run_batch(batch, std::move(args));
    }

    if (has_sweep) {
      std::fprintf(stderr, "sweep %s over %zu values\n", sweep.key.c_str(),
                   sweep.values.size());
      run_sweep(args, sweep, std::cout);
      return 0;
    }

    Simulation sim = Simulation::from_args(args);
    if (root) std::printf("%s\n", sim.summary().c_str());

    const int steps = sim.run();
    if (root)
      std::printf("advanced to t = %g in %d steps (%d cells, %d DOF/cell)\n",
                  sim.solver().time(), steps, sim.solver().grid().num_cells(),
                  sim.config().order * sim.config().order *
                      sim.config().order * sim.pde().info().quants);

    if (sim.has_exact_solution()) {
      // Collective under backend=mpi — every rank computes, rank 0 prints.
      const double error = sim.l2_error();
      if (root)
        std::printf("L2 error (quantity %d) = %.6e\n", sim.error_quantity(),
                    error);
    }
    if (root) {
      // Non-empty only when a telemetry output enabled spans: the phase
      // breakdown, overlap efficiency, shard imbalance and FLOP rate table.
      const std::string telemetry = sim.telemetry_summary();
      if (!telemetry.empty()) std::printf("%s", telemetry.c_str());
      report_outputs(sim);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    // A rank failing alone must not strand its peers in a collective:
    // tear the whole launch down (no-op for single-rank and local runs).
    if (MpiRuntime::initialized() && MpiRuntime::size() > 1)
      MpiRuntime::abort(1);
    return 1;
  }
}

// Declarative run description consumed by the Simulation façade.
//
// Everything a workload needs — PDE, scenario, kernel variant, ISA, order,
// grid, boundaries, end time, outputs — in one plain struct, so new
// workloads are a config (or a key=value command line, see
// parse_simulation_args) instead of a recompiled driver.
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "exastp/kernels/stp_common.h"
#include "exastp/mesh/grid.h"
#include "exastp/quadrature/quadrature.h"

namespace exastp {

struct OutputConfig {
  std::string csv;  ///< nodal-values CSV path after the run; empty = none
  std::string vtk;  ///< cell-average VTK path after the run; empty = none

  // Streaming outputs, produced incrementally from the time loop by the
  // observer subsystem (src/io/, built by make_observers in
  // engine/observers.h).
  /// Base path of an interval-spaced VTK snapshot series plus its
  /// .pvd-style index (<base>_NNNN.vtk, <base>.pvd); empty = none.
  std::string series;
  /// Simulation-time spacing of series snapshots; <= 0 = every step.
  double interval = 0.0;
  /// Appending per-step receiver CSV / binary record stream; empty = none.
  std::string receivers_csv;
  std::string receivers_bin;
  /// Quantity indices receivers sample; empty = all evolved quantities.
  std::vector<int> quantities;
};

/// Runtime observability (src/telemetry/, docs/observability.md). All of it
/// is read-only instrumentation: enabling any key changes no simulation
/// bytes, only what gets measured and written beside the run.
struct TelemetryConfig {
  /// Chrome trace-event JSON (Perfetto-loadable) span timeline written
  /// after the run; empty = spans off. Distributed runs write per-rank
  /// `<trace>.r<K>.part` streams merged by rank 0.
  std::string trace;
  /// Per-step metrics stream (CSV, or JSONL when the path ends ".jsonl"),
  /// appended every `metrics_interval` steps; empty = none. Rank 0 writes
  /// `metrics`; other ranks write `<metrics>.r<K>.part`.
  std::string metrics;
  /// Steps between metrics rows; >= 1.
  int metrics_interval = 1;
  /// "stderr" enables the rank-0 progress heartbeat; empty = off.
  std::string progress;
};

struct SimulationConfig {
  std::string scenario = "gaussian";
  /// PDE name (pde_names()); empty picks the scenario's default PDE.
  std::string pde;
  /// Time stepper: "ader" (paper scheme) or "rk4" (baseline).
  std::string stepper = "ader";
  StpVariant variant = StpVariant::kAosoaSplitCk;
  /// "auto" resolves to host_best_isa(); otherwise "scalar"/"avx2"/"avx512".
  std::string isa = "auto";
  int order = 4;
  NodeFamily family = NodeFamily::kGaussLegendre;
  /// Thread count of the stepper hot loops; 0 (or any value < 1) means
  /// "auto" = hardware concurrency. Results are bitwise-identical for
  /// every thread count (see README "Threading").
  int threads = 0;
  /// Domain decomposition: "AxBxC" shard block grid, a total shard count
  /// to factor onto the mesh, or "auto" (factor the resolved thread
  /// count — or the MPI launch size under backend=mpi). Resolved by
  /// resolve_shard_grid; results are bitwise-identical for every
  /// decomposition (see README "Sharding").
  std::string shards = "1";
  /// Halo exchange backend: "inprocess" (every shard in this process, the
  /// default) or "mpi" (one rank per shard, -DEXASTP_WITH_MPI=ON builds
  /// under mpirun; see README "Distributed execution (MPI)"). Results are
  /// bitwise-identical across backends.
  std::string backend = "inprocess";
  /// Over-decomposition: shards per MPI rank. 0 ("auto", the default)
  /// keeps the historical behaviour — one shard per rank under
  /// backend=mpi, and the resolved decomposition unchanged locally. N >= 1
  /// makes shards=auto resolve to ranks * N shards and requires an
  /// explicit shards= total to equal ranks * N; the partition's rank map
  /// then groups N consecutive shards per rank (weighted by measured cost
  /// when a balance table is loaded). Locally (backend=inprocess) N >= 1
  /// simply makes shards=auto resolve to N shards, so one config exercises
  /// the same decomposition with and without MPI. Results are
  /// bitwise-identical for every grouping.
  int shards_per_rank = 0;
  /// Kernel storage precision: kF64 (default) runs the paper's double
  /// kernels; kF32 stores the predictor's DOF/flux/derivative tensors in
  /// float inside the kernel (half the bytes through the memory-bound GEMM
  /// chains) while the kernel boundary, the solver state and every
  /// reduction (stable_dt, norms, energy) stay double. fp32 requires
  /// stepper=ader and a SplitCK-family variant (splitck | aosoa_splitck);
  /// accuracy bounds per order are documented in docs/precision.md.
  Precision precision = Precision::kF64;

  /// Clustered local time stepping (docs/lts.md): "on" bins cells into
  /// powers-of-two rate clusters from their local wave speeds and steps
  /// each cluster at its own dt; "off" (default) is global stepping.
  /// Requires stepper=ader. lts=on with one resulting cluster is
  /// bitwise-identical to lts=off.
  bool lts = false;
  /// Cap on the number of rate clusters: "auto" (0) lets the wave-speed
  /// spread decide, an integer N >= 1 caps the binning at N clusters.
  int lts_clusters = 0;
  /// Path of a measured-cost balance table (mesh/balance_table.h): loaded
  /// before partitioning so shard splits weight cells by measured per-
  /// cluster cost, updated with this run's measurements and saved back.
  /// Empty = substep-count weighting only. Pure performance state: every
  /// decomposition is bitwise-identical.
  std::string balance;

  GridSpec grid;
  double t_end = 0.5;
  double cfl = 0.4;
  OutputConfig output;
  TelemetryConfig telemetry;

  /// Receiver probe positions sampled after every step when non-empty
  /// (the façade builds a ReceiverNetwork observer from them).
  std::vector<std::array<double, 3>> receivers;

  /// Generic scenario parameter passthrough: "scenario.<key>=value" CLI
  /// pairs land here with the "scenario." prefix stripped, and scenario
  /// factories read them (e.g. loh1 materials, planewave wavenumber).
  /// Keys a scenario does not declare (Scenario::param_keys) are rejected
  /// by Simulation::from_config.
  std::map<std::string, std::string> scenario_params;
};

/// Typed accessors for scenario_params: the stored string parsed as a
/// double/int, or `fallback` when the key is absent. Malformed values throw.
double scenario_param(const SimulationConfig& config, const std::string& key,
                      double fallback);
int scenario_param_int(const SimulationConfig& config, const std::string& key,
                       int fallback);

/// What a config key does to the ensemble pool's memoization key.
enum class MemoPolicy {
  kResult,    ///< changes the result: joins the canonical config string
  kArtifact,  ///< names an output file: joins it, suffixed per pool job
  kNeutral,   ///< bitwise-neutral: absent, so it never splits the key
};

/// One accepted config key. config_schema() is the one declaration the
/// parser, accepted_config_keys, simulation_usage, canonical_config_string
/// and the pool's per-job output suffixes iterate.
struct ConfigKey {
  const char* name;   ///< "scenario.*" names the passthrough family
  const char* value;  ///< usage placeholder, e.g. "N"
  const char* help;   ///< usage text
  MemoPolicy policy;
  /// Validates `value` and writes the key's field; throws
  /// std::invalid_argument (the parser prefixes the key). A family
  /// member's parser sees "param=value", its key minus the prefix.
  void (*parse)(SimulationConfig& config, const std::string& value);
  /// Reads the field back as text `parse` accepts.
  std::string (*format)(const SimulationConfig& config);
  const char* alias = nullptr;  ///< a second spelling of the same key
};

/// The config keys in usage order; the scenario comes first because it is
/// applied before the scenario defaults the other keys override.
const std::vector<ConfigKey>& config_schema();

/// Deterministic one-line serialization of the result and artifact keys
/// (maps in key order, doubles round-trip exact): the memoization key of
/// the ensemble service (src/service/simulation_pool.h). Two configs with
/// equal canonical strings produce bitwise-identical results.
std::string canonical_config_string(const SimulationConfig& config);

/// The whole-value integer rule of the integer config keys ("2x" and "1e3"
/// are errors); throws std::invalid_argument naming `key`. Exported for the
/// driver-only keys exastp_run parses itself.
int parse_config_int(const std::string& key, const std::string& value);

/// Resolves config.shards against the grid, thread count and rank count
/// into the effective shard block grid: "AxBxC" is taken literally (each
/// dimension needs at least one cell per shard), a plain total and "auto"
/// (= ranks x shards_per_rank under backend=mpi; otherwise shards_per_rank
/// when given, else the resolved thread count) are factored onto the mesh by
/// Partition::factor — so the effective topology can be smaller than a
/// requested total when the mesh cannot be split that finely; the runner's
/// summary line prints what was actually used.
std::array<int, 3> resolve_shard_grid(const SimulationConfig& config);

/// Applies the scenario's recommended grid/boundaries/end time to `config`
/// (looked up by config.scenario). parse_simulation_args calls this before
/// applying explicit key=value overrides; call it yourself when building a
/// SimulationConfig by hand and you want the scenario defaults.
void apply_scenario_defaults(SimulationConfig& config);

/// Parses "key=value" arguments (the keys of config_schema()) into a
/// config. The scenario is resolved first and its defaults applied, then
/// the remaining pairs override them, so {"scenario=loh1", "cells=8x8x8"}
/// refines the stock LOH1 box. Unknown keys, bad values and duplicates (a
/// name and its alias are one key; a duplicate in a batch line is almost
/// always a typo) throw std::invalid_argument naming the key.
SimulationConfig parse_simulation_args(const std::vector<std::string>& args);

/// One-line-per-key usage text for CLI drivers.
std::string simulation_usage();

/// Every config_schema() name and alias, in usage order. The docs-sync
/// test (tests/test_docs.cpp) cross-checks it against
/// docs/config_reference.md.
std::vector<std::string> accepted_config_keys();

/// The driver-only keys exastp_run peels off before config parsing
/// (sweep=, batch=, jobs=, gallery=). Documented in the same reference;
/// exported separately because parse_simulation_args rejects them.
std::vector<std::string> driver_only_keys();

}  // namespace exastp

#include "exastp/engine/simulation_config.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <sstream>
#include <stdexcept>

#include "exastp/common/check.h"
#include "exastp/common/mpi_runtime.h"
#include "exastp/common/parallel.h"
#include "exastp/engine/scenario_registry.h"
#include "exastp/kernels/registry.h"
#include "exastp/mesh/partition.h"

namespace exastp {
namespace {

/// Splits "a=b" into {a, b}; throws on malformed pairs.
std::pair<std::string, std::string> split_pair(const std::string& arg) {
  const auto eq = arg.find('=');
  EXASTP_CHECK_MSG(eq != std::string::npos && eq > 0,
                   "expected key=value, got \"" + arg + "\"");
  return {arg.substr(0, eq), arg.substr(eq + 1)};
}

/// Splits on any character in `delims`. The ",x" default serves the
/// dimension triples, where both "4x4x4" and "4,4,4" are accepted; keys
/// with their own separators (quantity lists, receiver triples) pass an
/// explicit delimiter so stray 'x's fail loudly.
std::vector<std::string> split_list(const std::string& value,
                                    const char* delims = ",x") {
  std::vector<std::string> parts;
  std::string current;
  for (char c : value) {
    if (std::strchr(delims, c) != nullptr) {
      parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  parts.push_back(current);
  return parts;
}

int parse_int(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const int v = std::stoi(value, &used);
    EXASTP_CHECK_MSG(used == value.size(), key + "=" + value);
    return v;
  } catch (const std::logic_error&) {
    EXASTP_FAIL("expected an integer for " + key + ", got \"" + value + "\"");
  }
}

double parse_double(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    EXASTP_CHECK_MSG(used == value.size(), key + "=" + value);
    return v;
  } catch (const std::logic_error&) {
    EXASTP_FAIL("expected a number for " + key + ", got \"" + value + "\"");
  }
}

std::array<int, 3> parse_cells(const std::string& value) {
  const auto parts = split_list(value);
  if (parts.size() == 1) {
    const int n = parse_int("cells", parts[0]);
    return {n, n, n};
  }
  EXASTP_CHECK_MSG(parts.size() == 3, "cells=" + value);
  return {parse_int("cells", parts[0]), parse_int("cells", parts[1]),
          parse_int("cells", parts[2])};
}

std::array<double, 3> parse_triple(const std::string& key,
                                   const std::string& value) {
  const auto parts = split_list(value);
  if (parts.size() == 1) {
    const double v = parse_double(key, parts[0]);
    return {v, v, v};
  }
  EXASTP_CHECK_MSG(parts.size() == 3, key + "=" + value);
  return {parse_double(key, parts[0]), parse_double(key, parts[1]),
          parse_double(key, parts[2])};
}

BoundaryKind parse_boundary(const std::string& name) {
  if (name == "periodic") return BoundaryKind::kPeriodic;
  if (name == "outflow") return BoundaryKind::kOutflow;
  if (name == "wall") return BoundaryKind::kWall;
  EXASTP_FAIL("unknown boundary kind \"" + name +
              "\" (periodic|outflow|wall)");
}

std::array<BoundaryKind, 3> parse_boundaries(const std::string& value) {
  const auto parts = split_list(value);
  if (parts.size() == 1) {
    const BoundaryKind k = parse_boundary(parts[0]);
    return {k, k, k};
  }
  EXASTP_CHECK_MSG(parts.size() == 3, "bc=" + value);
  return {parse_boundary(parts[0]), parse_boundary(parts[1]),
          parse_boundary(parts[2])};
}

NodeFamily parse_family(const std::string& name) {
  if (name == "gl" || name == "legendre") return NodeFamily::kGaussLegendre;
  if (name == "lobatto") return NodeFamily::kGaussLobatto;
  EXASTP_FAIL("unknown node family \"" + name + "\" (gl|lobatto)");
}

/// "x,y,z;x,y,z;..." -> receiver positions.
std::vector<std::array<double, 3>> parse_receivers(const std::string& value) {
  std::vector<std::array<double, 3>> receivers;
  for (const std::string& triple : split_list(value, ";"))
    receivers.push_back(parse_triple("receivers", triple));
  return receivers;
}

std::vector<int> parse_quantities(const std::string& value) {
  std::vector<int> quantities;
  for (const std::string& part : split_list(value, ","))
    quantities.push_back(parse_int("output.quantities", part));
  return quantities;
}

void apply_pair(SimulationConfig& config, const std::string& key,
                const std::string& value) {
  if (key == "pde") {
    config.pde = value;
  } else if (key == "scenario") {
    config.scenario = value;  // already applied, kept for idempotence
  } else if (key == "stepper") {
    config.stepper = value;
  } else if (key == "variant") {
    config.variant = parse_variant(value);
  } else if (key == "isa") {
    config.isa = value;
  } else if (key == "order") {
    config.order = parse_int(key, value);
  } else if (key == "family") {
    config.family = parse_family(value);
  } else if (key == "threads") {
    config.threads = value == "auto" ? 0 : parse_int(key, value);
  } else if (key == "shards") {
    // Validated against the grid later (resolve_shard_grid); here only the
    // shape is checked so typos fail at parse time.
    if (value != "auto") {
      const auto parts = split_list(value);
      EXASTP_CHECK_MSG(parts.size() == 1 || parts.size() == 3,
                       "shards=" + value + " (AxBxC, a total count, or auto)");
      for (const std::string& part : parts) {
        const int v = parse_int(key, part);
        EXASTP_CHECK_MSG(v >= 1, "shards=" + value +
                                     " needs positive counts");
      }
    }
    config.shards = value;
  } else if (key == "shards_per_rank") {
    if (value == "auto") {
      config.shards_per_rank = 0;
    } else {
      config.shards_per_rank = parse_int(key, value);
      EXASTP_CHECK_MSG(config.shards_per_rank >= 1,
                       "shards_per_rank=" + value + " must be auto or >= 1");
    }
  } else if (key == "backend") {
    EXASTP_CHECK_MSG(value == "inprocess" || value == "mpi",
                     "backend=" + value + " (inprocess|mpi)");
    config.backend = value;
  } else if (key == "schedule") {
    // The dependency scheduler is the only step driver; the key is
    // validated and discarded so configs that name it keep parsing.
    EXASTP_CHECK_MSG(value != "lockstep",
                     "schedule=lockstep: the lockstep schedule was removed; "
                     "the dependency scheduler (schedule=deps) is the only "
                     "step driver");
    EXASTP_CHECK_MSG(value == "deps", "schedule=" + value + " (deps)");
  } else if (key == "precision") {
    config.precision = parse_precision(value);
  } else if (key == "autotune") {
    EXASTP_CHECK_MSG(!value.empty(), "autotune= needs a table path");
    config.autotune = value;
  } else if (key == "lts") {
    EXASTP_CHECK_MSG(value == "on" || value == "off",
                     "lts=" + value + " (on|off)");
    config.lts = value == "on";
  } else if (key == "lts_clusters") {
    if (value == "auto") {
      config.lts_clusters = 0;
    } else {
      config.lts_clusters = parse_int(key, value);
      EXASTP_CHECK_MSG(config.lts_clusters >= 1,
                       "lts_clusters=" + value + " must be auto or >= 1");
    }
  } else if (key == "balance") {
    EXASTP_CHECK_MSG(!value.empty(), "balance= needs a table path");
    config.balance = value;
  } else if (key == "cells") {
    config.grid.cells = parse_cells(value);
  } else if (key == "extent") {
    config.grid.extent = parse_triple(key, value);
  } else if (key == "origin") {
    config.grid.origin = parse_triple(key, value);
  } else if (key == "bc") {
    config.grid.boundary = parse_boundaries(value);
  } else if (key == "t_end") {
    config.t_end = parse_double(key, value);
  } else if (key == "cfl") {
    config.cfl = parse_double(key, value);
  } else if (key == "csv" || key == "output.csv") {
    config.output.csv = value;
  } else if (key == "vtk" || key == "output.vtk") {
    config.output.vtk = value;
  } else if (key == "output.series") {
    config.output.series = value;
  } else if (key == "output.interval") {
    config.output.interval = parse_double(key, value);
  } else if (key == "output.receivers_csv") {
    config.output.receivers_csv = value;
  } else if (key == "output.receivers_bin") {
    config.output.receivers_bin = value;
  } else if (key == "output.quantities") {
    config.output.quantities = parse_quantities(value);
  } else if (key == "receivers") {
    config.receivers = parse_receivers(value);
  } else if (key == "trace") {
    EXASTP_CHECK_MSG(!value.empty(), "trace= needs a path");
    config.telemetry.trace = value;
  } else if (key == "metrics") {
    EXASTP_CHECK_MSG(!value.empty(), "metrics= needs a path");
    config.telemetry.metrics = value;
  } else if (key == "metrics_interval") {
    config.telemetry.metrics_interval = parse_int(key, value);
    EXASTP_CHECK_MSG(config.telemetry.metrics_interval >= 1,
                     "metrics_interval=" + value + " must be >= 1");
  } else if (key == "progress") {
    EXASTP_CHECK_MSG(value == "stderr",
                     "progress=" + value + " (only stderr is supported)");
    config.telemetry.progress = value;
  } else if (key.rfind("scenario.", 0) == 0) {
    const std::string param = key.substr(std::string("scenario.").size());
    EXASTP_CHECK_MSG(!param.empty(), "empty scenario parameter key");
    config.scenario_params[param] = value;
  } else {
    EXASTP_FAIL("unknown config key \"" + key + "\"\n" + simulation_usage());
  }
}

}  // namespace

double scenario_param(const SimulationConfig& config, const std::string& key,
                      double fallback) {
  const auto it = config.scenario_params.find(key);
  if (it == config.scenario_params.end()) return fallback;
  return parse_double("scenario." + key, it->second);
}

int scenario_param_int(const SimulationConfig& config, const std::string& key,
                       int fallback) {
  const auto it = config.scenario_params.find(key);
  if (it == config.scenario_params.end()) return fallback;
  return parse_int("scenario." + key, it->second);
}

namespace {

/// Round-trip-exact double text (%.17g re-reads to the same bits), so the
/// canonical string distinguishes exactly the configs that differ.
std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* boundary_token(BoundaryKind kind) {
  switch (kind) {
    case BoundaryKind::kPeriodic: return "periodic";
    case BoundaryKind::kOutflow: return "outflow";
    case BoundaryKind::kWall: return "wall";
  }
  EXASTP_FAIL("unknown boundary kind");
}

}  // namespace

std::string canonical_config_string(const SimulationConfig& config) {
  std::ostringstream os;
  os << "scenario=" << config.scenario << "|pde=" << config.pde
     << "|stepper=" << config.stepper
     << "|variant=" << variant_name(config.variant) << "|isa=" << config.isa
     << "|order=" << config.order << "|family="
     << (config.family == NodeFamily::kGaussLegendre ? "gl" : "lobatto")
     << "|shards=" << config.shards
     << "|shards_per_rank=" << config.shards_per_rank
     << "|backend=" << config.backend
     << "|precision=" << precision_name(config.precision)
     << "|lts=" << (config.lts ? "on" : "off")
     << "|lts_clusters=" << config.lts_clusters;
  // threads is intentionally absent: results are bitwise-identical for
  // every thread count, so it must not split the memoization key. The
  // autotune table path is absent for the same reason: fused block sizes
  // are bitwise-neutral, so tuned and untuned runs of one config must
  // share a memoization entry. The balance table path is absent for the
  // autotune reason too: cost-weighted shard splits are bitwise-identical
  // to unweighted ones, so balanced and unbalanced runs of one config
  // must share an entry. The lts keys ARE present: a multi-cluster
  // schedule changes the computed bytes. schedule= carries no choice (deps
  // is its only value), so it has no field to serialize.
  // shards_per_rank IS present: under shards=auto it changes the resolved
  // decomposition, which (like shards=) names the run's topology.
  os << "|cells=" << config.grid.cells[0] << "x" << config.grid.cells[1]
     << "x" << config.grid.cells[2];
  os << "|extent=" << exact(config.grid.extent[0]) << ","
     << exact(config.grid.extent[1]) << "," << exact(config.grid.extent[2]);
  os << "|origin=" << exact(config.grid.origin[0]) << ","
     << exact(config.grid.origin[1]) << "," << exact(config.grid.origin[2]);
  os << "|bc=" << boundary_token(config.grid.boundary[0]) << ","
     << boundary_token(config.grid.boundary[1]) << ","
     << boundary_token(config.grid.boundary[2]);
  os << "|t_end=" << exact(config.t_end) << "|cfl=" << exact(config.cfl);
  os << "|csv=" << config.output.csv << "|vtk=" << config.output.vtk
     << "|series=" << config.output.series
     << "|interval=" << exact(config.output.interval)
     << "|receivers_csv=" << config.output.receivers_csv
     << "|receivers_bin=" << config.output.receivers_bin;
  os << "|quantities=";
  for (std::size_t i = 0; i < config.output.quantities.size(); ++i)
    os << (i ? "," : "") << config.output.quantities[i];
  os << "|receivers=";
  for (std::size_t i = 0; i < config.receivers.size(); ++i)
    os << (i ? ";" : "") << exact(config.receivers[i][0]) << ","
       << exact(config.receivers[i][1]) << "," << exact(config.receivers[i][2]);
  // Telemetry file outputs are artifacts like csv=/vtk=, so they split the
  // memoization key (a cached replay writes no files). progress= is absent
  // for the threads/autotune reason: a heartbeat leaves no artifact and
  // must not split the key.
  os << "|trace=" << config.telemetry.trace
     << "|metrics=" << config.telemetry.metrics
     << "|metrics_interval=" << config.telemetry.metrics_interval;
  // std::map iterates in key order, so the passthrough block is canonical.
  for (const auto& [key, value] : config.scenario_params)
    os << "|scenario." << key << "=" << value;
  return os.str();
}

std::array<int, 3> resolve_shard_grid(const SimulationConfig& config) {
  if (config.shards == "auto") {
    // Distributed runs factor shards_per_rank shards per MPI rank (one
    // without the key — the historical rank-per-shard shape); local runs
    // factor shards_per_rank directly when given (so one config exercises
    // the same decomposition with and without MPI), else the thread count.
    const int per_rank = std::max(config.shards_per_rank, 1);
    const int total =
        config.backend == "mpi"
            ? MpiRuntime::size() * per_rank
            : (config.shards_per_rank > 0 ? per_rank
                                          : resolve_threads(config.threads));
    return Partition::factor(total, config.grid.cells);
  }
  const auto parts = split_list(config.shards);
  if (parts.size() == 1)
    return Partition::factor(parse_int("shards", parts[0]),
                             config.grid.cells);
  EXASTP_CHECK_MSG(parts.size() == 3, "shards=" + config.shards);
  const std::array<int, 3> shards{parse_int("shards", parts[0]),
                                  parse_int("shards", parts[1]),
                                  parse_int("shards", parts[2])};
  for (int d = 0; d < 3; ++d)
    EXASTP_CHECK_MSG(shards[d] >= 1 && shards[d] <= config.grid.cells[d],
                     "shards=" + config.shards +
                         " needs at least one cell per shard per dimension");
  return shards;
}

void apply_scenario_defaults(SimulationConfig& config) {
  ScenarioRegistry::instance().find(config.scenario)->configure(config);
}

SimulationConfig parse_simulation_args(const std::vector<std::string>& args) {
  SimulationConfig config;
  // The scenario decides the default grid/boundaries/t_end, so resolve it
  // before the remaining pairs override those defaults. The same pass
  // rejects duplicate keys: silently letting the later pair win would run
  // a config the user did not ask for (batch files are hand-written).
  // Membership is checked against accepted_config_keys() — the same list
  // the config reference documents — so a key accepted by apply_pair but
  // absent from the list cannot slip through undocumented.
  const std::vector<std::string> known = accepted_config_keys();
  std::set<std::string> seen;
  for (const std::string& arg : args) {
    const auto [key, value] = split_pair(arg);
    EXASTP_CHECK_MSG(seen.insert(key).second,
                     "duplicate config key \"" + key + "\"");
    const bool listed =
        key.rfind("scenario.", 0) == 0 ||
        std::find(known.begin(), known.end(), key) != known.end();
    EXASTP_CHECK_MSG(listed, "unknown config key \"" + key + "\"\n" +
                                 simulation_usage());
    if (key == "scenario") config.scenario = value;
  }
  apply_scenario_defaults(config);
  for (const std::string& arg : args) {
    const auto [key, value] = split_pair(arg);
    apply_pair(config, key, value);
  }
  return config;
}

std::vector<std::string> accepted_config_keys() {
  // Keep in usage/reference order. "csv"/"vtk" are the unprefixed aliases
  // of output.csv/output.vtk; "scenario.*" stands for the passthrough
  // family (any key the selected scenario declares).
  return {"scenario",
          "pde",
          "stepper",
          "variant",
          "isa",
          "order",
          "family",
          "precision",
          "threads",
          "shards",
          "shards_per_rank",
          "backend",
          "schedule",
          "autotune",
          "lts",
          "lts_clusters",
          "balance",
          "cells",
          "extent",
          "origin",
          "bc",
          "t_end",
          "cfl",
          "csv",
          "vtk",
          "output.csv",
          "output.vtk",
          "output.series",
          "output.interval",
          "output.receivers_csv",
          "output.receivers_bin",
          "output.quantities",
          "receivers",
          "trace",
          "metrics",
          "metrics_interval",
          "progress",
          "scenario.*"};
}

std::vector<std::string> driver_only_keys() {
  return {"sweep", "batch", "jobs", "gallery"};
}

std::string simulation_usage() {
  return
      "usage: key=value ...\n"
      "  scenario=NAME   initial condition + defaults (see registry; default"
      " gaussian)\n"
      "  pde=NAME        PDE registry key (default: the scenario's PDE)\n"
      "  stepper=KIND    ader | rk4 (default ader)\n"
      "  variant=NAME    generic | log | splitck | aosoa_splitck |"
      " soa_uf_splitck\n"
      "  isa=NAME        auto | scalar | avx2 | avx512 (default auto)\n"
      "  order=N         nodes per dimension (default 4)\n"
      "  family=NAME     gl | lobatto quadrature nodes (default gl)\n"
      "  precision=NAME  fp64 (default) | fp32 kernel storage precision;"
      " fp32 needs\n"
      "                  stepper=ader and variant=splitck|aosoa_splitck"
      " (see docs/precision.md)\n"
      "  threads=N       stepper threads; auto (default) = hardware"
      " concurrency\n"
      "  shards=AxBxC    mesh shard block grid (or a total count to factor,"
      " or auto);\n"
      "                  results are bitwise-identical for every"
      " decomposition\n"
      "  shards_per_rank=N  over-decomposition: auto (default, one shard per"
      " rank under\n"
      "                  backend=mpi) or N >= 1 shards per rank"
      " (bitwise-identical)\n"
      "  backend=KIND    halo exchange: inprocess (default) | mpi"
      " (multi-shard ranks,\n"
      "                  -DEXASTP_WITH_MPI=ON builds under mpirun)\n"
      "  schedule=deps   sharded step schedule; deps (dependency-driven,"
      " pipelined\n"
      "                  halos) is the only value\n"
      "  autotune=PATH   fused-block autotune table: load, measure missing"
      " entries,\n"
      "                  save back (bitwise-neutral; see docs/precision.md)\n"
      "  lts=on|off      clustered local time stepping (default off); bins"
      " cells into\n"
      "                  powers-of-two rate clusters by local wave speed;"
      " needs\n"
      "                  stepper=ader (see docs/lts.md)\n"
      "  lts_clusters=N  cluster cap: auto (default, wave-speed spread"
      " decides) or N >= 1\n"
      "  balance=PATH    measured-cost balance table: weight shard splits by"
      " measured\n"
      "                  per-cluster cost, update with this run, save back"
      " (bitwise-neutral)\n"
      "  cells=AxBxC     mesh cells per dimension (or one int for a cube)\n"
      "  extent=X,Y,Z    domain size (or one number for a cube)\n"
      "  origin=X,Y,Z    domain lower corner\n"
      "  bc=KIND[,KIND,KIND]  periodic | outflow | wall per dimension\n"
      "  t_end=T         end time\n"
      "  cfl=C           CFL factor (default 0.4)\n"
      "  csv=PATH        write nodal values CSV after the run (alias of"
      " output.csv=)\n"
      "  vtk=PATH        write cell-average VTK after the run (alias of"
      " output.vtk=)\n"
      "  receivers=X,Y,Z[;X,Y,Z...]  probe points sampled every step\n"
      "  output.receivers_csv=PATH   stream receiver samples as CSV\n"
      "  output.receivers_bin=PATH   stream receiver samples as a binary"
      " record stream\n"
      "  output.quantities=A,B,...   quantity indices receivers sample"
      " (default: all evolved)\n"
      "  output.series=BASE          incremental VTK snapshot series"
      " (BASE_NNNN.vtk + BASE.pvd)\n"
      "  output.interval=T           series snapshot spacing (default:"
      " every step)\n"
      "  trace=PATH      write a Chrome trace-event JSON span timeline after"
      " the run\n"
      "                  (Perfetto-loadable; see docs/observability.md)\n"
      "  metrics=PATH    stream per-step metrics (CSV, or JSONL for .jsonl"
      " paths)\n"
      "  metrics_interval=N          steps between metrics rows (default 1)\n"
      "  progress=stderr rank-0 progress heartbeat (~1 Hz) on stderr\n"
      "  scenario.KEY=VALUE          scenario parameter passthrough (e.g."
      " scenario.layer_rho for loh1,\n"
      "                              scenario.kx for planewave; see the"
      " scenario's declared keys)\n"
      "  sweep=KEY:V1,V2,...         (exastp_run) run once per value,"
      " streaming a summary CSV\n"
      "                              (any key above sweeps, e.g."
      " sweep=shards:1,2,4)\n"
      "  batch=FILE                  (exastp_run) ensemble mode: run every"
      " line of FILE (one\n"
      "                              key=value config per line, # comments)"
      " as a pool job;\n"
      "                              remaining args are batch-wide defaults\n"
      "  jobs=N                      (exastp_run) concurrent simulations for"
      " batch= (default 1)\n"
      "  gallery=KIND[:PATH]         (exastp_run) batch result sink: csv |"
      " jsonl | bin | dir\n"
      "                              (repeatable; csv/jsonl stream to stdout"
      " without a PATH)\n";
}

}  // namespace exastp

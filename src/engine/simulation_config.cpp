#include "exastp/engine/simulation_config.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string_view>

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

/// Splits on any character in `delims`. Dimension triples split on ",x",
/// so both "4x4x4" and "4,4,4" are accepted; quantity lists and receiver
/// lists use their own separators so stray 'x's fail loudly.
std::vector<std::string> split_list(const std::string& value,
                                    const char* delims) {
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

/// Runs `apply`, prefixing any std::invalid_argument it throws with the
/// offending "key=value", so every config error names its key.
template <class F>
auto naming(const std::string& key, const std::string& value, F&& apply) {
  try {
    return apply();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(key + "=" + value + ": " + e.what());
  }
}

int parse_int(const std::string& value) {
  try {
    std::size_t used = 0;
    const int v = std::stoi(value, &used);
    if (used == value.size()) return v;
  } catch (const std::logic_error&) {
  }
  EXASTP_FAIL("expected an integer, got \"" + value + "\"");
}

/// Finite values only: nan and inf get through std::stod, and as a t_end
/// or cfl they would run zero steps, never end, or fail mid-run.
double parse_double(const std::string& value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    if (used == value.size() && std::isfinite(v)) return v;
  } catch (const std::logic_error&) {
  }
  EXASTP_FAIL("expected a finite number, got \"" + value + "\"");
}

int parse_positive(const std::string& value) {
  const int v = parse_int(value);
  EXASTP_CHECK_MSG(v >= 1, "must be >= 1");
  return v;
}

/// "auto" -> 0, otherwise an integer >= 1.
int parse_auto_count(const std::string& value) {
  return value == "auto" ? 0 : parse_positive(value);
}

std::string format_auto_count(int v) {
  return v == 0 ? "auto" : std::to_string(v);
}

/// `value` when it is one of the '|'-separated `choices`.
const std::string& one_of(const std::string& value, const char* choices) {
  for (const std::string& option : split_list(choices, "|"))
    if (value == option) return value;
  EXASTP_FAIL(std::string("expected ") + choices);
}

const std::string& nonempty_path(const std::string& value) {
  EXASTP_CHECK_MSG(!value.empty(), "needs a path");
  return value;
}

/// `value` split on any of `delims`, each part parsed by `parse_one`.
template <class Parse>
auto parse_list(const std::string& value, const char* delims,
                Parse parse_one) {
  std::vector<decltype(parse_one(value))> out;
  for (const std::string& part : split_list(value, delims))
    out.push_back(parse_one(part));
  return out;
}

/// One value for all three dimensions, or three separated by ',' or 'x'.
template <class Parse>
auto parse_triple(const std::string& value, Parse parse_one) {
  const auto v = parse_list(value, ",x", parse_one);
  EXASTP_CHECK_MSG(v.size() == 1 || v.size() == 3,
                   "expected one value or three");
  return std::array{v[0], v[v.size() / 2], v.back()};
}

std::array<double, 3> parse_xyz(const std::string& value) {
  return parse_triple(value, parse_double);
}

template <class Items, class Format>
std::string join(const Items& items, const char* sep, Format format) {
  std::string out;
  bool first = true;
  for (const auto& item : items) {
    if (!first) out += sep;
    out += format(item);
    first = false;
  }
  return out;
}

/// Round-trip-exact double text (%.17g re-reads to the same bits), so the
/// canonical string distinguishes exactly the configs that differ.
std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string exact3(const std::array<double, 3>& v) {
  return join(v, ",", exact);
}

std::string integer(int v) { return std::to_string(v); }

BoundaryKind parse_boundary(const std::string& name) {
  if (name == "periodic") return BoundaryKind::kPeriodic;
  if (name == "outflow") return BoundaryKind::kOutflow;
  if (name == "wall") return BoundaryKind::kWall;
  EXASTP_FAIL("unknown boundary kind \"" + name +
              "\" (periodic|outflow|wall)");
}

std::string boundary_token(BoundaryKind kind) {
  switch (kind) {
    case BoundaryKind::kPeriodic: return "periodic";
    case BoundaryKind::kOutflow: return "outflow";
    case BoundaryKind::kWall: return "wall";
  }
  EXASTP_FAIL("unknown boundary kind");
}

NodeFamily parse_family(const std::string& name) {
  if (name == "gl" || name == "legendre") return NodeFamily::kGaussLegendre;
  if (name == "lobatto") return NodeFamily::kGaussLobatto;
  EXASTP_FAIL("unknown node family \"" + name + "\" (gl|lobatto)");
}

/// The counts of a shard spec other than "auto": "AxBxC" or one total,
/// each >= 1. The grid-dependent checks wait for resolve_shard_grid.
std::vector<int> shard_counts(const std::string& value) {
  const auto counts = parse_list(value, ",x", parse_positive);
  EXASTP_CHECK_MSG(counts.size() == 1 || counts.size() == 3,
                   "expected AxBxC, a total count, or auto");
  return counts;
}

using Config = SimulationConfig;
using Value = const std::string&;
using enum MemoPolicy;

/// The driver-only keys exastp_run peels off before parse_simulation_args.
struct DriverKey {
  const char* name;
  const char* value;
  const char* help;
};

constexpr DriverKey kDriverKeys[] = {
    {"sweep", "KEY:V1,V2,...", "one run per value, summary CSV"},
    {"batch", "FILE", "run each line of FILE as a pool job"},
    {"jobs", "N", "concurrent batch jobs (default 1)"},
    {"gallery", "KIND[:PATH]", "batch sink: csv|jsonl|bin|dir"},
};

bool is_family(const ConfigKey& key) {
  return std::string_view(key.name).ends_with(".*");
}

/// The schema entry `key` spells (its name, its alias, or a member of a
/// "prefix.*" family), or nullptr.
const ConfigKey* find_key(const std::string& key) {
  for (const ConfigKey& entry : config_schema()) {
    const std::string_view name = entry.name;
    if (key == name || (entry.alias != nullptr && key == entry.alias) ||
        (is_family(entry) && key.starts_with(name.substr(0, name.size() - 1))))
      return &entry;
  }
  return nullptr;
}

/// "  name=VALUE" padded to a common column, then `help`.
std::string usage_line(std::string head, const std::string& help) {
  head.resize(std::max<std::size_t>(head.size() + 1, 28), ' ');
  return "  " + head + help + "\n";
}

}  // namespace

const std::vector<ConfigKey>& config_schema() {
  static const std::vector<ConfigKey> schema = {
      {"scenario", "NAME", "initial condition + defaults (default gaussian)",
       kResult,
       [](Config& c, Value v) {
         find_scenario(v);  // throws with the known names
         c.scenario = v;
       },
       [](const Config& c) { return c.scenario; }},
      {"pde", "NAME", "PDE name (default: the scenario's PDE)", kResult,
       [](Config& c, Value v) {
         if (!v.empty()) find_pde(v);  // throws with the known names
         c.pde = v;
       },
       [](const Config& c) { return c.pde; }},
      {"stepper", "KIND", "ader | rk4 (default ader)", kResult,
       [](Config& c, Value v) { c.stepper = one_of(v, "ader|rk4"); },
       [](const Config& c) { return c.stepper; }},
      {"variant", "NAME", "generic|log|splitck|aosoa_splitck|soa_uf_splitck",
       kResult, [](Config& c, Value v) { c.variant = parse_variant(v); },
       [](const Config& c) { return variant_name(c.variant); }},
      {"isa", "NAME", "auto | scalar | avx2 | avx512 (default auto)", kResult,
       [](Config& c, Value v) {
         c.isa = one_of(v, "auto|scalar|avx2|avx512");
       },
       [](const Config& c) { return c.isa; }},
      {"order", "N", "nodes per dimension (default 4)", kResult,
       [](Config& c, Value v) { c.order = parse_int(v); },
       [](const Config& c) { return integer(c.order); }},
      {"family", "NAME", "gl | lobatto quadrature nodes (default gl)", kResult,
       [](Config& c, Value v) { c.family = parse_family(v); },
       [](const Config& c) {
         return std::string(c.family == NodeFamily::kGaussLobatto ? "lobatto"
                                                                  : "gl");
       }},
      {"precision", "NAME", "fp64 (default) | fp32 (see docs/precision.md)",
       kResult, [](Config& c, Value v) { c.precision = parse_precision(v); },
       [](const Config& c) { return precision_name(c.precision); }},
      {"threads", "N", "stepper threads; auto (default) = all cores", kNeutral,
       [](Config& c, Value v) { c.threads = v == "auto" ? 0 : parse_int(v); },
       [](const Config& c) { return integer(c.threads); }},
      {"shards", "AxBxC", "shard grid, a total count, or auto (default 1)",
       kResult,
       [](Config& c, Value v) {
         if (v != "auto") shard_counts(v);  // the grid checks come later
         c.shards = v;
       },
       [](const Config& c) { return c.shards; }},
      {"shards_per_rank", "N", "shards per rank: auto (default) or N >= 1",
       kResult,
       [](Config& c, Value v) { c.shards_per_rank = parse_auto_count(v); },
       [](const Config& c) { return format_auto_count(c.shards_per_rank); }},
      {"backend", "KIND", "halo exchange: inprocess (default) | mpi", kResult,
       [](Config& c, Value v) { c.backend = one_of(v, "inprocess|mpi"); },
       [](const Config& c) { return c.backend; }},
      // No field: the dependency scheduler is the only step driver. The key
      // stays only because perfbench/run.py passes schedule=deps.
      {"schedule", "deps", "sharded step schedule; deps is the only value",
       kNeutral,
       [](Config&, Value v) {
         EXASTP_CHECK_MSG(v != "lockstep",
                          "the lockstep schedule was removed; the dependency "
                          "scheduler (deps) is the only step driver");
         one_of(v, "deps");
       },
       [](const Config&) { return std::string("deps"); }},
      {"lts", "on|off", "clustered local time stepping (default off)", kResult,
       [](Config& c, Value v) { c.lts = one_of(v, "on|off") == "on"; },
       [](const Config& c) { return std::string(c.lts ? "on" : "off"); }},
      {"lts_clusters", "N", "LTS cluster cap: auto (default) or N >= 1",
       kResult,
       [](Config& c, Value v) { c.lts_clusters = parse_auto_count(v); },
       [](const Config& c) { return format_auto_count(c.lts_clusters); }},
      {"balance", "PATH", "measured-cost shard balance table (load, save)",
       kNeutral, [](Config& c, Value v) { c.balance = nonempty_path(v); },
       [](const Config& c) { return c.balance; }},
      {"cells", "AxBxC", "mesh cells per dimension (or one int: a cube)",
       kResult,
       [](Config& c, Value v) { c.grid.cells = parse_triple(v, parse_int); },
       [](const Config& c) { return join(c.grid.cells, "x", integer); }},
      {"extent", "X,Y,Z", "domain size (or one number for a cube)", kResult,
       [](Config& c, Value v) { c.grid.extent = parse_xyz(v); },
       [](const Config& c) { return exact3(c.grid.extent); }},
      {"origin", "X,Y,Z", "domain lower corner", kResult,
       [](Config& c, Value v) { c.grid.origin = parse_xyz(v); },
       [](const Config& c) { return exact3(c.grid.origin); }},
      {"bc", "KIND[,KIND,KIND]", "periodic | outflow | wall per dimension",
       kResult,
       [](Config& c, Value v) {
         c.grid.boundary = parse_triple(v, parse_boundary);
       },
       [](const Config& c) {
         return join(c.grid.boundary, ",", boundary_token);
       }},
      {"t_end", "T", "end time", kResult,
       [](Config& c, Value v) { c.t_end = parse_double(v); },
       [](const Config& c) { return exact(c.t_end); }},
      {"cfl", "C", "CFL factor > 0 (default 0.4)", kResult,
       [](Config& c, Value v) {
         c.cfl = parse_double(v);
         EXASTP_CHECK_MSG(c.cfl > 0.0, "must be > 0");
       },
       [](const Config& c) { return exact(c.cfl); }},
      {"csv", "PATH", "nodal-values CSV after the run", kArtifact,
       [](Config& c, Value v) { c.output.csv = v; },
       [](const Config& c) { return c.output.csv; }, "output.csv"},
      {"vtk", "PATH", "cell-average VTK after the run", kArtifact,
       [](Config& c, Value v) { c.output.vtk = v; },
       [](const Config& c) { return c.output.vtk; }, "output.vtk"},
      {"receivers", "X,Y,Z[;X,Y,Z...]", "probe points sampled every step",
       kResult,
       [](Config& c, Value v) { c.receivers = parse_list(v, ";", parse_xyz); },
       [](const Config& c) { return join(c.receivers, ";", exact3); }},
      {"output.receivers_csv", "PATH", "stream receiver samples as CSV",
       kArtifact, [](Config& c, Value v) { c.output.receivers_csv = v; },
       [](const Config& c) { return c.output.receivers_csv; }},
      {"output.receivers_bin", "PATH",
       "stream receiver samples as binary records", kArtifact,
       [](Config& c, Value v) { c.output.receivers_bin = v; },
       [](const Config& c) { return c.output.receivers_bin; }},
      {"output.quantities", "A,B,...",
       "quantities receivers sample (default: all)", kResult,
       [](Config& c, Value v) {
         c.output.quantities = parse_list(v, ",", parse_int);
       },
       [](const Config& c) { return join(c.output.quantities, ",", integer); }},
      {"output.series", "BASE", "VTK snapshot series BASE_NNNN.vtk + BASE.pvd",
       kArtifact, [](Config& c, Value v) { c.output.series = v; },
       [](const Config& c) { return c.output.series; }},
      {"output.interval", "T", "series snapshot spacing (default: every step)",
       kResult, [](Config& c, Value v) { c.output.interval = parse_double(v); },
       [](const Config& c) { return exact(c.output.interval); }},
      {"trace", "PATH", "span timeline JSON (see docs/observability.md)",
       kArtifact,
       [](Config& c, Value v) { c.telemetry.trace = nonempty_path(v); },
       [](const Config& c) { return c.telemetry.trace; }},
      {"metrics", "PATH", "per-step metrics stream (CSV, or JSONL: .jsonl)",
       kArtifact,
       [](Config& c, Value v) { c.telemetry.metrics = nonempty_path(v); },
       [](const Config& c) { return c.telemetry.metrics; }},
      {"metrics_interval", "N", "steps between metrics rows (default 1)",
       kResult,
       [](Config& c, Value v) {
         c.telemetry.metrics_interval = parse_positive(v);
       },
       [](const Config& c) { return integer(c.telemetry.metrics_interval); }},
      {"progress", "stderr", "rank-0 progress heartbeat (~1 Hz) on stderr",
       kNeutral,
       [](Config& c, Value v) { c.telemetry.progress = one_of(v, "stderr"); },
       [](const Config& c) { return c.telemetry.progress; }},
      {"scenario.*", "KEY=VALUE", "scenario parameter, e.g. scenario.kx=2",
       kResult,
       [](Config& c, Value v) { c.scenario_params.insert(split_pair(v)); },
       [](const Config& c) {
         return join(c.scenario_params, ";", [](const auto& p) {
           return p.first + "=" + p.second;
         });
       }},
  };
  return schema;
}

int parse_config_int(const std::string& key, const std::string& value) {
  return naming(key, value, [&] { return parse_int(value); });
}

double scenario_param(const SimulationConfig& config, const std::string& key,
                      double fallback) {
  const auto it = config.scenario_params.find(key);
  if (it == config.scenario_params.end()) return fallback;
  return naming("scenario." + key, it->second,
                [&] { return parse_double(it->second); });
}

int scenario_param_int(const SimulationConfig& config, const std::string& key,
                       int fallback) {
  const auto it = config.scenario_params.find(key);
  if (it == config.scenario_params.end()) return fallback;
  return parse_config_int("scenario." + key, it->second);
}

std::string canonical_config_string(const SimulationConfig& config) {
  std::string out;
  for (const ConfigKey& key : config_schema()) {
    if (key.policy == kNeutral) continue;
    if (!out.empty()) out.append("|");
    out.append(key.name).append("=").append(key.format(config));
  }
  return out;
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
  const std::vector<int> counts = shard_counts(config.shards);
  if (counts.size() == 1)
    return Partition::factor(counts[0], config.grid.cells);
  for (int d = 0; d < 3; ++d)
    EXASTP_CHECK_MSG(counts[d] <= config.grid.cells[d],
                     "shard grid " + config.shards +
                         " needs at least one cell per shard per dimension");
  return {counts[0], counts[1], counts[2]};
}

void apply_scenario_defaults(SimulationConfig& config) {
  find_scenario(config.scenario)->configure(config);
}

SimulationConfig parse_simulation_args(const std::vector<std::string>& args) {
  SimulationConfig config;
  const auto apply = [&](const ConfigKey& key, const std::string& name,
                         const std::string& value) {
    // A family member's parser sees "param=value".
    const std::string arg =
        is_family(key) ? name.substr(std::strlen(key.name) - 1) + "=" + value
                       : value;
    naming(name, value, [&] { key.parse(config, arg); });
  };
  // The scenario (the schema's first key) decides the default grid,
  // boundaries and t_end, so it is applied before the other pairs override
  // those defaults.
  for (const std::string& arg : args) {
    const auto [name, value] = split_pair(arg);
    if (find_key(name) == &config_schema().front())
      apply(config_schema().front(), name, value);
  }
  apply_scenario_defaults(config);
  // Duplicates count per key: a name and its alias are one key, each
  // member of the scenario.* family is its own.
  std::map<std::string, std::string> seen;  // key -> spelling given first
  for (const std::string& arg : args) {
    const auto [name, value] = split_pair(arg);
    const ConfigKey* key = find_key(name);
    EXASTP_CHECK_MSG(key != nullptr, "unknown config key \"" + name + "\"\n" +
                                         simulation_usage());
    const auto [it, fresh] =
        seen.emplace(is_family(*key) ? name : key->name, name);
    EXASTP_CHECK_MSG(fresh, "duplicate config key \"" + name + "\"" +
                                (it->second == name
                                     ? ""
                                     : " (also given as \"" + it->second +
                                           "\")"));
    apply(*key, name, value);
  }
  return config;
}

std::vector<std::string> accepted_config_keys() {
  std::vector<std::string> keys;
  for (const ConfigKey& key : config_schema()) {
    keys.push_back(key.name);
    if (key.alias != nullptr) keys.push_back(key.alias);
  }
  return keys;
}

std::vector<std::string> driver_only_keys() {
  std::vector<std::string> keys;
  for (const DriverKey& key : kDriverKeys) keys.push_back(key.name);
  return keys;
}

std::string simulation_usage() {
  std::string out = "usage: key=value ...\n";
  for (const ConfigKey& key : config_schema()) {
    const std::string name = key.name;
    const std::string head = is_family(key)
                                 ? name.substr(0, name.size() - 1) + key.value
                                 : name + "=" + key.value;
    out += usage_line(head, key.alias == nullptr
                                ? key.help
                                : key.help + std::string(" (alias ") +
                                      key.alias + "=)");
  }
  for (const DriverKey& key : kDriverKeys)
    out += usage_line(std::string(key.name) + "=" + key.value,
                      std::string("(exastp_run) ") + key.help);
  return out;
}

}  // namespace exastp

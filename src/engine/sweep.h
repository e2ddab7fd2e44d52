// Parameter sweeps over the config-driven runner: one base config, one
// swept key, one summary CSV row streamed per completed run.
//
// `exastp_run sweep=order:2,3,4 scenario=planewave ...` runs the config
// once per value and streams
//   <key>,steps,t,l2_error,seconds,flops
// rows as each run finishes, so a long sweep can be tailed or consumed
// downstream while later runs are still executing. Per-run file outputs
// (csv/vtk/series/receiver streams) get a "_<value>" suffix so runs do not
// overwrite each other.
//
// run_sweep is a thin wrapper over the ensemble service
// (src/service/simulation_pool.h): each swept value becomes one pool job,
// run sequentially (jobs=1) with stop-on-failure — so sweeps share the
// pool's kernel cache and result memoization (a duplicate value streams
// its row from the cached run) without a second run-many code path.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace exastp {

struct SweepSpec {
  std::string key;                  ///< config key to sweep (e.g. "order")
  std::vector<std::string> values;  ///< one run per value, in order
};

/// Parses the value of a sweep= argument, "key:v1,v2[,...]". Throws on a
/// missing key, missing values or an attempt to sweep "sweep" itself.
SweepSpec parse_sweep_spec(const std::string& value);

/// Splits `args` into plain config args and an optional sweep spec (at most
/// one sweep= pair; a second one throws). Returns the remaining args.
std::vector<std::string> extract_sweep(const std::vector<std::string>& args,
                                       SweepSpec* spec, bool* found);

/// Runs base_args once per spec value (as if "key=value" were appended),
/// streaming one summary CSV row per run to `out` (header first, flushed
/// after every row). Returns the number of completed runs. A run that
/// throws aborts the sweep with the partial CSV intact.
int run_sweep(const std::vector<std::string>& base_args,
              const SweepSpec& spec, std::ostream& out);

}  // namespace exastp

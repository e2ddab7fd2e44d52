// Job specs for the ensemble service: one queued simulation per spec.
//
// A job is a key=value argument list — exactly what exastp_run takes —
// plus bookkeeping the pool assigns: a stable integer id, a display label
// and the output-path suffix that keeps concurrent jobs from writing over
// each other. Batch files (one config per line) parse into specs here:
//
//   # comment lines and blank lines are skipped
//   scenario=planewave order=3 cells=3x3x3 t_end=0.05
//   scenario=gaussian  order=4 t_end=0.1
//
// Tokens are whitespace-separated key=value pairs; there is no quoting —
// values with semicolons (receiver lists) are fine, values with spaces are
// not representable (none of the config keys need them).
#pragma once

#include <string>
#include <vector>

namespace exastp {

struct JobSpec {
  int id = -1;           ///< position in the pool's queue (submit order)
  std::string label;     ///< display label: the batch line or sweep value
  std::vector<std::string> args;  ///< key=value config arguments
  /// Appended to the filename part of every output path the job writes
  /// (the MemoPolicy::kArtifact keys), so jobs in one batch never collide.
  /// The pool defaults it to "_j<id>"; run_sweep passes "_<value>" to keep
  /// the artifact names sweeps have always produced.
  std::string suffix;
};

/// Splits one batch-file line into whitespace-separated tokens. Returns an
/// empty vector for blank and '#'-comment lines. Tokens are validated as
/// key=value shaped by parse_simulation_args later, not here.
std::vector<std::string> split_batch_line(const std::string& line);

/// Parses a batch file (one job per non-comment line) into arg lists, in
/// file order. Throws when the file cannot be opened.
std::vector<std::vector<std::string>> parse_batch_file(
    const std::string& path);

/// "out.csv" + "_j3" -> "out_j3.csv"; extensionless paths (VTK series
/// basenames) get the suffix appended. Only the filename part is
/// inspected. Empty paths stay empty.
std::string with_path_suffix(const std::string& path,
                             const std::string& suffix);

}  // namespace exastp

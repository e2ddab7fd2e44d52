// Measured per-cell step costs for weighted partitioning.
//
// Clustered local time stepping makes per-cell cost heterogeneous: a cell
// in rate cluster k runs 2^(K-1-k) substeps per coarsest (macro) step, so
// splitting shards by cell count no longer equalizes work. The
// BalanceTable stores the measured cost of one cell substep per
// (pde, order, cluster) — relative units, nanoseconds in practice — and
// turns a cluster assignment into per-cell weights for the weighted
// Partition constructor: weight = cost x substeps. A missing entry falls
// back to cost 1, i.e. the pure substep-count model, which is already the
// right first-order answer.
//
// Persistence is a line-oriented text format
//
//     pde order cluster cost
//
// with '#' comments, merged by `merge_text`, persisted by
// `load_file`/`save_file`/`merge_into_file`, wired to the `balance=PATH`
// config key (simulation.cpp: load before partitioning, measure
// per-cluster costs from telemetry after the run, merge them into the file
// — first run measures, later runs just load). The table is pure
// performance state: any weighting produces a valid decomposition
// and every decomposition is bitwise-identical, so balance= is a neutral
// config key.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace exastp {

class BalanceTable {
 public:
  /// Measured cost of one cell substep, or 1.0 when the key is missing.
  double cost(const std::string& pde, int order, int cluster) const;

  bool has(const std::string& pde, int order, int cluster) const;

  void set(const std::string& pde, int order, int cluster, double cost);

  void clear();
  bool empty() const { return table_.empty(); }

  /// Per-global-cell partition weights for a cluster assignment
  /// (`assignment[g]` = rate cluster of global cell g, `num_clusters` = K):
  /// measured-or-default substep cost times the 2^(K-1-k) substep count.
  /// Throws std::invalid_argument when the weights are too large to
  /// partition: their total squared is not finite.
  std::vector<double> cell_weights(const std::string& pde, int order,
                                   const std::vector<int>& assignment,
                                   int num_clusters) const;

  /// One "pde order cluster cost" line per entry, sorted by key.
  std::string serialize() const;
  /// Merges entries parsed from `text` (same format; '#' comments and
  /// blank lines ignored). Throws std::invalid_argument on a malformed
  /// line or a non-positive cost, merging nothing.
  void merge_text(const std::string& text);

  /// Best-effort persistence helpers. load_file returns false when the
  /// file does not exist and prefixes every parse error with the path;
  /// save_file replaces it atomically (a concurrent load sees a whole
  /// table) and throws when the path is unwritable.
  bool load_file(const std::string& path);
  void save_file(const std::string& path) const;
  /// Adds this table's entries to the table stored at `path` (this
  /// table's value wins on a shared key) and saves the result, under the
  /// path's FileLock (atomic_file.h): concurrent pool jobs and other
  /// processes that name one balance= file keep each other's entries.
  void merge_into_file(const std::string& path) const;

 private:
  static std::string key(const std::string& pde, int order, int cluster);

  std::map<std::string, double> table_;
};

}  // namespace exastp

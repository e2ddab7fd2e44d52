#include "exastp/mesh/balance_table.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "exastp/common/atomic_file.h"
#include "exastp/common/check.h"

namespace exastp {
namespace {

struct ParsedLine {
  std::string pde;
  int order = 0;
  int cluster = 0;
  double cost = 0.0;
};

/// Parses the tokens produced by BalanceTable::key/serialize; a line with
/// fewer or more tokens is malformed.
ParsedLine parse_line(const std::string& line) {
  std::istringstream is(line);
  ParsedLine p;
  std::string extra;
  if (!(is >> p.pde >> p.order >> p.cluster >> p.cost) || is >> extra)
    throw std::invalid_argument("malformed balance-table line: " + line);
  if (p.order < 1 || p.cluster < 0 || !(p.cost > 0.0))
    throw std::invalid_argument("invalid balance-table entry: " + line);
  return p;
}

}  // namespace

std::string BalanceTable::key(const std::string& pde, int order,
                              int cluster) {
  return pde + " " + std::to_string(order) + " " + std::to_string(cluster);
}

double BalanceTable::cost(const std::string& pde, int order,
                          int cluster) const {
  const auto it = table_.find(key(pde, order, cluster));
  return it == table_.end() ? 1.0 : it->second;
}

bool BalanceTable::has(const std::string& pde, int order, int cluster) const {
  return table_.count(key(pde, order, cluster)) != 0;
}

void BalanceTable::set(const std::string& pde, int order, int cluster,
                       double cost) {
  EXASTP_CHECK_MSG(cost > 0.0, "balance costs must be positive");
  table_[key(pde, order, cluster)] = cost;
}

void BalanceTable::clear() { table_.clear(); }

std::vector<double> BalanceTable::cell_weights(
    const std::string& pde, int order, const std::vector<int>& assignment,
    int num_clusters) const {
  EXASTP_CHECK_MSG(num_clusters >= 1, "need at least one cluster");
  std::vector<double> weights(assignment.size(), 1.0);
  double total = 0.0;
  for (std::size_t g = 0; g < assignment.size(); ++g) {
    const int k = assignment[g];
    EXASTP_CHECK_MSG(k >= 0 && k < num_clusters,
                     "cluster assignment out of range");
    const double substeps =
        static_cast<double>(1 << (num_clusters - 1 - k));
    weights[g] = cost(pde, order, k) * substeps;
    total += weights[g];
  }
  // Every block weight the partition forms (planes, shards, ranks) is at
  // most this total, and its split squares block weights, so the total's
  // square must stay finite (Partition::weighted_split_sizes).
  EXASTP_CHECK_MSG(std::isfinite(total * total),
                   "balance-table costs overflow: the " + pde + " order " +
                       std::to_string(order) + " cell weights sum to " +
                       std::to_string(total) +
                       ", too large to partition");
  return weights;
}

std::string BalanceTable::serialize() const {
  std::ostringstream os;
  os << "# exastp measured-cost balance table\n"
     << "# pde order cluster cost\n";
  for (const auto& [k, cost] : table_) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", cost);
    os << k << " " << buf << "\n";
  }
  return os.str();
}

void BalanceTable::merge_text(const std::string& text) {
  // Parse every line before merging any, so a malformed text leaves the
  // table as it was.
  std::vector<ParsedLine> parsed;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    parsed.push_back(parse_line(line));
  }
  for (const ParsedLine& p : parsed) set(p.pde, p.order, p.cluster, p.cost);
}

bool BalanceTable::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    merge_text(buf.str());
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
  return true;
}

void BalanceTable::save_file(const std::string& path) const {
  write_file_atomically(path, serialize(), "balance table");
}

void BalanceTable::merge_into_file(const std::string& path) const {
  const FileLock lock(path);
  BalanceTable merged;
  merged.load_file(path);
  for (const auto& [key, cost] : table_) merged.table_[key] = cost;
  merged.save_file(path);
}

}  // namespace exastp

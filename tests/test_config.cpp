// Tests for the declarative config schema (config_schema() in
// src/engine/simulation_config.h), the one table the parser, the usage
// text, the memoization key and the pool's per-job output suffixes read:
//   * the memo-policy property: configs that differ only in one key get
//     different canonical strings when the key is a result or an artifact
//     and equal strings when it is neutral, and every formatter reads back
//     what its parser wrote. A key without sample values fails the test;
//   * the neutral set is {threads, schedule, balance, progress}, and each
//     neutral key leaves the final state bitwise unchanged on a run where
//     it acts (balance= on a multi-cluster sharded LTS run);
//   * a seeded config fuzz over mutations of the perfbench, CI and
//     examples/batches configs: every vector parses and canonicalizes, or
//     throws std::invalid_argument naming one of its keys;
//   * the balance table balance= names is replaced atomically: a reader
//     racing a writer only loads complete tables, and concurrent saves, from
//     threads or processes, keep every job's entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <typeinfo>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "exastp/engine/simulation.h"
#include "exastp/mesh/balance_table.h"

namespace exastp {
namespace {

// ---------------------------------------------------------------------------
// Memo policy: the canonical string keys exactly the result and artifact
// keys.

/// Values per schema key, each different from a default SimulationConfig's
/// and from each other. A family member's parser sees "param=value".
const std::map<std::string, std::vector<std::string>>& samples() {
  static const std::map<std::string, std::vector<std::string>> m = {
      {"scenario", {"planewave", "loh1"}},
      {"pde", {"acoustic", "elastic"}},
      {"stepper", {"rk4"}},
      {"variant", {"generic", "log"}},
      {"isa", {"scalar", "avx2"}},
      {"order", {"3", "5"}},
      {"family", {"lobatto"}},
      {"precision", {"fp32"}},
      {"threads", {"1", "3"}},
      {"shards", {"2x1x1", "auto"}},
      {"shards_per_rank", {"2", "3"}},
      {"backend", {"mpi"}},
      {"schedule", {"deps"}},
      {"lts", {"on"}},
      {"lts_clusters", {"2", "3"}},
      {"balance", {"a.txt", "b.txt"}},
      {"cells", {"2x3x4", "5"}},
      {"extent", {"2,3,4", "7"}},
      {"origin", {"0.5,0,0", "-1"}},
      {"bc", {"wall", "outflow,periodic,wall"}},
      {"t_end", {"0.125", "1e-3"}},
      {"cfl", {"0.3", "0.2"}},
      {"csv", {"a.csv", "b.csv"}},
      {"vtk", {"a.vtk", "b.vtk"}},
      {"receivers", {"0.5,0.5,0.5", "0.1,0.2,0.3;0.4,0.5,0.6"}},
      {"output.receivers_csv", {"r.csv", "s.csv"}},
      {"output.receivers_bin", {"r.bin", "s.bin"}},
      {"output.quantities", {"0,1", "2"}},
      {"output.series", {"snap", "other"}},
      {"output.interval", {"0.25", "0.5"}},
      {"trace", {"t.json", "u.json"}},
      {"metrics", {"m.csv", "m.jsonl"}},
      {"metrics_interval", {"2", "5"}},
      {"progress", {"stderr"}},
      {"scenario.*", {"sigma=0.1", "kx=2"}},
  };
  return m;
}

TEST(ConfigSchema, MemoPolicyDecidesTheCanonicalString) {
  const SimulationConfig base;
  std::set<std::string> names;
  for (const ConfigKey& key : config_schema()) {
    SCOPED_TRACE(key.name);
    names.insert(key.name);
    const auto it = samples().find(key.name);
    ASSERT_TRUE(it != samples().end() && !it->second.empty())
        << "no sample values for schema key " << key.name;
    std::set<std::string> strings{canonical_config_string(base)};
    for (const std::string& value : it->second) {
      SimulationConfig config = base;
      key.parse(config, value);
      strings.insert(canonical_config_string(config));
      // The formatter reads back what the parser wrote; the pool's per-job
      // suffixing relies on that round trip.
      SimulationConfig again = base;
      key.parse(again, key.format(config));
      EXPECT_EQ(key.format(again), key.format(config)) << value;
      EXPECT_EQ(canonical_config_string(again),
                canonical_config_string(config))
          << value;
    }
    const std::size_t distinct =
        key.policy == MemoPolicy::kNeutral ? 1 : 1 + it->second.size();
    EXPECT_EQ(strings.size(), distinct)
        << (key.policy == MemoPolicy::kNeutral
                ? "a neutral key split the canonical string"
                : "a result/artifact key is missing from the canonical "
                  "string");
  }
  for (const auto& [name, values] : samples())
    EXPECT_EQ(names.count(name), 1u) << "sample for unknown key " << name;
}

TEST(ConfigSchema, PolicySetsAreTheDocumentedOnes) {
  std::set<std::string> neutral, artifact;
  for (const ConfigKey& key : config_schema()) {
    if (key.policy == MemoPolicy::kNeutral) neutral.insert(key.name);
    if (key.policy == MemoPolicy::kArtifact) artifact.insert(key.name);
  }
  EXPECT_EQ(neutral, (std::set<std::string>{"balance", "progress",
                                            "schedule", "threads"}));
  // The output files a pool job suffixes.
  EXPECT_EQ(artifact,
            (std::set<std::string>{"csv", "metrics", "output.receivers_bin",
                                   "output.receivers_csv", "output.series",
                                   "trace", "vtk"}));
}

TEST(ConfigSchema, NamesAndAliasesAreUnique) {
  // A repeated spelling would shadow the later entry in the parser.
  const std::vector<std::string> keys = accepted_config_keys();
  EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()).size(),
            keys.size());
}

// ---------------------------------------------------------------------------
// Neutral keys: bitwise-equal final states where each key acts.

/// Largest absolute DOF difference over global cells; 0.0 means
/// bitwise-identical (all test states are finite).
double max_dof_difference(const SolverBase& a, const SolverBase& b) {
  EXPECT_EQ(a.grid().num_cells(), b.grid().num_cells());
  double worst = 0.0;
  for (int c = 0; c < a.grid().num_cells(); ++c)
    for (std::size_t i = 0; i < a.layout().size(); ++i)
      worst = std::max(worst, std::abs(a.cell_dofs(c)[i] - b.cell_dofs(c)[i]));
  return worst;
}

Simulation run_with(std::vector<std::string> args,
                    const std::vector<std::string>& extra) {
  args.insert(args.end(), extra.begin(), extra.end());
  Simulation sim = Simulation::from_args(args);
  sim.run();
  return sim;
}

/// Runs base + a and base + b, which differ only in one neutral key, and
/// expects one memoization key and bitwise-identical final states.
void expect_neutral(const std::vector<std::string>& base,
                    const std::vector<std::string>& a,
                    const std::vector<std::string>& b) {
  Simulation sa = run_with(base, a);
  Simulation sb = run_with(base, b);
  EXPECT_EQ(canonical_config_string(sa.config()),
            canonical_config_string(sb.config()));
  EXPECT_EQ(sa.solver().time(), sb.solver().time());
  EXPECT_EQ(max_dof_difference(sa.solver(), sb.solver()), 0.0);
}

const std::vector<std::string> kPlanewave{
    "scenario=planewave", "order=3", "cells=4x4x2", "t_end=0.05"};

TEST(NeutralKeys, ThreadsScheduleAndProgress) {
  {
    SCOPED_TRACE("threads");
    std::vector<std::string> base = kPlanewave;
    base.push_back("shards=2x1x1");
    expect_neutral(base, {"threads=1"}, {"threads=3"});
  }
  {
    SCOPED_TRACE("schedule");
    std::vector<std::string> base = kPlanewave;
    base.push_back("shards=2x2x1");
    expect_neutral(base, {}, {"schedule=deps"});
  }
  {
    SCOPED_TRACE("progress");
    expect_neutral(kPlanewave, {}, {"progress=stderr"});
  }
}

TEST(NeutralKeys, BalanceTableOnAMultiClusterShardedLtsRun) {
  // The stiff-layer LOH1 schedule of test_lts (two rate clusters), split
  // across the layer: the clusters vary with depth, and the table makes the
  // layer's cluster expensive, so the weighted shard split moves.
  const std::vector<std::string> base{
      "scenario=loh1",         "order=3",
      "cells=6x6x6",           "t_end=0.05",
      "lts=on",                "scenario.layer_cp=1.5",
      "scenario.layer_cs=0.75", "shards=1x1x2",
      "threads=1"};
  const std::string path = "test_config_balance.txt";
  std::ofstream(path) << "elastic 3 0 1\nelastic 3 1 500\n";
  Simulation plain = run_with(base, {});
  Simulation balanced = run_with(base, {"balance=" + path});
  std::remove(path.c_str());
  ASSERT_GT(plain.solver().lts_num_clusters(), 1);
  ASSERT_EQ(plain.solver().num_shards(), 2);
  bool moved = false;
  for (int s = 0; s < 2; ++s)
    moved = moved || plain.solver().shard(s).grid().num_cells() !=
                         balanced.solver().shard(s).grid().num_cells();
  EXPECT_TRUE(moved) << "the balance table did not change the shard split";
  EXPECT_EQ(canonical_config_string(plain.config()),
            canonical_config_string(balanced.config()));
  EXPECT_EQ(plain.solver().time(), balanced.solver().time());
  EXPECT_EQ(max_dof_difference(plain.solver(), balanced.solver()), 0.0);
}

// ---------------------------------------------------------------------------
// Config fuzz.

/// Configs real drivers pass: the perfbench workloads (perfbench/run.py),
/// runs from the CI smoke steps and the examples/batches lines.
std::vector<std::vector<std::string>> fuzz_seeds() {
  const std::vector<std::string> common{
      "variant=aosoa_splitck", "isa=avx512",         "family=gl",
      "schedule=deps",         "backend=inprocess", "stepper=ader",
      "cfl=0.4"};
  const std::vector<std::string> receivers{
      "receivers=4.25,4,3.25;3.5,4.5,2.75;4.5,3.5,2.25",
      "output.quantities=0,1,2"};
  std::vector<std::vector<std::string>> seeds{
      {"scenario=loh1", "pde=elastic", "order=8", "precision=fp64",
       "cells=4x4x4", "shards=1", "threads=1", "t_end=0.3",
       "scenario.source_delay=0.3", "progress=stderr"},
      {"scenario=planewave", "pde=acoustic", "order=4", "precision=fp32",
       "cells=16x16x16", "shards=4x4x4", "threads=1", "t_end=0.025"},
      {"scenario=loh1", "pde=elastic", "order=6", "precision=fp64",
       "cells=8x8x8", "shards=1", "threads=1", "lts=on", "lts_clusters=3",
       "scenario.layer_cp=26", "scenario.layer_cs=15", "t_end=0.0167",
       "scenario.source_delay=0.0167"},
  };
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    seeds[i].insert(seeds[i].end(), common.begin(), common.end());
    if (i != 1) seeds[i].insert(seeds[i].end(), receivers.begin(),
                                receivers.end());
  }
  const std::vector<std::vector<std::string>> ci{
      {"pde=acoustic", "scenario=planewave", "variant=aosoa_splitck",
       "order=5", "cells=3x3x3", "t_end=0.25", "threads=4"},
      {"scenario=planewave", "order=4", "cells=6x6x4", "t_end=0.1",
       "threads=4", "shards=2x2x1"},
      {"scenario=maxwell_cavity", "variant=aosoa_splitck", "order=4",
       "t_end=0.5", "precision=fp32"},
      {"scenario=loh1", "order=4", "cells=6x6x6", "t_end=0.2", "threads=4",
       "shards=2x2x1", "lts=on", "balance=lts_balance.txt",
       "scenario.layer_cp=26", "scenario.layer_cs=15"},
      {"scenario=planewave", "order=4", "cells=8x4x4", "t_end=0.1",
       "threads=4", "shards=auto", "shards_per_rank=4"},
      {"scenario=planewave", "order=4", "cells=3x3x3", "t_end=0.1",
       "threads=4", "receivers=0.5,0.5,0.5;0.25,0.5,0.5",
       "output.receivers_csv=io-out/receivers.csv",
       "output.receivers_bin=io-out/receivers.bin",
       "output.series=io-out/snap", "output.interval=0.02"},
      {"scenario=planewave", "order=4", "cells=6x6x6", "t_end=0.1",
       "threads=4", "shards=2x1x1", "trace=obs-out/trace.json",
       "metrics=obs-out/metrics.csv", "metrics_interval=2",
       "progress=stderr"},
      {"scenario=planewave", "order=4", "cells=8x4x4", "t_end=0.1",
       "threads=1", "backend=mpi", "shards=auto", "shards_per_rank=2"},
      {"scenario=planewave", "order=2", "cells=2", "t_end=0.001",
       "csv=a.csv", "vtk=a.vtk", "stepper=rk4", "family=lobatto",
       "bc=outflow,periodic,wall", "extent=2,1,1", "origin=0,0,0"},
      // examples/batches/ensemble_smoke.txt
      {"scenario=planewave", "order=3", "cells=4x4x4", "t_end=0.1"},
      {"scenario=planewave", "order=4", "cells=4x4x4", "t_end=0.1",
       "stepper=rk4"},
      {"scenario=gaussian", "order=3", "t_end=0.1"},
      {"scenario=maxwell_cavity", "order=3", "t_end=0.1"},
      {"scenario=loh1", "order=3", "cells=4x4x4", "t_end=0.02"},
      {"scenario=does_not_exist", "t_end=0.1"},
  };
  seeds.insert(seeds.end(), ci.begin(), ci.end());
  return seeds;
}

/// Whether the first line of an error message names one of the vector's
/// keys (as `key=` or `"key"`) or is the malformed-pair error.
bool names_a_key(const std::string& what,
                 const std::vector<std::string>& args) {
  const std::string line = what.substr(0, what.find('\n'));
  if (line.find("expected key=value") != std::string::npos) return true;
  for (const std::string& arg : args) {
    const std::string key = arg.substr(0, arg.find('='));
    if (!key.empty() && (line.find(key + "=") != std::string::npos ||
                         line.find("\"" + key + "\"") != std::string::npos))
      return true;
  }
  return false;
}

TEST(ConfigFuzz, EveryVectorParsesOrNamesAKey) {
  const std::vector<std::vector<std::string>> seeds = fuzz_seeds();
  const std::vector<std::string> keys = accepted_config_keys();
  const std::vector<std::string> injected{
      "",        "nan",      "inf",          "-inf",     "-1",
      "0",       "1e999",    "99999999999999999999",    std::string(4096, '9'),
      ",,,",     ";;;",      "x",            "1x2x3x4",  "a=b",
      "=",       "|",        ":",            "auto",     "on",
      "0.5,0.5,0.5;", "\xc3\xa9", "\xff\xfe", "\xe6\x97\xa5\xe6\x9c\xac",
      "deps",    "stderr",   "3",            "2x2x1",    "0.1"};
  std::mt19937 rng(20261017);
  const auto pick = [&](std::size_t n) { return rng() % n; };
  int parsed = 0, rejected = 0;
  for (int v = 0; v < 10000; ++v) {
    std::vector<std::string> args = seeds[pick(seeds.size())];
    for (int m = 0, n = 1 + static_cast<int>(pick(4)); m < n; ++m) {
      const std::size_t i = args.empty() ? 0 : pick(args.size());
      const std::string value = injected[pick(injected.size())];
      switch (pick(7)) {
        case 0:  // drop a pair
          if (!args.empty()) args.erase(args.begin() + i);
          break;
        case 1:  // duplicate a pair
          if (!args.empty()) args.push_back(args[i]);
          break;
        case 2:  // swap two pairs
          if (!args.empty()) std::swap(args[i], args[pick(args.size())]);
          break;
        case 3:  // inject a value
          if (!args.empty())
            args[i] = args[i].substr(0, args[i].find('=')) + "=" + value;
          break;
        case 4:  // add a pair under any accepted key
          args.push_back(keys[pick(keys.size())] + "=" + value);
          break;
        case 5:  // rename a pair's key
          if (!args.empty()) {
            const auto eq = args[i].find('=');
            args[i] = keys[pick(keys.size())] +
                      (eq == std::string::npos ? "" : args[i].substr(eq));
          }
          break;
        default:  // break a pair's shape
          if (!args.empty()) args[i] = pick(2) ? value : "=" + value;
          break;
      }
    }
    try {
      const SimulationConfig config = parse_simulation_args(args);
      EXPECT_FALSE(canonical_config_string(config).empty());
      ++parsed;
    } catch (const std::invalid_argument& e) {
      ++rejected;
      if (!names_a_key(e.what(), args)) {
        std::string joined;
        for (const std::string& arg : args) joined += " [" + arg + "]";
        ADD_FAILURE() << "error names none of the keys of" << joined << ": "
                      << e.what();
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "unexpected " << typeid(e).name() << ": " << e.what();
    }
  }
  // Both outcomes must be exercised for the fuzz to mean anything.
  EXPECT_GT(parsed, 1000);
  EXPECT_GT(rejected, 1000);
}

// ---------------------------------------------------------------------------
// Atomic table writes.

/// A writer alternating two complete tables against a reader loading the
/// same path: every load must see one of the two tables, whole.
template <class Table>
void expect_loads_see_whole_tables(const Table& a, const Table& b,
                                   const std::string& path) {
  a.save_file(path);
  const std::string text_a = a.serialize(), text_b = b.serialize();
  std::atomic<bool> reading{false}, done{false};
  std::thread writer([&] {
    while (!reading.load()) std::this_thread::yield();
    for (int i = 0; i < 400; ++i) (i % 2 ? a : b).save_file(path);
    done.store(true);
  });
  int loads = 0, torn = 0;
  reading.store(true);
  do {
    Table loaded;
    try {
      const bool found = loaded.load_file(path);
      const std::string text = loaded.serialize();
      if (!found || (text != text_a && text != text_b)) ++torn;
    } catch (const std::invalid_argument&) {
      ++torn;  // a half-written line
    }
    ++loads;
  } while (!done.load());
  writer.join();
  std::remove(path.c_str());
  EXPECT_EQ(torn, 0) << torn << " of " << loads
                     << " loads saw a partial or empty table";
}

TEST(TableFiles, ConcurrentLoadsSeeOnlyCompleteBalanceTables) {
  BalanceTable a, b;
  for (int order = 2; order < 102; ++order) {
    a.set("elastic", order, 0, 1.0 + order);
    b.set("acoustic", order, 1, 2.0 * order);
  }
  expect_loads_see_whole_tables(a, b, "test_config_balance_race.txt");
}

// Two pool jobs that name one balance= file, each merging its measured
// entries into it (Simulation::run's post-run save) over and over: the
// read-merge-write is one critical section per path, so the final file
// holds every entry either job wrote. Without it, two jobs finishing
// together keep only the last writer's table.
TEST(TableFiles, ConcurrentBalanceSavesKeepEveryJobsEntries) {
  const std::string path = "test_config_balance_merge.txt";
  std::remove(path.c_str());
  constexpr int kRounds = 20;
  const std::string pdes[] = {"elastic", "acoustic"};
  std::atomic<int> ready{0};
  const auto job = [&](const std::string& pde) {
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    for (int round = 0; round < kRounds; ++round) {
      BalanceTable measured;
      measured.set(pde, 2 + round, 0, 1.0 + round);
      measured.merge_into_file(path);
    }
  };
  std::thread first(job, pdes[0]), second(job, pdes[1]);
  first.join();
  second.join();
  BalanceTable saved;
  ASSERT_TRUE(saved.load_file(path));
  std::remove(path.c_str());
  for (const std::string& pde : pdes)
    for (int round = 0; round < kRounds; ++round)
      EXPECT_TRUE(saved.has(pde, 2 + round, 0))
          << pde << " order " << 2 + round << " lost";
}

constexpr int kEntriesPerProcess = 200;

/// Two processes that share one table file each merge
/// kEntriesPerProcess distinct entries into it, one save at a time (a run
/// per save): `merge(process, entry)`. The FileLock's flock on
/// `<path>.lock` orders their read-merge-writes; without it, a merge that
/// loads before the other process's rename and renames after it drops
/// that entry.
template <class Merge>
void merge_from_two_processes(const std::string& path, Merge merge) {
  std::remove(path.c_str());
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    int status = 0;
    try {
      for (int e = 0; e < kEntriesPerProcess; ++e) merge(1, e);
    } catch (...) {
      status = 1;
    }
    std::_Exit(status);
  }
  for (int e = 0; e < kEntriesPerProcess; ++e) merge(0, e);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

TEST(TableFiles, BalanceMergesFromTwoProcessesKeepEveryEntry) {
  const std::string path = "test_config_balance_processes.txt";
  const std::string pdes[] = {"elastic", "acoustic"};
  merge_from_two_processes(path, [&](int process, int e) {
    BalanceTable measured;
    measured.set(pdes[process], 2 + e, 0, 1.0 + e);
    measured.merge_into_file(path);
  });
  BalanceTable saved;
  ASSERT_TRUE(saved.load_file(path));
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
  int lost = 0;
  for (const std::string& pde : pdes)
    for (int e = 0; e < kEntriesPerProcess; ++e)
      lost += saved.has(pde, 2 + e, 0) ? 0 : 1;
  EXPECT_EQ(lost, 0) << "of " << 2 * kEntriesPerProcess << " entries lost";
}

}  // namespace
}  // namespace exastp

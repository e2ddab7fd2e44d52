// Over-decomposition bench: how much simulated cross-rank wire latency
// the dependency scheduler hides.
//
// The skewed stiff-layer LOH1 LTS workload is split 1x1x8 and rank-mapped
// onto 2 virtual ranks (4 shards per rank). The same solver runs twice
// over the in-process exchange: first with zero latency, then with the
// rank-cut faces given a simulated wire latency calibrated from the
// zero-latency run (one mean exchanging-phase compute time, so a wire of
// this scale would double the step if nothing hid it). The bench requires
// the two final field states to be bitwise-identical and writes a JSON
// record (committed as BENCH_oversub.json; CI archives it).
//
//   bench/bench_overlap --oversub [out.json] [order] [steps] [threads]
//
// --oversub names the bench's one measurement and may be omitted.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "exastp/common/simd.h"
#include "exastp/engine/kernel_cache.h"
#include "exastp/engine/lts_clusters.h"
#include "exastp/engine/pde_registry.h"
#include "exastp/engine/scenario_registry.h"
#include "exastp/engine/simulation_config.h"
#include "exastp/mesh/balance_table.h"
#include "exastp/mesh/partition.h"
#include "exastp/solver/ader_dg_solver.h"
#include "exastp/solver/halo_exchange.h"
#include "exastp/solver/sharded_solver.h"

using namespace exastp;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::uint64_t fnv1a(std::uint64_t h, const unsigned char* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// The over-decomposed stiff-layer solver: LOH1 LTS workload split 1x1x8,
/// shards weighted by the LTS substep costs, rank-mapped onto 2 virtual
/// ranks (4 shards per rank, cost-weighted grouping). `latency_seconds`
/// swaps in an InProcessExchange that delays the rank-cut link deliveries
/// — the same backend with and without latency, so the comparison is fair.
std::unique_ptr<ShardedSolver> make_oversub_solver(
    const SimulationConfig& config,
    const std::shared_ptr<const KernelFactory>& pde,
    const InitialCondition& init, const LtsClustering& clustering,
    const std::vector<double>& weights, double latency_seconds,
    int threads) {
  Partition partition(config.grid, {1, 1, 8}, weights);
  std::vector<double> shard_cost(
      static_cast<std::size_t>(partition.num_shards()), 0.0);
  for (int s = 0; s < partition.num_shards(); ++s) {
    const int owned = partition.subdomain(s).grid.num_cells();
    double cost = 0.0;
    for (int local = 0; local < owned; ++local)
      cost += weights.empty()
                  ? 1.0
                  : weights[static_cast<std::size_t>(
                        partition.global_cell(s, local))];
    shard_cost[static_cast<std::size_t>(s)] = cost;
  }
  partition.assign_ranks(2, shard_cost);

  const Isa isa = host_best_isa();
  const auto make_shard =
      [&](const Grid& grid) -> std::unique_ptr<SolverBase> {
    return std::make_unique<AderDgSolver>(
        pde->runtime(),
        cached_stp_kernel(*pde, config.variant, config.order, isa,
                          config.family),
        grid, config.family);
  };
  auto solver = std::make_unique<ShardedSolver>(std::move(partition),
                                                make_shard, "inprocess");
  solver->set_num_threads(threads);
  solver->set_initial_condition(init);
  solver->enable_lts(clustering.cluster, clustering.num_clusters);
  if (latency_seconds > 0.0)
    solver->set_exchange_backend(std::make_unique<InProcessExchange>(
        solver->partition(), FaceLayout(solver->layout()).size(),
        latency_seconds));
  return solver;
}

struct OversubRun {
  double seconds = 0.0;
  std::uint64_t checksum = 0;
};

/// Times `steps` fixed-dt steps (one untimed warmup first) and hashes the
/// final field state cell by cell.
OversubRun run_oversub(ShardedSolver& solver, int steps) {
  const double dt = solver.plan_step(solver.stable_dt());
  solver.step(dt);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < steps; ++i) solver.step(dt);
  OversubRun out;
  out.seconds = seconds_since(t0);
  const std::size_t bytes = solver.layout().size() * sizeof(double);
  std::uint64_t h = 1469598103934665603ull;
  for (int c = 0; c < solver.grid().num_cells(); ++c)
    h = fnv1a(h, reinterpret_cast<const unsigned char*>(solver.cell_dofs(c)),
              bytes);
  out.checksum = h;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--oversub") {
    ++argv;
    --argc;
  }
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_oversub.json";
  const int order = argc > 2 ? std::atoi(argv[2]) : 4;
  const int steps = argc > 3 ? std::atoi(argv[3]) : 6;
  const int threads = argc > 4 ? std::atoi(argv[4]) : 1;

  const auto scenario = find_scenario("loh1");
  SimulationConfig config = parse_simulation_args(
      {"scenario=loh1", "order=" + std::to_string(order), "cells=8x8x16",
       "lts=on", "scenario.layer_cp=26", "scenario.layer_cs=15"});
  config.pde = scenario->default_pde();
  const auto pde = find_pde(config.pde);
  const InitialCondition init = scenario->initial_condition(pde, config);
  const LtsClustering clustering = compute_lts_clusters(
      config.grid, *pde->runtime(), init, order, config.family, 0);
  const std::vector<double> weights = BalanceTable().cell_weights(
      pde->name(), order, clustering.cluster, clustering.num_clusters);

  std::printf(
      "# oversub bench — loh1 stiff layer (layer_cp=26) ader lts=on "
      "order=%d cells=8x8x16 shards=1x1x8 on 2 virtual ranks "
      "(shards_per_rank=4), %d clusters, steps=%d threads=%d\n",
      order, clustering.num_clusters, steps, threads);

  // The zero-latency run also calibrates the simulated rank-cut wire
  // latency: one mean exchanging-phase compute time (see the file
  // comment).
  auto zero = make_oversub_solver(config, pde, init, clustering, weights,
                                  0.0, threads);
  const int phases = zero->shard(0).num_step_phases();
  const int exchanging_phases = phases / 2;  // odd LTS phases correct+exchange
  const OversubRun a = run_oversub(*zero, steps);
  const double latency_s = a.seconds / steps / exchanging_phases;
  std::printf("# zero latency: %.4f s/step over %d phases -> simulated "
              "cross-rank latency %.1f us\n",
              a.seconds / steps, phases, latency_s * 1e6);

  auto delayed = make_oversub_solver(config, pde, init, clustering, weights,
                                     latency_s, threads);
  const OversubRun b = run_oversub(*delayed, steps);

  // Bitwise equivalence of the full final field state, cell by cell.
  bool bitwise = a.checksum == b.checksum;
  const std::size_t bytes = zero->layout().size() * sizeof(double);
  for (int c = 0; bitwise && c < zero->grid().num_cells(); ++c)
    bitwise =
        std::memcmp(zero->cell_dofs(c), delayed->cell_dofs(c), bytes) == 0;

  std::printf("%14s %12s %10s\n", "zero-latency s", "deps s", "bitwise");
  std::printf("%14.4f %12.4f %10s\n", a.seconds, b.seconds,
              bitwise ? "yes" : "NO");
  if (!bitwise) {
    std::fprintf(stderr,
                 "oversub: latency changed the bits (zero latency "
                 "0x%016llx vs delayed 0x%016llx)\n",
                 static_cast<unsigned long long>(a.checksum),
                 static_cast<unsigned long long>(b.checksum));
    return 1;
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "oversub: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"bench\": \"oversub\",\n"
      "  \"workload\": \"loh1 stiff layer (scenario.layer_cp=26, "
      "scenario.layer_cs=15), ader lts=on\",\n"
      "  \"order\": %d,\n"
      "  \"cells\": \"8x8x16\",\n"
      "  \"shards\": \"1x1x8\",\n"
      "  \"virtual_ranks\": 2,\n"
      "  \"shards_per_rank\": 4,\n"
      "  \"lts_clusters\": %d,\n"
      "  \"step_phases\": %d,\n"
      "  \"steps\": %d,\n"
      "  \"threads\": %d,\n"
      "  \"simulated_cross_rank_latency_us\": %.1f,\n"
      "  \"zero_latency_seconds\": %.4f,\n"
      "  \"deps_seconds\": %.4f,\n"
      "  \"bitwise_identical\": true,\n"
      "  \"state_checksum\": \"0x%016llx\"\n"
      "}\n",
      order, clustering.num_clusters, phases, steps, threads,
      latency_s * 1e6, a.seconds, b.seconds,
      static_cast<unsigned long long>(a.checksum));
  std::fclose(f);
  std::printf("# wrote %s\n", out_path.c_str());
  return 0;
}

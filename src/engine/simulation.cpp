#include "exastp/engine/simulation.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

#include "exastp/common/check.h"
#include "exastp/common/mpi_runtime.h"
#include "exastp/engine/kernel_cache.h"
#include "exastp/engine/lts_clusters.h"
#include "exastp/io/receiver_sinks.h"
#include "exastp/mesh/balance_table.h"
#include "exastp/mesh/partition.h"
#include "exastp/solver/ader_dg_solver.h"
#include "exastp/solver/norms.h"
#include "exastp/solver/output.h"
#include "exastp/solver/rk_dg_solver.h"
#include "exastp/solver/sharded_solver.h"
#include "exastp/telemetry/step_metrics.h"
#include "exastp/telemetry/trace_export.h"

namespace exastp {

Simulation::Simulation(SimulationConfig config, Isa isa,
                       std::shared_ptr<const KernelFactory> pde,
                       std::shared_ptr<const Scenario> scenario,
                       std::unique_ptr<SolverBase> solver)
    : config_(std::move(config)),
      isa_(isa),
      pde_(std::move(pde)),
      scenario_(std::move(scenario)),
      solver_(std::move(solver)) {}

Simulation Simulation::from_config(SimulationConfig config) {
  // The run's registry exists from the first setup step: spans turn on when
  // any telemetry output asked for them, and the scope below routes
  // FlopCounter::instance() to this run for the whole build — so
  // kernel-construction FLOPs land in the job that caused them, not in a
  // process-wide counter shared with concurrent pool jobs.
  const TelemetryConfig& tc = config.telemetry;
  const bool spans_on =
      !tc.trace.empty() || !tc.metrics.empty() || !tc.progress.empty();
  auto telemetry = std::make_shared<TelemetryRegistry>(spans_on);
  TelemetryScope telemetry_scope(telemetry.get());
  const KernelCacheStats cache_before = kernel_cache_stats();

  std::shared_ptr<const Scenario> scenario = find_scenario(config.scenario);
  if (config.pde.empty()) config.pde = scenario->default_pde();
  EXASTP_CHECK_MSG(scenario->compatible_with(config.pde),
                   "scenario \"" + scenario->name() +
                       "\" is not defined for pde \"" + config.pde + "\"");
  std::shared_ptr<const KernelFactory> pde = find_pde(config.pde);

  // Reject scenario.* keys the scenario does not declare, so parameter
  // typos fail loudly instead of silently running the defaults.
  const std::vector<std::string> known_params = scenario->param_keys();
  for (const auto& [key, value] : config.scenario_params) {
    if (std::find(known_params.begin(), known_params.end(), key) !=
        known_params.end())
      continue;
    std::string known;
    for (const std::string& k : known_params)
      known += (known.empty() ? "" : ", ") + k;
    EXASTP_FAIL("scenario \"" + scenario->name() +
                "\" has no parameter \"" + key + "\"" +
                (known.empty() ? " (it declares none)"
                               : " (known: " + known + ")"));
  }

  Isa isa;
  if (config.isa == "auto") {
    isa = host_best_isa();
  } else {
    isa = parse_isa(config.isa);
    EXASTP_CHECK_MSG(host_supports(isa),
                     "host cannot execute isa=" + config.isa);
  }

  // fp32 storage lives inside the ADER predictor kernels; the RK4 baseline
  // has no kernel to narrow. The variant restriction (splitck |
  // aosoa_splitck) is enforced where the kernel is built, with the same
  // wording, so programmatic make_kernel callers get it too.
  EXASTP_CHECK_MSG(
      config.precision == Precision::kF64 || config.stepper == "ader",
      "precision=fp32 requires stepper=ader (rk4 has no fp32 kernel path)");

  // Clustered LTS needs the ADER predictor's Taylor expansion to evaluate
  // neighbours at intermediate times; the RK4 baseline has no equivalent.
  EXASTP_CHECK_MSG(!config.lts || config.stepper == "ader",
                   "lts=on requires stepper=ader (rk4 has no local time "
                   "stepping schedule)");

  // One shard factory serves both paths: a monolithic run is the factory
  // applied to the whole-domain grid, a sharded run applies it to every
  // partitioned view under the ShardedSolver façade. Each ADER shard gets
  // its own kernel instance (per-thread clones are forked per shard).
  const auto make_shard =
      [&](const Grid& grid) -> std::unique_ptr<SolverBase> {
    if (config.stepper == "ader") {
      // Kernels come from the process-wide prototype cache (one build per
      // (pde, variant, order, isa, family), shared across every Simulation
      // in the process — the ensemble pool's jobs in particular); the fork
      // gives this shard an independent workspace.
      return std::make_unique<AderDgSolver>(
          pde->runtime(),
          cached_stp_kernel(*pde, config.variant, config.order, isa,
                            config.family, config.precision),
          grid, config.family);
    }
    if (config.stepper == "rk4") {
      return std::make_unique<RkDgSolver>(pde->runtime(), config.order, isa,
                                          grid, config.family);
    }
    EXASTP_FAIL("unknown stepper \"" + config.stepper + "\" (ader|rk4)");
  };

  const bool distributed = config.backend == "mpi";
  if (distributed) {
    EXASTP_CHECK_MSG(MpiRuntime::compiled_in(),
                     "backend=mpi needs a build with -DEXASTP_WITH_MPI=ON");
    EXASTP_CHECK_MSG(MpiRuntime::initialized(),
                     "backend=mpi needs an MPI launch (mpirun)");
    // Post-hoc whole-field dumps would need every rank's cells in one
    // process; the streaming per-shard series covers distributed runs.
    EXASTP_CHECK_MSG(config.output.csv.empty() && config.output.vtk.empty(),
                     "csv=/vtk= post-hoc outputs are not supported with "
                     "backend=mpi — use output.series");
  }

  // Rate clusters come from the scenario's materials on the *global* grid,
  // so every rank (and the monolithic path) derives the same assignment
  // from the same inputs — no communication needed. The assignment also
  // feeds the weighted partition below: a cluster-k cell runs 2^(K-1-k)
  // substeps per macro step, so equal-cell shards would no longer be
  // equal-work shards. balance= refines the substep-count weights with
  // per-cluster costs measured by a previous run.
  LtsClustering clustering;
  if (config.lts) {
    clustering = compute_lts_clusters(
        config.grid, *pde->runtime(),
        scenario->initial_condition(pde, config), config.order, config.family,
        config.lts_clusters);
  }
  std::vector<double> cell_weights;
  if (config.lts && clustering.num_clusters > 1) {
    BalanceTable balance;
    if (!config.balance.empty()) balance.load_file(config.balance);
    cell_weights = balance.cell_weights(pde->name(), config.order,
                                        clustering.cluster,
                                        clustering.num_clusters);
  }

  const std::array<int, 3> shard_grid = resolve_shard_grid(config);
  const int total_shards = shard_grid[0] * shard_grid[1] * shard_grid[2];
  if (config.shards_per_rank > 0) {
    // An explicit shards_per_rank must be consistent with what actually
    // resolved — Partition::factor can shrink a requested total when the
    // mesh cannot split that finely, and silently running a different
    // over-decomposition than asked would invalidate a bench matrix.
    const int ranks = distributed ? MpiRuntime::size() : 1;
    EXASTP_CHECK_MSG(
        total_shards == ranks * config.shards_per_rank,
        "shards_per_rank=" + std::to_string(config.shards_per_rank) +
            " needs " + std::to_string(ranks * config.shards_per_rank) +
            " shard(s) over " + std::to_string(ranks) +
            " rank(s), but the decomposition resolved to " +
            std::to_string(total_shards) +
            " — the mesh may not split that finely; set shards= explicitly "
            "or lower shards_per_rank=");
  }
  std::unique_ptr<SolverBase> solver;
  {
    ScopedSpan span(SpanId::kSetupSolver);
    if (!distributed && total_shards == 1) {
      solver = make_shard(Grid(config.grid));
    } else {
      // backend=mpi always goes through the sharded composite (even for one
      // shard per rank), so the rank map is validated and every rank
      // drives the same dependency scheduler.
      Partition partition(config.grid, shard_grid, cell_weights);
      if (distributed) {
        // Group shards onto ranks weighted by summed per-cell cost — the
        // balance-table weights when LTS loaded them, plain cell counts
        // otherwise — so a ragged over-decomposition keeps measured work
        // even across ranks, not just shard counts.
        std::vector<double> shard_costs(
            static_cast<std::size_t>(partition.num_shards()), 0.0);
        for (int s = 0; s < partition.num_shards(); ++s) {
          if (cell_weights.empty()) {
            shard_costs[static_cast<std::size_t>(s)] =
                static_cast<double>(partition.subdomain(s).grid.num_cells());
          } else {
            for (int lc = 0; lc < partition.subdomain(s).grid.num_cells();
                 ++lc)
              shard_costs[static_cast<std::size_t>(s)] +=
                  cell_weights[static_cast<std::size_t>(
                      partition.global_cell(s, lc))];
          }
        }
        partition.assign_ranks(MpiRuntime::size(), shard_costs);
      }
      solver = std::make_unique<ShardedSolver>(std::move(partition),
                                               make_shard, config.backend);
    }
  }

  {
    ScopedSpan span(SpanId::kSetupInit);
    solver->set_num_threads(config.threads);
    solver->set_initial_condition(scenario->initial_condition(pde, config));
    for (const MeshPointSource& source : scenario->sources(config))
      solver->add_point_source(source);
    if (config.lts)
      solver->enable_lts(clustering.cluster, clustering.num_clusters);
  }

  Simulation simulation(std::move(config), isa, std::move(pde),
                        std::move(scenario), std::move(solver));
  simulation.shard_grid_ = shard_grid;
  simulation.distributed_ = distributed;
  simulation.telemetry_ = telemetry;
  const KernelCacheStats cache_after = kernel_cache_stats();
  telemetry->add_counter("setup_kernel_cache_hits",
                         static_cast<double>(cache_after.hits -
                                             cache_before.hits));
  telemetry->add_counter("setup_kernel_cache_misses",
                         static_cast<double>(cache_after.misses -
                                             cache_before.misses));
  // Attach the config-declared streaming observers (receivers, VTK series,
  // any registered plugin) in registry name order. Distributed runs build
  // them from a rank-local view of the config: each rank's network holds
  // the receivers its shard owns and streams them to a per-rank part file
  // that rank 0 merges after the run (io/receiver_sinks.h).
  SimulationConfig observer_config = simulation.config_;
  if (distributed && !observer_config.receivers.empty()) {
    const Grid global(observer_config.grid);
    const auto& partition =
        dynamic_cast<const ShardedSolver&>(*simulation.solver_).partition();
    std::vector<std::array<double, 3>> mine;
    for (const std::array<double, 3>& position : observer_config.receivers)
      if (simulation.solver_->shard_is_local(
              partition.owner_of(global.locate(position))))
        mine.push_back(position);

    const OutputConfig& output = observer_config.output;
    if (!output.receivers_csv.empty() || !output.receivers_bin.empty()) {
      ReceiverMergePlan plan;
      plan.positions = observer_config.receivers;
      plan.bin_path = output.receivers_bin;
      plan.csv_path = output.receivers_csv;
      plan.part_base = plan.bin_path.empty() ? plan.csv_path : plan.bin_path;
      const std::string part = plan.part_base + ".r" +
                               std::to_string(simulation.solver_->rank()) +
                               ".part";
      // Drop any part a previous run left at this rank's path — a rank
      // that owns no receivers now opens no sink, and a stale stream
      // must not leak into the merge.
      std::remove(part.c_str());
      observer_config.output.receivers_bin = mine.empty() ? "" : part;
      observer_config.output.receivers_csv.clear();  // merged, not streamed
      simulation.receiver_merge_ = std::move(plan);
    }
    observer_config.receivers = std::move(mine);
  }
  for (std::shared_ptr<Observer>& observer :
       make_observers(observer_config, *simulation.pde_))
    simulation.add_observer(std::move(observer));

  // Telemetry observers attach last, so their rows see the step the other
  // observers already processed. Rank 0 streams to the configured path;
  // other ranks of a distributed run stream beside it (their phase times
  // are their own — unlike receiver records, the rows do not merge).
  // Read the simulation's own config copy: `config` was moved from above.
  const TelemetryConfig& tcs = simulation.config_.telemetry;
  if (!tcs.metrics.empty()) {
    const int rank = simulation.solver_->rank();
    const std::string path =
        rank == 0 ? tcs.metrics
                  : tcs.metrics + ".r" + std::to_string(rank) + ".part";
    simulation.add_observer(std::make_shared<StepMetricsObserver>(
        telemetry.get(), path, tcs.metrics_interval));
  }
  if (tcs.progress == "stderr" && simulation.solver_->rank() == 0)
    simulation.add_observer(std::make_shared<ProgressObserver>());
  return simulation;
}

void Simulation::add_observer(std::shared_ptr<Observer> observer) {
  EXASTP_CHECK_MSG(observer != nullptr, "observer must not be null");
  solver_->add_observer(observer.get());
  if (auto network = std::dynamic_pointer_cast<ReceiverNetwork>(observer);
      network != nullptr && receivers_ == nullptr)
    receivers_ = network;
  observers_.push_back(std::move(observer));
}

Simulation Simulation::from_args(const std::vector<std::string>& args) {
  return from_config(parse_simulation_args(args));
}

int Simulation::run() {
  // Install this run's registry on the driving thread for the whole loop;
  // ParallelFor re-installs it on every worker, and the scope also routes
  // the kernels' FLOP adds to this run's counter.
  TelemetryScope telemetry_scope(telemetry_.get());
  const int steps = solver_->run_until(config_.t_end, config_.cfl);
  // Clustered LTS post-run accounting: the measured per-cluster sweep
  // times become summary gauges, and — when balance= names a table — the
  // per-cell-substep costs they imply are persisted so the *next* run's
  // shard split weights cells by measured work (rank 0 writes; every rank
  // measured only its own shards, but the per-substep cost is a per-cell
  // property that any rank's sample estimates).
  if (config_.lts) {
    const std::vector<SolverBase::LtsClusterStats> stats =
        solver_->lts_cluster_stats();
    telemetry_->set_gauge("lts_clusters", static_cast<double>(stats.size()));
    for (std::size_t k = 0; k < stats.size(); ++k) {
      telemetry_->set_gauge("lts_cluster" + std::to_string(k) + "_cells",
                            static_cast<double>(stats[k].cells));
      telemetry_->set_gauge("lts_cluster" + std::to_string(k) + "_substeps",
                            static_cast<double>(stats[k].cell_substeps));
    }
    if (!config_.balance.empty() && solver_->rank() == 0) {
      BalanceTable measured;
      for (std::size_t k = 0; k < stats.size(); ++k)
        if (stats[k].cell_substeps > 0 && stats[k].ns > 0)
          measured.set(pde_->name(), config_.order, static_cast<int>(k),
                       static_cast<double>(stats[k].ns) /
                           static_cast<double>(stats[k].cell_substeps));
      measured.merge_into_file(config_.balance);
    }
  }
  if (distributed_) {
    MpiRuntime::barrier();  // every rank's streams and pieces are on disk
    if (solver_->rank() == 0 && receiver_merge_.has_value())
      merge_receiver_records(receiver_merge_->part_base, solver_->num_ranks(),
                             receiver_merge_->positions,
                             receiver_merge_->bin_path,
                             receiver_merge_->csv_path);
    MpiRuntime::barrier();  // merged artifacts visible to every rank
  }
  if (!config_.telemetry.trace.empty()) {
    if (distributed_) {
      // Trace parts mirror the receiver streams: every rank writes its
      // own, rank 0 merges once all parts are on disk.
      write_chrome_trace_part(*telemetry_, config_.telemetry.trace,
                              solver_->rank());
      MpiRuntime::barrier();
      if (solver_->rank() == 0)
        merge_chrome_trace_parts(config_.telemetry.trace,
                                 solver_->num_ranks());
      MpiRuntime::barrier();
    } else {
      write_chrome_trace(*telemetry_, config_.telemetry.trace);
    }
  }
  if (!config_.output.csv.empty()) write_csv(*solver_, config_.output.csv);
  if (!config_.output.vtk.empty()) {
    // Same quantity selection as the streaming VTK series: explicit
    // output.quantities, or the evolved quantities capped to keep the
    // file small.
    std::vector<int> quantities = output_quantities(config_, *pde_);
    if (config_.output.quantities.empty() && quantities.size() > 4)
      quantities.resize(4);
    write_vtk_cell_averages(*solver_, quantities,
                            default_quantity_names(quantities),
                            config_.output.vtk);
  }
  return steps;
}

double Simulation::l2_error() const {
  const int quantity = error_quantity();
  EXASTP_CHECK_MSG(quantity >= 0,
                   "scenario \"" + scenario_->name() +
                       "\" has no exact solution for pde \"" + pde_->name() +
                       "\"");
  const ExactSolution exact = scenario_->exact_solution(*pde_, config_);
  if (solver_->num_ranks() > 1) {
    // Collective: each rank sums its resident shards (in shard order) and
    // the per-rank partials combine in rank order — deterministic, with
    // the per-shard association replacing the monolithic cell-order sum.
    double local = 0.0;
    for (int s = 0; s < solver_->num_shards(); ++s)
      if (solver_->shard_is_local(s))
        local += l2_error_squared(solver_->shard(s), quantity, exact);
    return std::sqrt(MpiRuntime::ordered_sum_across_ranks(local));
  }
  return exastp::l2_error(*solver_, quantity, exact);
}

std::string Simulation::telemetry_summary() const {
  return telemetry_summary_table(*telemetry_);
}

std::string Simulation::summary() const {
  const PdeInfo info = pde_->info();
  const auto& cells = config_.grid.cells;
  // Effective topology: the shard block grid actually built plus the
  // owned-cell range per shard (a single number unless the split is
  // ragged). The Partition knows every shard's size, so this works on any
  // rank of a distributed run.
  const auto* sharded = dynamic_cast<const ShardedSolver*>(solver_.get());
  int min_cells, max_cells;
  if (sharded != nullptr) {
    min_cells = sharded->partition().min_cells_per_shard();
    max_cells = sharded->partition().max_cells_per_shard();
  } else {
    min_cells = max_cells = solver_->grid().num_cells();
  }
  std::ostringstream os;
  os << "pde=" << pde_->name() << " (m=" << info.quants << ")"
     << " scenario=" << scenario_->name()
     << " stepper=" << solver_->stepper_name()
     << " variant=" << variant_name(config_.variant)
     << " isa=" << isa_name(isa_) << " order=" << config_.order
     << " precision=" << precision_name(config_.precision)
     << " shards=" << shard_grid_[0] << "x" << shard_grid_[1] << "x"
     << shard_grid_[2] << " threads=" << solver_->num_threads() << " cells="
     << cells[0] << "x" << cells[1] << "x" << cells[2] << " cells/shard=";
  if (min_cells == max_cells) {
    os << max_cells;
  } else {
    os << min_cells << "-" << max_cells;
  }
  if (distributed_) {
    os << " backend=mpi rank=" << solver_->rank() << "/"
       << solver_->num_ranks();
    if (sharded != nullptr &&
        sharded->num_shards() != solver_->num_ranks()) {
      // Over-decomposed: the per-rank shard group sizes (one number
      // unless the rank grouping is ragged).
      const Partition& partition = sharded->partition();
      int min_group = partition.num_shards(), max_group = 0;
      for (int r = 0; r < partition.num_ranks(); ++r) {
        const int size =
            static_cast<int>(partition.shards_of_rank(r).size());
        min_group = std::min(min_group, size);
        max_group = std::max(max_group, size);
      }
      os << " shards/rank=";
      if (min_group == max_group) {
        os << max_group;
      } else {
        os << min_group << "-" << max_group;
      }
    }
  }
  if (config_.lts) os << " lts_clusters=" << solver_->lts_num_clusters();
  os << " t_end=" << config_.t_end;
  return os.str();
}

}  // namespace exastp

// One measured exastp run per process, for perfbench/run.py.
//
//   exastp_perfbench setup [key=value ...]
//       Simulation::from_config only: the set-up cost of a fresh process.
//   exastp_perfbench run [--kernel] [key=value ...]
//       from_config + run() to t_end with a step-clock observer attached.
//       Every timed interval (set-up, each step) lies between two runs of
//       a fixed speed probe, whose times are reported next to it.
//       When the config turns spans on (progress=/metrics=/trace=), the
//       span aggregates, shard times and named counters of the run's
//       telemetry registry are reported as well. --kernel additionally
//       times StpKernel::run of the run's own (pde, variant, order, isa,
//       precision) kernel over a round-robin batch of the final cell
//       states.
//   exastp_perfbench peak
//       The machine's FMA peak (GFLOP/s) of the best ISA it supports.
//
// Every invocation prints exactly one JSON object on stdout. Failures
// (config errors, a non-finite blow-up) print {"error": "..."} and exit 1.
// The process is the unit of measurement: the kernel prototype cache and
// the peak RSS are process-wide, so a second from_config in one process
// would measure a cache hit.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exastp/engine/simulation.h"
#include "exastp/perf/flop_count.h"
#include "exastp/perf/peak.h"
#include "exastp/solver/sharded_solver.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Minimal JSON object writer: keys in insertion order, numbers printed
/// round-trip exactly; non-finite numbers as the NaN/Infinity literals
/// Python's json module reads.
class Json {
 public:
  void num(const std::string& key, double value) {
    char buf[64];
    if (std::isnan(value))
      std::snprintf(buf, sizeof buf, "NaN");
    else if (std::isinf(value))
      std::snprintf(buf, sizeof buf, value > 0 ? "Infinity" : "-Infinity");
    else
      std::snprintf(buf, sizeof buf, "%.17g", value);
    field(key, buf);
  }
  void str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n' || c == '\t') ? ' ' : c;
    }
    field(key, quoted + "\"");
  }
  void list(const std::string& key, const std::vector<double>& values) {
    std::string out = "[";
    char buf[64];
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", values[i]);
      out += buf;
    }
    field(key, out + "]");
  }
  void object(const std::string& key, const Json& inner) {
    field(key, inner.text());
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + value;
  }
  std::string body_;
};

/// Wall time (ms) of a fixed compute loop owned by the benchmark: 240
/// rounds of a 48x48 by 48x16 fp64 matrix product kept in L1, about 2 ms
/// on an uncontended core. It shares no code with exastp, so a change to
/// the program cannot move it; a shared host that slows the core (other
/// tenants on the same physical core, clock changes) slows it about as
/// much as the solver (README.md has the numbers). run.py divides every
/// measured interval by the speed-probe times taken right before and
/// after it.
double speed_probe_ms() {
  constexpr int n = 48, m = 16, rounds = 240;
  alignas(64) static double a[n * n], b[n * m], c[n * m];
  for (int i = 0; i < n * n; ++i) a[i] = 1e-3 * (i % 7);
  for (int i = 0; i < n * m; ++i) b[i] = 1.0 - 1e-3 * (i % 5);
  for (int i = 0; i < n * m; ++i) c[i] = 0.0;
  const Clock::time_point t0 = Clock::now();
  for (int r = 0; r < rounds; ++r)
    for (int i = 0; i < n; ++i)
      for (int k = 0; k < n; ++k) {
        const double aik = a[i * n + k];
        for (int j = 0; j < m; ++j)
          c[i * m + j] = 0.5 * c[i * m + j] + aik * b[k * m + j];
      }
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  // Keep the loop observable so the compiler cannot drop it.
  static volatile double sink;
  sink = c[n * m - 1];
  return ms;
}

/// Wall time between consecutive time-loop hooks: one entry per step,
/// covering stable_dt, the step itself and the observers before this one.
/// A speed probe runs at the start and after every step, outside the
/// timed intervals: probe_ms has one entry more than step_ms, and step i
/// lies between probes i and i + 1.
class StepClock final : public exastp::Observer {
 public:
  void on_start(const exastp::SolverBase&) override {
    probe_ms_.push_back(speed_probe_ms());
    last_ = Clock::now();
  }
  void on_step(const exastp::SolverBase&, int) override {
    const Clock::time_point now = Clock::now();
    step_ms_.push_back(
        std::chrono::duration<double, std::milli>(now - last_).count());
    probe_ms_.push_back(speed_probe_ms());
    last_ = Clock::now();
  }
  const std::vector<double>& step_ms() const { return step_ms_; }
  const std::vector<double>& probe_ms() const { return probe_ms_; }

 private:
  Clock::time_point last_{};
  std::vector<double> step_ms_;
  std::vector<double> probe_ms_;
};

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Halo bytes one step moves, from the partition's halo plans: every
/// phase posts each of its halo fields once, and a field carries one cell
/// tensor per source cell of every plan. Zero for monolithic solvers.
double halo_bytes_per_step(const exastp::SolverBase& solver) {
  const auto* sharded = dynamic_cast<const exastp::ShardedSolver*>(&solver);
  if (sharded == nullptr) return 0.0;
  std::size_t cells_per_field = 0;
  const exastp::Partition& partition = sharded->partition();
  for (int s = 0; s < partition.num_shards(); ++s)
    for (const exastp::HaloPlan& plan : partition.subdomain(s).halos)
      cells_per_field += plan.src_cells.size();
  // The phase -> halo-field map is the same for every shard; ask shard 0.
  // step_phase_halo_fields is non-const only because it hands out mutable
  // buffer pointers — nothing is written through them here.
  auto& shard = const_cast<exastp::SolverBase&>(sharded->shard(0));
  std::size_t fields = 0;
  for (int p = 0; p < shard.num_step_phases(); ++p)
    fields += shard.step_phase_halo_fields(p).size();
  return static_cast<double>(fields * cells_per_field *
                             solver.layout().size() * sizeof(double));
}

Json span_report(const exastp::TelemetryRegistry& registry,
                 const exastp::SolverBase& solver) {
  Json spans;
  for (int i = 0; i < exastp::kNumSpanIds; ++i) {
    const auto id = static_cast<exastp::SpanId>(i);
    const exastp::SpanAggregate agg = registry.aggregate(id);
    spans.num(std::string(exastp::span_name(id)) + "_s",
              static_cast<double>(agg.total_ns) * 1e-9);
    spans.num(std::string(exastp::span_name(id)) + "_count",
              static_cast<double>(agg.count));
  }
  // Imbalance over the shards that recorded sweep time (max / mean).
  double max_ns = 0.0, sum_ns = 0.0;
  int shards = 0;
  for (int s = 0; s < solver.num_shards() && s < exastp::kMaxShardTracks;
       ++s) {
    const double ns = static_cast<double>(registry.shard_ns(s));
    if (ns <= 0.0) continue;
    max_ns = std::max(max_ns, ns);
    sum_ns += ns;
    ++shards;
  }
  spans.num("shard_imbalance", shards > 0 ? max_ns / (sum_ns / shards) : 0.0);
  return spans;
}

Json kernel_report(exastp::Simulation& sim) {
  const exastp::SimulationConfig& config = sim.config();
  exastp::SolverBase& solver = sim.solver();
  exastp::StpKernel kernel = sim.pde().make_kernel(
      config.variant, config.order, sim.isa(), config.family,
      config.precision);
  const exastp::AosLayout& layout = kernel.layout();
  if (layout.size() != solver.layout().size())
    throw std::runtime_error("kernel and solver layouts differ");

  // A round-robin batch of the run's final cell states spread over the
  // mesh, so kernel inputs do not stay cache-resident between calls.
  const int num_cells = solver.grid().num_cells();
  const int batch = std::min(num_cells, 64);
  std::vector<exastp::AlignedVector> cells;
  for (int i = 0; i < batch; ++i) {
    const double* q = solver.cell_dofs(
        static_cast<int>(static_cast<long>(i) * num_cells / batch));
    cells.emplace_back(q, q + layout.size());
  }
  exastp::AlignedVector qavg(layout.size()), f0(layout.size()),
      f1(layout.size()), f2(layout.size());
  const exastp::StpOutputs out{qavg.data(), {f0.data(), f1.data(), f2.data()}};
  const std::array<double, 3> inv_dx = solver.grid().inv_dx();
  const double dt = solver.stable_dt(config.cfl);

  exastp::FlopSection section;
  kernel.run(cells[0].data(), dt, inv_dx, nullptr, out);
  const double flops_per_call = static_cast<double>(section.delta().total());

  // Calls in blocks of one batch until ~0.3 s have been timed.
  long calls = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  while (elapsed < 0.3) {
    for (const exastp::AlignedVector& q : cells)
      kernel.run(q.data(), dt, inv_dx, nullptr, out);
    calls += batch;
    elapsed = seconds_since(t0);
  }
  const double gflops = flops_per_call * calls / elapsed * 1e-9;

  Json k;
  k.num("us_per_call", elapsed / calls * 1e6);
  k.num("flops_per_call", flops_per_call);
  k.num("gflops", gflops);
  k.num("workspace_bytes", static_cast<double>(kernel.workspace_bytes()));
  return k;
}

int run_mode(bool with_kernel, const std::vector<std::string>& args) {
  const exastp::SimulationConfig config =
      exastp::parse_simulation_args(args);
  const double setup_probe_before = speed_probe_ms();
  Clock::time_point t0 = Clock::now();
  exastp::Simulation sim = exastp::Simulation::from_config(config);
  const double setup_s = seconds_since(t0);
  const std::vector<double> setup_probe_ms = {setup_probe_before,
                                              speed_probe_ms()};

  auto step_clock = std::make_shared<StepClock>();
  sim.add_observer(step_clock);
  exastp::SolverBase& solver = sim.solver();
  const std::uint64_t flops_before = sim.telemetry().flops().total();
  t0 = Clock::now();
  const int steps = sim.run();
  const double run_s = seconds_since(t0);
  const double flops =
      static_cast<double>(sim.telemetry().flops().total() - flops_before);

  Json out;
  out.num("setup_s", setup_s);
  out.list("setup_probe_ms", setup_probe_ms);
  out.num("run_s", run_s);
  out.num("steps", steps);
  out.num("peak_rss_mib", peak_rss_mib());
  const int n = solver.order();
  out.num("dofs_per_cell",
          static_cast<double>(n) * n * n * solver.evolved_quantities());
  out.num("l2_error", sim.has_exact_solution() ? sim.l2_error() : -1.0);
  out.num("flops", flops);
  out.num("halo_bytes_per_step", halo_bytes_per_step(solver));

  // Executed cell-substeps: cells x steps under global stepping, the
  // per-cluster sums under LTS.
  const auto lts = solver.lts_cluster_stats();
  double cell_substeps = 0.0;
  std::vector<double> cluster_s;
  for (const auto& c : lts) {
    cell_substeps += static_cast<double>(c.cell_substeps);
    cluster_s.push_back(static_cast<double>(c.ns) * 1e-9);
  }
  if (lts.empty())
    cell_substeps = static_cast<double>(solver.grid().num_cells()) * steps;
  out.num("cell_substeps", cell_substeps);
  out.list("lts_cluster_s", cluster_s);

  Json counters;
  for (const auto& [name, value] : sim.telemetry().named_values())
    counters.num(name, value);
  out.object("counters", counters);
  if (sim.telemetry().spans_enabled())
    out.object("spans", span_report(sim.telemetry(), solver));
  if (with_kernel) out.object("kernel", kernel_report(sim));
  out.list("step_ms", step_clock->step_ms());
  out.list("probe_ms", step_clock->probe_ms());
  std::printf("%s\n", out.text().c_str());
  return 0;
}

int setup_mode(const std::vector<std::string>& args) {
  const exastp::SimulationConfig config =
      exastp::parse_simulation_args(args);
  const double probe_before = speed_probe_ms();
  const Clock::time_point t0 = Clock::now();
  exastp::Simulation sim = exastp::Simulation::from_config(config);
  const double setup_s = seconds_since(t0);
  Json out;
  out.num("setup_s", setup_s);
  out.list("setup_probe_ms", {probe_before, speed_probe_ms()});
  out.num("peak_rss_mib", peak_rss_mib());
  out.str("isa", exastp::isa_name(sim.isa()));
  out.str("compiler", PERFBENCH_COMPILER);
  out.str("cxx_flags", PERFBENCH_CXX_FLAGS);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.empty() ||
        (args[0] != "setup" && args[0] != "run" && args[0] != "peak"))
      throw std::invalid_argument(
          "usage: exastp_perfbench setup|run [--kernel] [key=value ...] | "
          "peak");
    const std::string mode = args[0];
    args.erase(args.begin());
    if (mode == "peak") {
      Json out;
      out.num("peak_gflops", exastp::available_peak_gflops());
      std::printf("%s\n", out.text().c_str());
      return 0;
    }
    if (mode == "setup") return setup_mode(args);
    const bool with_kernel = !args.empty() && args[0] == "--kernel";
    if (with_kernel) args.erase(args.begin());
    return run_mode(with_kernel, args);
  } catch (const std::exception& e) {
    Json out;
    out.str("error", e.what());
    std::printf("%s\n", out.text().c_str());
    return 1;
  }
}

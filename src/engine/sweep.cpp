#include "exastp/engine/sweep.h"

#include <cmath>
#include <ostream>
#include <stdexcept>

#include "exastp/common/check.h"
#include "exastp/service/result_gallery.h"
#include "exastp/service/simulation_pool.h"

namespace exastp {
namespace {

/// The sweep's historical summary format, as a gallery: one
/// "<value>,steps,t,l2_error,seconds,flops" row per completed run, header
/// first, flushed per row (long sweeps can be tailed). Failed/skipped jobs stream
/// no row — run_sweep turns the failure into the throw it has always been.
class SweepSummaryGallery final : public ResultGallery {
 public:
  SweepSummaryGallery(std::string key, std::ostream& out)
      : key_(std::move(key)), out_(out) {}

  void open() override {
    out_ << key_ << ",steps,t,l2_error,seconds,flops\n" << std::flush;
  }

  void add(const JobResult& r) override {
    if (r.status != JobStatus::kDone) return;
    out_ << r.label << "," << r.steps << "," << r.t << ",";
    // "nan" keeps the column numerically parseable when the scenario has
    // no exact solution.
    if (std::isnan(r.l2_error)) {
      out_ << "nan";
    } else {
      out_ << r.l2_error;
    }
    out_ << "," << r.seconds << "," << r.flops << "\n" << std::flush;
  }

  void finish() override {}

 private:
  std::string key_;
  std::ostream& out_;
};

}  // namespace

SweepSpec parse_sweep_spec(const std::string& value) {
  const auto colon = value.find(':');
  EXASTP_CHECK_MSG(colon != std::string::npos && colon > 0,
                   "expected sweep=key:v1,v2,..., got sweep=" + value);
  SweepSpec spec;
  spec.key = value.substr(0, colon);
  EXASTP_CHECK_MSG(spec.key != "sweep", "cannot sweep the sweep key");
  std::string current;
  for (char c : value.substr(colon + 1)) {
    if (c == ',') {
      spec.values.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  spec.values.push_back(current);
  for (const std::string& v : spec.values)
    EXASTP_CHECK_MSG(!v.empty(), "empty value in sweep=" + value);
  return spec;
}

std::vector<std::string> extract_sweep(const std::vector<std::string>& args,
                                       SweepSpec* spec, bool* found) {
  *found = false;
  std::vector<std::string> rest;
  for (const std::string& arg : args) {
    if (arg.rfind("sweep=", 0) == 0) {
      EXASTP_CHECK_MSG(!*found, "only one sweep= argument is supported");
      *spec = parse_sweep_spec(arg.substr(6));
      *found = true;
    } else {
      rest.push_back(arg);
    }
  }
  return rest;
}

int run_sweep(const std::vector<std::string>& base_args,
              const SweepSpec& spec, std::ostream& out) {
  EXASTP_CHECK_MSG(!spec.values.empty(), "sweep needs at least one value");
  // A sweep is the ensemble pool with one job per swept value: sequential
  // (jobs=1, so rows stream in value order as each run finishes) and
  // aborting at the first failure, exactly the semantics the sweep always
  // had — there is no second run-many code path.
  PoolOptions options;
  options.jobs = 1;
  options.stop_on_failure = true;
  // The swept key is appended per job; a base arg already naming it would
  // be a duplicate-key error, so drop it (the swept value wins, as before).
  for (const std::string& arg : base_args)
    if (arg.rfind(spec.key + "=", 0) != 0) options.base_args.push_back(arg);

  SimulationPool pool(std::move(options));
  for (const std::string& value : spec.values)
    pool.submit({spec.key + "=" + value}, value, "_" + value);

  SweepSummaryGallery gallery(spec.key, out);
  const std::vector<JobResult> results = pool.run({&gallery});
  int runs = 0;
  for (const JobResult& r : results) {
    // Rows up to the failure are already streamed (partial CSV intact);
    // re-raise the captured error as the abort the sweep contract promises.
    if (r.status == JobStatus::kFailed)
      throw std::runtime_error("sweep " + spec.key + "=" + r.label +
                               " failed: " + r.error);
    if (r.status == JobStatus::kDone) ++runs;
  }
  return runs;
}

}  // namespace exastp

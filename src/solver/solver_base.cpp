#include "exastp/solver/solver_base.h"

#include "exastp/basis/lagrange.h"
#include "exastp/common/check.h"
#include "exastp/telemetry/telemetry.h"

namespace exastp {

void SolverBase::set_thread_team(const ParallelFor& team) { par_ = team; }

void SolverBase::step_phase(int phase, double dt) {
  EXASTP_CHECK_MSG(phase == 0, "this stepper has a single step phase");
  step(dt);
}

void SolverBase::step_phase_interior(int /*phase*/, double /*dt*/) {}

void SolverBase::step_phase_boundary(int phase, double dt) {
  step_phase(phase, dt);
}

std::vector<SolverBase::PhaseHaloField> SolverBase::step_phase_halo_fields(
    int /*phase*/) {
  return {};
}

void SolverBase::enable_lts(const std::vector<int>& /*cluster_of_cell*/,
                            int /*num_clusters*/) {
  EXASTP_FAIL("this stepper (" + stepper_name() +
              ") does not support clustered local time stepping (lts=on "
              "needs stepper=ader)");
}

const SolverBase& SolverBase::shard(int s) const {
  EXASTP_CHECK_MSG(s == 0, "monolithic solvers have exactly one shard");
  return *this;
}

void SolverBase::add_observer(Observer* observer) {
  EXASTP_CHECK_MSG(observer != nullptr, "observer must not be null");
  for (const AttachedObserver& attached : observers_)
    EXASTP_CHECK_MSG(attached.observer != observer,
                     "observer is already attached");
  observers_.push_back({observer, false});
}

int SolverBase::run_until(double t_end, double cfl) {
  for (AttachedObserver& attached : observers_) {
    if (attached.started) continue;
    attached.observer->on_start(*this);
    attached.started = true;
  }
  int steps = 0;
  while (time() < t_end - 1e-14) {
    double dt;
    {
      ScopedSpan span(SpanId::kStableDt);
      dt = plan_step(stable_dt(cfl));
    }
    if (time() + dt > t_end) dt = t_end - time();
    {
      ScopedSpan span(SpanId::kStep, /*arg=*/steps_taken_ + 1);
      step(dt);
    }
    ++steps;
    ++steps_taken_;
    ScopedSpan span(SpanId::kObservers);
    for (AttachedObserver& attached : observers_)
      attached.observer->on_step(*this, steps_taken_);
  }
  for (AttachedObserver& attached : observers_)
    attached.observer->on_finish(*this);
  return steps;
}

double SolverBase::sample(const std::array<double, 3>& x, int quantity) const {
  std::array<double, 3> xi{};
  const int cell = grid().locate(x, &xi);
  const double* qc = cell_dofs(cell);
  const AosLayout& aos = layout();
  const BasisTables& tables = basis();
  const int n = aos.n;
  double value = 0.0;
  for (int k3 = 0; k3 < n; ++k3) {
    const double p3 = lagrange_value(tables.nodes, k3, xi[2]);
    for (int k2 = 0; k2 < n; ++k2) {
      const double p23 = p3 * lagrange_value(tables.nodes, k2, xi[1]);
      for (int k1 = 0; k1 < n; ++k1)
        value += p23 * lagrange_value(tables.nodes, k1, xi[0]) *
                 qc[aos.idx(k3, k2, k1, quantity)];
    }
  }
  return value;
}

}  // namespace exastp

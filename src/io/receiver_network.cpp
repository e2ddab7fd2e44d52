#include "exastp/io/receiver_network.h"

#include <utility>

#include "exastp/basis/lagrange.h"
#include "exastp/common/check.h"

namespace exastp {

void ReceiverNetwork::add_receiver(const std::array<double, 3>& position) {
  EXASTP_CHECK_MSG(!bound_ready_,
                   "receivers must be registered before the network binds");
  positions_.push_back(position);
}

void ReceiverNetwork::add_receivers(
    const std::vector<std::array<double, 3>>& positions) {
  for (const auto& position : positions) add_receiver(position);
}

void ReceiverNetwork::add_sink(std::unique_ptr<ReceiverSink> sink) {
  EXASTP_CHECK(sink != nullptr);
  EXASTP_CHECK_MSG(!bound_ready_,
                   "sinks must be attached before the network binds");
  sinks_.push_back(std::move(sink));
}

namespace {
bool same_grid(const GridSpec& a, const GridSpec& b) {
  return a.cells == b.cells && a.origin == b.origin && a.extent == b.extent &&
         a.boundary == b.boundary;
}
}  // namespace

std::vector<std::string> default_quantity_names(
    const std::vector<int>& quantities) {
  std::vector<std::string> names;
  names.reserve(quantities.size());
  for (int s : quantities) {
    // "q" + to_string trips a GCC 12 -Wrestrict false positive here.
    std::string name = "q";
    name += std::to_string(s);
    names.push_back(std::move(name));
  }
  return names;
}

void ReceiverNetwork::bind(const SolverBase& solver) {
  const BasisTables& tables = solver.basis();
  const int n = solver.layout().n;
  // Validate against *this* solver even on a cache hit: a different-PDE
  // solver can share basis and grid while storing fewer quantities.
  if (quantities_.empty())
    for (int s = 0; s < solver.evolved_quantities(); ++s)
      quantities_.push_back(s);
  for (int s : quantities_)
    EXASTP_CHECK_MSG(s >= 0 && s < solver.layout().m,
                     "receiver quantity " + std::to_string(s) +
                         " is not stored by this solver");

  // The cached cells/weights depend only on the basis and the grid
  // geometry, so any solver matching both (including the same one)
  // reuses them.
  if (bound_ready_ && bound_basis_ == &tables &&
      same_grid(bound_grid_, solver.grid().spec()))
    return;

  const bool first_bind = !bound_ready_;
  bound_.assign(positions_.size(), BoundReceiver{});
  // Locating cells and evaluating n^3 basis products is independent per
  // receiver; each slot is written by exactly one index, so the cache is
  // deterministic on any thread count.
  solver.parallel().for_each(
      static_cast<long>(positions_.size()), [&](int, long r) {
        BoundReceiver& b = bound_[static_cast<std::size_t>(r)];
        std::array<double, 3> xi{};
        b.cell = solver.grid().locate(positions_[static_cast<std::size_t>(r)],
                                      &xi);
        b.weights.assign(static_cast<std::size_t>(n) * n * n, 0.0);
        for (int k3 = 0; k3 < n; ++k3) {
          const double p3 = lagrange_value(tables.nodes, k3, xi[2]);
          for (int k2 = 0; k2 < n; ++k2) {
            const double p23 = p3 * lagrange_value(tables.nodes, k2, xi[1]);
            for (int k1 = 0; k1 < n; ++k1)
              b.weights[(static_cast<std::size_t>(k3) * n + k2) * n + k1] =
                  p23 * lagrange_value(tables.nodes, k1, xi[0]);
          }
        }
      });
  bound_ready_ = true;
  bound_basis_ = &tables;
  bound_grid_ = solver.grid().spec();
  row_.assign(row_size(), 0.0);
  if (first_bind)
    for (auto& sink : sinks_) sink->open(*this);
}

void ReceiverNetwork::sample_now(const SolverBase& solver) {
  bind(solver);
  if (positions_.empty()) return;
  const AosLayout& aos = solver.layout();
  const int n = aos.n;
  const std::size_t nq = quantities_.size();
  // On the calling thread: a sample of a few dozen receivers takes tens of
  // microseconds, about what a fork-join of the solver's team costs on an
  // idle host, and under CPU contention each fork-join waits milliseconds
  // for descheduled workers (64 receivers cost 38-50% of the stepped time
  // at threads=4 beside another busy process). The row is the same for
  // any thread count.
  for (std::size_t r = 0; r < positions_.size(); ++r) {
    const BoundReceiver& b = bound_[r];
    const double* qc = solver.cell_dofs(b.cell);
    double* out = row_.data() + r * nq;
    for (std::size_t q = 0; q < nq; ++q) {
      const int s = quantities_[q];
      double value = 0.0;
      std::size_t k = 0;
      for (int k3 = 0; k3 < n; ++k3)
        for (int k2 = 0; k2 < n; ++k2)
          for (int k1 = 0; k1 < n; ++k1, ++k)
            value += b.weights[k] * qc[aos.idx(k3, k2, k1, s)];
      out[q] = value;
    }
  }
  times_.push_back(solver.time());
  data_.insert(data_.end(), row_.begin(), row_.end());
  for (auto& sink : sinks_)
    sink->append(times_.back(), row_.data(), row_.size());
}

void ReceiverNetwork::on_start(const SolverBase& solver) {
  sample_now(solver);  // binds + records the initial state
}

void ReceiverNetwork::on_step(const SolverBase& solver, int /*step*/) {
  sample_now(solver);
}

void ReceiverNetwork::on_finish(const SolverBase& /*solver*/) {
  for (auto& sink : sinks_) sink->finish();
}

double ReceiverNetwork::value(std::size_t sample, std::size_t receiver,
                              std::size_t q) const {
  EXASTP_CHECK(sample < times_.size() && receiver < positions_.size() &&
               q < quantities_.size());
  return data_[sample * row_size() + receiver * quantities_.size() + q];
}

std::vector<double> ReceiverNetwork::trace(std::size_t receiver,
                                           std::size_t q) const {
  std::vector<double> out;
  out.reserve(times_.size());
  for (std::size_t i = 0; i < times_.size(); ++i)
    out.push_back(value(i, receiver, q));
  return out;
}

}  // namespace exastp

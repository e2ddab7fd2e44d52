// Batched receiver (seismogram) network: many probe points registered at
// once, sampled incrementally from the time loop.
//
// Locating a receiver's cell and evaluating its n^3 Lagrange basis
// products happens once per receiver at bind time (cell index +
// tensor-product basis weights against the solver's layout), so every
// sample is a dense dot product per quantity — cheap enough to run after
// every step with dozens of receivers attached (< 5% overhead on the
// threaded planewave workload; tests/test_io.cpp guards this).
//
// Binding fans out over the solver's own thread team (ParallelFor);
// sampling runs on the calling thread. Each receiver writes only its slot
// of the preallocated row, so the traces are deterministic and
// bitwise-identical for any thread count. Attached
// ReceiverSinks stream each sampled row out incrementally (appending CSV,
// binary record stream — receiver_sinks.h) while the in-memory traces stay
// available for analysis.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "exastp/io/observer.h"
#include "exastp/solver/solver_base.h"

namespace exastp {

class ReceiverNetwork;

/// "q<index>" labels for a list of quantity indices — the default naming
/// shared by receiver CSV headers, VTK series fields and the post-hoc VTK
/// dump.
std::vector<std::string> default_quantity_names(
    const std::vector<int>& quantities);

/// Incremental consumer of sampled receiver rows. open() is called once at
/// bind time (headers), append() once per sample with the row laid out as
/// [receiver-major][quantity-minor], finish() when the run ends (flush;
/// idempotent, may be called more than once).
class ReceiverSink {
 public:
  virtual ~ReceiverSink() = default;
  virtual void open(const ReceiverNetwork& network) = 0;
  virtual void append(double time, const double* row, std::size_t n) = 0;
  virtual void finish() = 0;
};

class ReceiverNetwork final : public Observer {
 public:
  /// `quantities` are the sampled quantity indices; empty means "all
  /// evolved quantities" (resolved against the solver at bind time — the
  /// same default the receivers= config key gets, material parameters
  /// excluded).
  explicit ReceiverNetwork(std::vector<int> quantities = {})
      : quantities_(std::move(quantities)) {}

  /// Registers one probe point; only valid before bind().
  void add_receiver(const std::array<double, 3>& position);
  void add_receivers(const std::vector<std::array<double, 3>>& positions);

  /// Takes ownership of a streaming sink (CSV, binary, ...).
  void add_sink(std::unique_ptr<ReceiverSink> sink);

  /// Locates each receiver's containing cell and precomputes its n^3
  /// tensor-product basis weights (thread-parallel over receivers, on the
  /// solver's team). Called automatically from on_start; call it directly
  /// when driving the network by hand. Throws if a receiver lies outside
  /// the domain. Binding to a solver with another basis or grid geometry
  /// re-derives the cache.
  void bind(const SolverBase& solver);

  /// Samples every receiver at the solver's current time and appends one
  /// row to the traces and every sink. Binds first if needed.
  void sample_now(const SolverBase& solver);

  // Observer hooks: bind + initial sample, per-step sample, sink flush.
  void on_start(const SolverBase& solver) override;
  void on_step(const SolverBase& solver, int step) override;
  void on_finish(const SolverBase& solver) override;

  std::size_t num_receivers() const { return positions_.size(); }
  std::size_t num_samples() const { return times_.size(); }
  const std::vector<int>& quantities() const { return quantities_; }
  const std::vector<std::array<double, 3>>& positions() const {
    return positions_;
  }
  const std::vector<double>& times() const { return times_; }

  /// Sampled value: row `sample`, receiver `receiver`, quantity slot `q`
  /// (an index into quantities(), not a quantity id).
  double value(std::size_t sample, std::size_t receiver, std::size_t q) const;
  /// Full time series of one receiver/quantity-slot pair.
  std::vector<double> trace(std::size_t receiver, std::size_t q) const;

 private:
  std::size_t row_size() const { return positions_.size() * quantities_.size(); }

  std::vector<int> quantities_;
  std::vector<std::array<double, 3>> positions_;
  std::vector<std::unique_ptr<ReceiverSink>> sinks_;

  // Bind-time cache, one entry per receiver.
  struct BoundReceiver {
    int cell = -1;
    std::vector<double> weights;  ///< n^3 tensor-product basis values
  };
  std::vector<BoundReceiver> bound_;
  /// Bind cache key: everything the cells and weights are derived from.
  /// Basis tables are process-wide statics per (order, family), so the
  /// pointer is a stable identity — unlike a solver address, which a new
  /// solver can reuse after the old one is destroyed.
  bool bound_ready_ = false;
  const BasisTables* bound_basis_ = nullptr;
  GridSpec bound_grid_;

  std::vector<double> times_;
  std::vector<double> data_;  ///< num_samples x row_size, row-major
  std::vector<double> row_;   ///< scratch row reused between samples
};

}  // namespace exastp

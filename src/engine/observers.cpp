#include "exastp/engine/observers.h"

#include "exastp/common/check.h"
#include "exastp/io/receiver_network.h"
#include "exastp/io/receiver_sinks.h"
#include "exastp/io/vtk_series.h"

namespace exastp {
namespace {

/// Quantity indices the config's outputs sample: output.quantities
/// (validated against the PDE), or every evolved quantity.
std::vector<int> output_quantities(const SimulationConfig& config,
                                   const KernelFactory& pde) {
  if (!config.output.quantities.empty()) {
    for (int s : config.output.quantities)
      EXASTP_CHECK_MSG(s >= 0 && s < pde.info().quants,
                       "output.quantities index " + std::to_string(s) +
                           " out of range for pde " + pde.name());
    return config.output.quantities;
  }
  std::vector<int> quantities;
  for (int s = 0; s < pde.info().vars; ++s) quantities.push_back(s);
  return quantities;
}

}  // namespace

std::vector<int> vtk_quantities(const SimulationConfig& config,
                                const KernelFactory& pde) {
  std::vector<int> quantities = output_quantities(config, pde);
  if (config.output.quantities.empty() && quantities.size() > 4)
    quantities.resize(4);
  return quantities;
}

std::vector<std::shared_ptr<Observer>> make_observers(
    const SimulationConfig& config, const KernelFactory& pde) {
  std::vector<std::shared_ptr<Observer>> observers;
  const OutputConfig& output = config.output;
  if (!config.receivers.empty()) {
    auto network =
        std::make_shared<ReceiverNetwork>(output_quantities(config, pde));
    network->add_receivers(config.receivers);
    if (!output.receivers_csv.empty())
      network->add_sink(std::make_unique<CsvReceiverSink>(output.receivers_csv));
    if (!output.receivers_bin.empty())
      network->add_sink(
          std::make_unique<BinaryReceiverSink>(output.receivers_bin));
    observers.push_back(std::move(network));
  } else {
    EXASTP_CHECK_MSG(
        output.receivers_csv.empty() && output.receivers_bin.empty(),
        "receiver output streams need receivers=x,y,z[;...]");
  }
  if (!output.series.empty()) {
    std::vector<int> quantities = vtk_quantities(config, pde);
    std::vector<std::string> names = default_quantity_names(quantities);
    observers.push_back(std::make_shared<VtkSeriesWriter>(
        output.series, std::move(quantities), std::move(names),
        output.interval));
  }
  return observers;
}

}  // namespace exastp

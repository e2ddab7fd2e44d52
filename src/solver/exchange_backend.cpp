#include "exastp/solver/exchange_backend.h"

#include "exastp/common/check.h"
#include "exastp/kernels/face.h"
#include "exastp/solver/halo_exchange.h"
#include "exastp/solver/mpi_exchange.h"

namespace exastp {

std::vector<std::size_t> source_trace_offsets(const Partition& partition,
                                              const HaloPlan& plan,
                                              std::size_t trace_size) {
  const Grid& src = partition.subdomain(plan.src_shard).grid;
  std::vector<std::size_t> offsets;
  offsets.reserve(plan.src_cells.size());
  for (const int cell : plan.src_cells)
    offsets.push_back(trace_slot(src, cell, plan.dir, 1 - plan.side) *
                      trace_size);
  return offsets;
}

std::size_t halo_trace_offset(const Grid& dst, const HaloPlan& plan,
                              std::size_t trace_size) {
  return trace_slot(dst, plan.dst_begin, plan.dir, plan.side) * trace_size;
}

std::unique_ptr<ExchangeBackend> make_exchange_backend(
    const std::string& backend, const Partition& partition,
    std::size_t trace_size) {
  if (backend == "inprocess")
    return std::make_unique<InProcessExchange>(partition, trace_size);
  if (backend == "mpi") return make_mpi_exchange(partition, trace_size);
  EXASTP_FAIL("unknown exchange backend \"" + backend +
              "\" (inprocess|mpi)");
}

}  // namespace exastp

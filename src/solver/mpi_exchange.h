// Distributed exchange backend: hybrid intra-rank gather + inter-rank
// MPI_Isend/MPI_Irecv, driven by the Partition's rank map
// (Partition::assign_ranks). Rank r materializes every shard in
// shards_of_rank(r); links whose two endpoints live on the same rank move
// through the zero-copy LocalLinkSet gather of solver/halo_exchange.h, and
// only links that actually cross a rank boundary become MPI messages —
// over-decomposed runs (shards_per_rank > 1) pay the wire for the few true
// rank-cut faces, not for every shard face.
//
// The backend implements the dependency-scheduled protocol
// (exchange_backend.h): sched_open posts one MPI_Irecv per cross-rank plan
// of the opening shard — straight into the destination halo block, which
// is contiguous and plan-ordered, so the receive side needs no unpack
// copy — sched_capture packs the outgoing planes of face traces and
// MPI_Isends them eagerly, and sched_poll progresses with MPI_Testsome / MPI_Waitsome.
// The message tag is (channel * num_shards + dst_shard) * 6 + (dir, side):
// a (dst_shard, dir, side) face has exactly one source shard, so the tag
// uniquely names a link per channel even when one rank pair carries
// several shard pairs. Per (link, channel) the same tag carries one
// message per exchanging phase; MPI's non-overtaking rule pairs the
// sequence in phase order on both sides.
//
// The bytes a halo slot receives are exactly the bytes the in-process
// backend would have gathered, so backend=mpi runs are bitwise-identical
// to backend=inprocess (and to the monolithic solver) — tests/test_mpi.cpp
// proves it under mpirun, including over-decomposed rank maps.
//
// Only the factory is exposed here; the backend class lives in the
// MPI-gated translation unit. Builds without -DEXASTP_WITH_MPI=ON fail
// with a clear message instead of linking against a missing MPI.
#pragma once

#include <cstddef>
#include <memory>

#include "exastp/mesh/partition.h"
#include "exastp/solver/exchange_backend.h"

namespace exastp {

/// `trace_size` doubles per face trace, the unit of every halo slot.
std::unique_ptr<ExchangeBackend> make_mpi_exchange(const Partition& partition,
                                                   std::size_t trace_size);

}  // namespace exastp

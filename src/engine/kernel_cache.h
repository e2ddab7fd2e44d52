// Process-wide kernel prototype cache shared by every Simulation.
//
// Building an optimized STP kernel resolves basis tables, pads operator
// matrices and allocates workspace — work that depends only on
// (pde, variant, order, isa, family). A single run pays it once, but the
// ensemble service (src/service/simulation_pool.h) constructs hundreds of
// Simulations in one process, most of them sharing a handful of kernel
// configurations. This cache keeps one prototype kernel per configuration;
// requests return an independent fork() of the prototype (own workspace,
// safe to run on any thread), so concurrent pool jobs share the cached
// configuration without sharing mutable state. The basis-table cache
// underneath (basis/basis_tables.h) is process-wide already; together they
// are the "shared caches" of the ensemble engine.
//
// Thread-safe: lookups and insertions are mutex-guarded; the fork of the
// prototype happens outside the lock.
#pragma once

#include "exastp/engine/pde_registry.h"

namespace exastp {

/// Cumulative cache traffic since process start (or the last reset):
/// `misses` counts distinct (pde, variant, order, isa, family) prototypes
/// built, `hits` the requests served from an existing prototype. The
/// service bench and tests read these to verify cross-job sharing.
struct KernelCacheStats {
  long hits = 0;
  long misses = 0;
};

/// A configured kernel for (pde, variant, order, isa, family, precision),
/// forked from the process-wide prototype cache (built through
/// pde.make_kernel on the first request). The returned kernel owns its
/// workspace and can fork again — it behaves exactly like a kernel from
/// pde.make_kernel. The precision is part of the cache key: fp64 and fp32
/// prototypes of one configuration coexist.
StpKernel cached_stp_kernel(const KernelFactory& pde, StpVariant variant,
                            int order, Isa isa, NodeFamily family,
                            Precision precision = Precision::kF64);

KernelCacheStats kernel_cache_stats();
/// Zeroes the counters (prototypes stay cached) — bench/test bookkeeping.
void reset_kernel_cache_stats();

}  // namespace exastp

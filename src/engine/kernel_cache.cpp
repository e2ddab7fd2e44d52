#include "exastp/engine/kernel_cache.h"

#include <map>
#include <mutex>
#include <string>

namespace exastp {
namespace {

std::mutex& cache_mutex() {
  static std::mutex mutex;
  return mutex;
}

std::map<std::string, StpKernel>& cache() {
  static std::map<std::string, StpKernel> map;
  return map;
}

KernelCacheStats& stats() {
  static KernelCacheStats s;
  return s;
}

}  // namespace

StpKernel cached_stp_kernel(const KernelFactory& pde, StpVariant variant,
                            int order, Isa isa, NodeFamily family,
                            Precision precision) {
  const std::string key =
      pde.name() + "/" + variant_name(variant) + "/" + std::to_string(order) +
      "/" + isa_name(isa) + "/" +
      (family == NodeFamily::kGaussLegendre ? "gl" : "lobatto") + "/" +
      precision_name(precision);
  StpKernel prototype;
  {
    std::lock_guard<std::mutex> lock(cache_mutex());
    auto it = cache().find(key);
    if (it != cache().end()) {
      ++stats().hits;
      prototype = it->second;  // copies share the impl; run() is never
                               // called on the prototype
    }
  }
  if (!prototype) {
    // Build outside the lock (construction resolves quadrature + basis
    // tables); a racing thread may build the same prototype — the first
    // insert wins and the duplicate is discarded, still counted as the
    // miss it was.
    StpKernel built = pde.make_kernel(variant, order, isa, family, precision);
    std::lock_guard<std::mutex> lock(cache_mutex());
    ++stats().misses;
    auto [it, inserted] = cache().emplace(key, built);
    prototype = it->second;
    (void)inserted;
  }
  // Fork outside the lock: an independent workspace per request, so
  // concurrent pool jobs never share mutable kernel state.
  return prototype.fork();
}

KernelCacheStats kernel_cache_stats() {
  std::lock_guard<std::mutex> lock(cache_mutex());
  return stats();
}

void reset_kernel_cache_stats() {
  std::lock_guard<std::mutex> lock(cache_mutex());
  stats() = KernelCacheStats{};
}

}  // namespace exastp

// Set-associative LRU cache hierarchy simulator.
//
// Replaces the VTune memory-stall measurements of Figs. 4, 6, 10: a trace
// twin (trace_model.h) runs a real kernel with an access recorder
// (access_recorder.h) that feeds its per-call operand ranges into a
// hierarchy configured like one Skylake-SP core (32 KiB 8-way L1D,
// 1 MiB 16-way private L2 — the capacity whose overflow Sec. IV-A analyses —
// and a 1.375 MiB 11-way L3 slice), and a latency model converts the
// per-level misses into the fraction of pipeline slots stalled on memory.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace exastp {

struct CacheConfig {
  std::size_t size_bytes = 0;
  int associativity = 1;
  int line_bytes = 64;
};

/// One inclusive-behaviour LRU level.
class CacheLevel {
 public:
  explicit CacheLevel(const CacheConfig& config);

  /// Accesses one line address (already >> line_bits); returns true on hit
  /// and installs the line on miss.
  bool access_line(std::uint64_t line);

  void reset();
  const CacheConfig& config() const { return config_; }

 private:
  CacheConfig config_;
  int num_sets_;
  std::uint64_t tick_ = 0;
  struct Way {
    std::uint64_t tag = ~0ull;
    std::uint64_t last_use = 0;
  };
  std::vector<Way> ways_;  // num_sets * associativity
};

struct CacheStats {
  std::uint64_t accesses = 0;       ///< line-granular accesses issued
  std::array<std::uint64_t, 3> misses{};  ///< per level; misses[2] go to DRAM
  /// Subset of `misses` issued by strided/pointer-chasing access patterns
  /// that hardware prefetchers cannot hide; these pay latency, not fill
  /// bandwidth, in the stall model.
  std::array<std::uint64_t, 3> demand_misses{};

  CacheStats& operator+=(const CacheStats& o) {
    accesses += o.accesses;
    for (int i = 0; i < 3; ++i) {
      misses[i] += o.misses[i];
      demand_misses[i] += o.demand_misses[i];
    }
    return *this;
  }
};

/// Three-level hierarchy; every access walks L1 -> L2 -> L3.
class CacheSim {
 public:
  CacheSim(const CacheConfig& l1, const CacheConfig& l2,
           const CacheConfig& l3);

  /// Skylake-SP-per-core configuration used for all paper reproductions.
  static CacheSim skylake_sp();

  /// Touches `bytes` bytes starting at byte address `addr` (sequential
  /// lines; prefetcher-friendly). Reads and writes are not distinguished
  /// (write-allocate).
  void access(std::uint64_t addr, std::size_t bytes);

  /// Touches `rows` rows of `row_bytes` starting at `addr` with a stride of
  /// `stride_bytes` — the strided slice pattern of naive tensor
  /// contractions. Misses count as demand (latency-bound) misses.
  void access_strided(std::uint64_t addr, int rows, std::size_t row_bytes,
                      std::size_t stride_bytes);

  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }
  /// Drops all cached lines and the stats (cold start).
  void reset();

  int line_bytes() const { return line_bytes_; }

 private:
  void access_impl(std::uint64_t addr, std::size_t bytes, bool demand);

  int line_bytes_;
  std::vector<CacheLevel> levels_;
  CacheStats stats_;
  // Stream-prefetcher model: tails of recently observed sequential streams.
  // An access() continuing one of them is prefetched; a fresh stream's first
  // line pays demand latency on a miss.
  static constexpr int kStreamTrackers = 16;
  std::array<std::uint64_t, kStreamTrackers> stream_tails_{};
  int next_tracker_ = 0;
};

/// Bandwidth-style stall model: fraction (0..1) of pipeline slots stalled
/// on memory for a workload with the given cache behaviour and compute
/// volume.
///
/// The kernels stream long sequential ranges, which hardware prefetchers
/// pipeline: the appropriate per-miss cost is the *fill bandwidth* of the
/// providing level, not its load-to-use latency. Per-line fill costs
/// (cycles/64B) approximate Skylake-SP: L2 fills ~1 cycle/line, L3 fills
/// ~3, DRAM ~8 (about 16 GB/s per core at 2 GHz). Compute cycles assume the
/// dual-FMA pipe at the packing mix's throughput: 2/4/8/16 flops per cycle
/// for scalar/128/256/512-bit code. The constants are fixed here, not
/// fitted per experiment.
struct StallModel {
  // Sequential (prefetched) traffic pays fill bandwidth per line:
  double l2_fill_cycles = 1.5;   ///< per line missing L1, served by L2
  double l3_fill_cycles = 4.0;   ///< per line missing L2, served by L3
  double dram_fill_cycles = 9.0; ///< per line missing L3, served by DRAM
  // Demand (strided) misses pay load-to-use latency, partially overlapped:
  double l2_latency_cycles = 14.0;
  double l3_latency_cycles = 44.0;
  double dram_latency_cycles = 180.0;
  double mlp = 5.0;  ///< average overlapped demand misses

  /// flops_by_width indexed like WidthClass: scalar/128/256/512.
  double stall_fraction(const CacheStats& stats,
                        const std::array<std::uint64_t, 4>& flops_by_width)
      const;
};

}  // namespace exastp

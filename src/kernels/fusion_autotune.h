// Autotuned block sizes for the fused SplitCK derivative chains.
//
// The fused kernels (splitck_stp.h, aosoa_stp.h) evaluate the pointwise
// flux, its derivative GEMM, and the NCP stage slab by slab so the flux
// block is still cache-resident when the GEMM consumes it. The slab size —
// k3 planes for the x/y sweeps, k2 pencils for the z sweep — is the one
// genuinely machine-dependent knob: too small wastes GEMM call overhead,
// too large spills the slab out of L2. Block size NEVER changes results
// (slab boundaries are bitwise-neutral) nor FLOP counts (columns split at
// vector-width multiples), so the table is pure performance state and
// autotune= is a neutral config key.
//
// The table is process-wide and keyed (pde, order, isa, precision). A
// missing entry falls back to a footprint heuristic; `tune` measures the
// candidate sizes with a caller-supplied kernel builder and pins the
// winner. `serialize`/`merge_text` give a line-oriented text format
//
//     pde order isa precision block_planes
//
// that `save_file`/`load_file` persist, wired to the `autotune=PATH`
// config key (simulation.cpp: load, tune what is missing, save back).
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "exastp/common/simd.h"
#include "exastp/kernels/stp_common.h"

namespace exastp {

class FusionTuneTable {
 public:
  static FusionTuneTable& instance();

  /// Tuned block size, or the heuristic default when the key is missing.
  /// Always in [1, order].
  int block_planes(const std::string& pde, int order, int quants, Isa isa,
                   Precision precision) const;

  bool has(const std::string& pde, int order, Isa isa,
           Precision precision) const;

  void set(const std::string& pde, int order, Isa isa, Precision precision,
           int planes);

  void clear();

  /// L2-footprint heuristic: the largest plane count whose fused working
  /// set (four cell-tensor slabs) stays within ~256 KiB, at least 1.
  static int heuristic_block_planes(int order, int quants, Isa isa,
                                    Precision precision);

  /// Measures every candidate block size by building a fresh kernel
  /// through `build` and timing `reps` runs on a constant unit state; pins
  /// the fastest. Returns the winning plane count. The candidates are
  /// visible only to block_planes() calls on the calling thread (so
  /// `build` must construct its kernel there); other threads see the table
  /// as before until the winner is published. A throwing `build` leaves
  /// the table unchanged.
  int tune(const std::string& pde, int order, int quants, Isa isa,
           Precision precision, const std::function<StpKernel()>& build,
           int reps = 3);

  /// One "pde order isa precision planes" line per entry, sorted by key.
  std::string serialize() const;
  /// Merges entries parsed from `text` (same format; '#' comments and
  /// blank lines ignored). Throws on malformed lines.
  void merge_text(const std::string& text);

  /// Best-effort persistence helpers. load_file returns false when the
  /// file does not exist; save_file replaces it atomically (a concurrent
  /// load sees a whole table) and throws when the path is unwritable.
  bool load_file(const std::string& path);
  void save_file(const std::string& path) const;

 private:
  static std::string key(const std::string& pde, int order, Isa isa,
                         Precision precision);

  mutable std::mutex mu_;
  std::map<std::string, int> table_;
};

}  // namespace exastp

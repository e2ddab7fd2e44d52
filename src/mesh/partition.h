// Domain decomposition: the global grid sharded into a 3-D block grid of
// halo-exchanged subdomains.
//
// A Partition splits a GridSpec into shards[0] x shards[1] x shards[2]
// contiguous cell boxes ("ragged" splits — dimensions not divisible by the
// shard count — are supported; the first remainder blocks get one extra
// cell). Each Subdomain carries a Grid view (mesh/grid.h) whose geometry is
// computed in global coordinates, plus one HaloPlan per face whose
// neighbour plane is owned by another shard: the plan names the source
// shard, the source cells to pack (in the halo slot order of the receiving
// view) and the destination halo block. Periodic boundaries wrap plans to
// the far shard; outflow/wall faces at the true domain edge need no plan —
// the solvers build ghost states there, exactly like the monolithic path.
//
// The plans are consumed by the exchange backends
// (solver/exchange_backend.h: the zero-copy in-process gather of
// solver/halo_exchange.h, or the rank-per-shard MPI_Isend/Irecv of
// solver/mpi_exchange.h) and the per-shard solvers are composed by
// solver/sharded_solver.h.
#pragma once

#include <array>
#include <vector>

#include "exastp/mesh/grid.h"

namespace exastp {

/// One halo dependency of a shard: the cells another shard packs for one
/// face of this shard's halo ring.
struct HaloPlan {
  int dir = 0;        ///< face normal of the receiving shard
  int side = 0;       ///< 0 = lower face, 1 = upper face
  int src_shard = -1; ///< shard owning the neighbour plane
  /// Local cell indices in the source shard, listed in the receiving
  /// face's halo slot order (in-face coordinates ascending, b-major).
  std::vector<int> src_cells;
  /// First halo cell slot (>= num_cells()) in the receiving shard.
  int dst_begin = -1;
};

/// Interior/boundary split of a grid view's owned cells, the basis of the
/// split-phase exchange protocol (solver/exchange_backend.h): `boundary`
/// lists cells with at least one face neighbour in halo storage — they read
/// exchanged data, so their sweep must wait for the exchange to complete —
/// and `interior` the rest, which a solver can traverse while halos are
/// still in flight. Both lists are ascending, and together they cover
/// every owned cell exactly once. A whole-domain grid has no halo slots,
/// so its boundary set is empty.
struct CellClassification {
  std::vector<int> interior;
  std::vector<int> boundary;
};

/// Classifies the owned cells of `grid` (any view, including whole-domain
/// grids) by whether one of their six face neighbours is a halo slot.
CellClassification classify_cells(const Grid& grid);

struct Subdomain {
  int id = -1;
  std::array<int, 3> block{};  ///< coordinates in the shard block grid
  std::array<int, 3> lo{};     ///< lower corner in global cell coordinates
  std::array<int, 3> size{};   ///< owned cells per dimension
  Grid grid;                   ///< the partitioned view (owned + halo slots)
  std::vector<HaloPlan> halos; ///< one per remote face, fixed (dir, side) order
  CellClassification cells;    ///< interior vs halo-adjacent boundary cells
};

class Partition {
 public:
  /// Splits `global` into a shards[0] x shards[1] x shards[2] block grid.
  /// Each dimension needs at least one cell per shard.
  Partition(const GridSpec& global, const std::array<int, 3>& shards);

  /// Weighted split: `cell_weights` holds one positive cost per global
  /// cell (x-fastest order, like global cell indices). Split planes are
  /// chosen per dimension over the marginal plane-weight sums, minimizing
  /// the heaviest contiguous block — shards equalize measured work instead
  /// of cell count. An empty weight vector reproduces the unweighted
  /// split exactly.
  Partition(const GridSpec& global, const std::array<int, 3>& shards,
            const std::vector<double>& cell_weights);

  /// Factors `total` shards onto the cell box: repeatedly assigns the
  /// smallest remaining prime factor to the dimension with the most cells
  /// per shard, never exceeding one shard per cell. Used by the
  /// shards=N / shards=auto config forms.
  static std::array<int, 3> factor(int total,
                                   const std::array<int, 3>& cells);

  /// Block sizes of one dimension: n cells over k blocks, first n % k
  /// blocks one cell larger.
  static std::vector<int> split_sizes(int n, int k);

  /// Weighted block sizes of one dimension: contiguous groups of
  /// `plane_weights` (one entry per cell plane, every group non-empty)
  /// minimizing the maximum group weight, by dynamic programming. Ties
  /// break toward the unweighted split (earlier cuts as late as possible),
  /// so uniform weights reproduce split_sizes exactly. Throws
  /// std::invalid_argument unless every weight is positive and the
  /// square of their sum is finite.
  static std::vector<int> weighted_split_sizes(
      const std::vector<double>& plane_weights, int k);

  /// Groups the shards into `num_ranks` rank blocks, contiguous in shard
  /// index order, so over-decomposed runs (more shards than ranks) keep
  /// face-heavy neighbours co-resident. `shard_weights` (one positive cost
  /// per shard, optional) makes the grouping ragged-weighted via the same
  /// min-max DP as weighted_split_sizes; empty weights split by count
  /// (first num_shards % num_ranks ranks get one extra shard). Requires
  /// at least one shard per rank. A fresh Partition starts with every
  /// shard on rank 0.
  void assign_ranks(int num_ranks,
                    const std::vector<double>& shard_weights = {});

  int num_ranks() const { return num_ranks_; }
  /// Rank owning shard `s` under the current assign_ranks grouping.
  int rank_of(int shard) const;
  /// Shard ids owned by `rank`, ascending (contiguous by construction).
  const std::vector<int>& shards_of_rank(int rank) const;

  int num_shards() const { return static_cast<int>(subdomains_.size()); }
  const std::array<int, 3>& shards() const { return shards_; }
  const GridSpec& global_spec() const { return global_; }
  const Subdomain& subdomain(int s) const;

  /// Shard owning a global cell index.
  int owner_of(int global_cell) const;
  /// Local index of a global cell within its owning shard; the two-arg
  /// form takes a precomputed owner_of() result instead of re-deriving it.
  int local_cell(int global_cell) const {
    return local_cell(owner_of(global_cell), global_cell);
  }
  int local_cell(int shard, int global_cell) const;
  /// Global index of a shard's owned local cell.
  int global_cell(int shard, int local_cell) const;

  /// Smallest / largest owned-cell count over all shards.
  int min_cells_per_shard() const;
  int max_cells_per_shard() const;

 private:
  int shard_index(const std::array<int, 3>& block) const {
    return (block[2] * shards_[1] + block[1]) * shards_[0] + block[0];
  }
  /// Block coordinate owning global cell coordinate g in dimension d.
  int block_of(int d, int g) const;

  GridSpec global_;
  std::array<int, 3> shards_{1, 1, 1};
  std::array<std::vector<int>, 3> starts_;  ///< per-dim block start cells
  std::vector<Subdomain> subdomains_;
  int num_ranks_ = 1;
  std::vector<int> rank_of_;                ///< shard -> rank
  std::vector<std::vector<int>> rank_shards_;  ///< rank -> shard ids
};

}  // namespace exastp

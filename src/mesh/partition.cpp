#include "exastp/mesh/partition.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace exastp {

CellClassification classify_cells(const Grid& grid) {
  CellClassification cells;
  cells.interior.reserve(static_cast<std::size_t>(grid.num_cells()));
  for (int c = 0; c < grid.num_cells(); ++c) {
    bool touches_halo = false;
    for (int dir = 0; dir < 3 && !touches_halo; ++dir)
      for (int side = 0; side < 2; ++side) {
        const NeighborRef nb = grid.neighbor(c, dir, side);
        if (!nb.boundary && nb.cell >= grid.num_cells()) {
          touches_halo = true;
          break;
        }
      }
    (touches_halo ? cells.boundary : cells.interior).push_back(c);
  }
  return cells;
}

std::vector<int> Partition::split_sizes(int n, int k) {
  EXASTP_CHECK_MSG(k >= 1 && k <= n,
                   "each shard needs at least one cell per dimension");
  std::vector<int> sizes(static_cast<std::size_t>(k), n / k);
  for (int i = 0; i < n % k; ++i) ++sizes[static_cast<std::size_t>(i)];
  return sizes;
}

std::vector<int> Partition::weighted_split_sizes(
    const std::vector<double>& plane_weights, int k) {
  const int n = static_cast<int>(plane_weights.size());
  EXASTP_CHECK_MSG(k >= 1 && k <= n,
                   "each shard needs at least one cell per dimension");
  for (double w : plane_weights)
    EXASTP_CHECK_MSG(w > 0.0, "plane weights must be positive");
  auto at = [&](int i) { return plane_weights[static_cast<std::size_t>(i)]; };

  // Prefix sums: weight of the contiguous plane range [a, b).
  std::vector<double> prefix(static_cast<std::size_t>(n) + 1, 0.0);
  for (int i = 0; i < n; ++i)
    prefix[static_cast<std::size_t>(i) + 1] =
        prefix[static_cast<std::size_t>(i)] + at(i);
  // The even-split pass below squares block weights, each at most the
  // total: a total whose square overflows would make every split tie.
  const double total = prefix[static_cast<std::size_t>(n)];
  EXASTP_CHECK_MSG(std::isfinite(total * total),
                   "plane weights overflow: their sum squared must be finite");
  auto range = [&](int a, int b) {
    return prefix[static_cast<std::size_t>(b)] -
           prefix[static_cast<std::size_t>(a)];
  };

  // Pass 1: the minimal achievable heaviest block M, by the classic
  // linear-partition DP (f[j][i] = min max over the first i planes in j
  // groups). Sizes here are grid dimensions, so O(k n^2) is nothing.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t cols = static_cast<std::size_t>(n) + 1;
  std::vector<double> f(cols, kInf);
  for (int i = 1; i <= n; ++i) f[static_cast<std::size_t>(i)] = range(0, i);
  for (int j = 2; j <= k; ++j) {
    std::vector<double> g(cols, kInf);
    for (int i = j; i <= n; ++i) {
      double best = kInf;
      for (int c = j - 1; c < i; ++c)
        best = std::min(best,
                        std::max(f[static_cast<std::size_t>(c)], range(c, i)));
      g[static_cast<std::size_t>(i)] = best;
    }
    f.swap(g);
  }
  const double cap = f[static_cast<std::size_t>(n)];

  // Pass 2: among partitions whose every block stays within cap, minimize
  // the sum of squared block weights (the most even split); h[j][i] is
  // that minimum for planes [i, n) in j groups.
  std::vector<std::vector<double>> h(
      static_cast<std::size_t>(k) + 1, std::vector<double>(cols, kInf));
  for (int i = 0; i < n; ++i) {
    const double w = range(i, n);
    // Floating-point slack: cap came out of the same sums, but max/min
    // reassociation can differ by one ulp.
    if (w <= cap * (1.0 + 1e-12))
      h[1][static_cast<std::size_t>(i)] = w * w;
  }
  for (int j = 2; j <= k; ++j)
    for (int i = n - j; i >= 0; --i) {
      double best = kInf;
      for (int len = 1; i + len <= n - (j - 1); ++len) {
        const double w = range(i, i + len);
        if (w > cap * (1.0 + 1e-12)) break;
        best = std::min(best, w * w +
                                  h[static_cast<std::size_t>(j - 1)]
                                   [static_cast<std::size_t>(i + len)]);
      }
      h[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = best;
    }

  // Reconstruct left to right, taking the longest block that still reaches
  // the optimum — so uniform weights reproduce split_sizes exactly (first
  // remainder blocks one plane larger).
  std::vector<int> sizes;
  sizes.reserve(static_cast<std::size_t>(k));
  int i = 0;
  for (int j = k; j >= 1; --j) {
    if (j == 1) {
      sizes.push_back(n - i);
      break;
    }
    const double target =
        h[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
    int pick = 1;
    for (int len = 1; i + len <= n - (j - 1); ++len) {
      const double w = range(i, i + len);
      if (w > cap * (1.0 + 1e-12)) break;
      const double rest = h[static_cast<std::size_t>(j - 1)]
                           [static_cast<std::size_t>(i + len)];
      if (w * w + rest <= target * (1.0 + 1e-12)) pick = len;
    }
    sizes.push_back(pick);
    i += pick;
  }
  return sizes;
}

std::array<int, 3> Partition::factor(int total,
                                     const std::array<int, 3>& cells) {
  EXASTP_CHECK_MSG(total >= 1, "shard count must be positive");
  std::array<int, 3> shards{1, 1, 1};
  int remaining = total;
  for (int p = 2; remaining > 1; ++p) {
    while (remaining % p == 0) {
      // The dimension with the most cells per shard absorbs the factor;
      // a factor no dimension can absorb (one cell per shard everywhere)
      // is dropped, shrinking the effective shard count.
      int best = -1;
      double best_ratio = 0.0;
      for (int d = 0; d < 3; ++d) {
        if (shards[d] * p > cells[d]) continue;
        const double ratio =
            static_cast<double>(cells[d]) / (shards[d] * p);
        if (ratio > best_ratio) {
          best_ratio = ratio;
          best = d;
        }
      }
      remaining /= p;
      if (best >= 0) shards[best] *= p;
    }
  }
  return shards;
}

Partition::Partition(const GridSpec& global, const std::array<int, 3>& shards)
    : Partition(global, shards, {}) {}

Partition::Partition(const GridSpec& global, const std::array<int, 3>& shards,
                     const std::vector<double>& cell_weights)
    : global_(global), shards_(shards) {
  const int total_cells = global.cells[0] * global.cells[1] * global.cells[2];
  EXASTP_CHECK_MSG(
      cell_weights.empty() ||
          static_cast<int>(cell_weights.size()) == total_cells,
      "cell weights must cover every global cell");
  std::array<std::vector<int>, 3> sizes;
  for (int d = 0; d < 3; ++d) {
    if (cell_weights.empty()) {
      sizes[d] = split_sizes(global.cells[d], shards[d]);
    } else {
      // Marginal plane weights: the block grid is tensor-product, so each
      // dimension splits independently over the summed cost of its cell
      // planes.
      std::vector<double> planes(static_cast<std::size_t>(global.cells[d]),
                                 0.0);
      for (int g = 0; g < total_cells; ++g) {
        const int gx = g % global.cells[0];
        const int gy = (g / global.cells[0]) % global.cells[1];
        const int gz = g / (global.cells[0] * global.cells[1]);
        const int coord = d == 0 ? gx : d == 1 ? gy : gz;
        planes[static_cast<std::size_t>(coord)] +=
            cell_weights[static_cast<std::size_t>(g)];
      }
      sizes[d] = weighted_split_sizes(planes, shards[d]);
    }
    starts_[d].assign(sizes[d].size(), 0);
    for (std::size_t i = 1; i < sizes[d].size(); ++i)
      starts_[d][i] = starts_[d][i - 1] + sizes[d][i - 1];
  }

  subdomains_.reserve(static_cast<std::size_t>(shards[0]) * shards[1] *
                      shards[2]);
  for (int bz = 0; bz < shards[2]; ++bz)
    for (int by = 0; by < shards[1]; ++by)
      for (int bx = 0; bx < shards[0]; ++bx) {
        const std::array<int, 3> lo{starts_[0][static_cast<std::size_t>(bx)],
                                    starts_[1][static_cast<std::size_t>(by)],
                                    starts_[2][static_cast<std::size_t>(bz)]};
        const std::array<int, 3> size{sizes[0][static_cast<std::size_t>(bx)],
                                      sizes[1][static_cast<std::size_t>(by)],
                                      sizes[2][static_cast<std::size_t>(bz)]};
        subdomains_.push_back(Subdomain{shard_index({bx, by, bz}),
                                        {bx, by, bz},
                                        lo,
                                        size,
                                        Grid(global, lo, size),
                                        {}});
      }

  // One HaloPlan per remote face, in the grid's fixed (dir, side) order so
  // plan order matches halo slot order.
  for (Subdomain& sub : subdomains_) {
    for (int dir = 0; dir < 3; ++dir) {
      const int ad = dir == 0 ? 1 : 0;
      const int bd = dir == 2 ? 1 : 2;
      for (int side = 0; side < 2; ++side) {
        const int dst_begin = sub.grid.halo_begin(dir, side);
        if (dst_begin < 0) continue;
        HaloPlan plan;
        plan.dir = dir;
        plan.side = side;
        plan.dst_begin = dst_begin;
        std::array<int, 3> nb_block = sub.block;
        nb_block[dir] += side == 0 ? -1 : 1;
        // A remote face at the true domain edge is necessarily periodic
        // (Grid only assigns halos there for periodic boundaries).
        nb_block[dir] = (nb_block[dir] + shards_[dir]) % shards_[dir];
        plan.src_shard = shard_index(nb_block);
        const Subdomain& src = subdomains_[static_cast<std::size_t>(
            plan.src_shard)];
        // The packed plane: the source cells touching the shared face, at
        // the same in-face coordinates as the receiving halo slots (the
        // block grid is tensor-product, so in-face extents match).
        EXASTP_CHECK(src.size[ad] == sub.size[ad] &&
                     src.size[bd] == sub.size[bd]);
        const int plane = side == 0 ? src.size[dir] - 1 : 0;
        plan.src_cells.reserve(static_cast<std::size_t>(sub.size[ad]) *
                               sub.size[bd]);
        for (int b = 0; b < sub.size[bd]; ++b)
          for (int a = 0; a < sub.size[ad]; ++a) {
            std::array<int, 3> c{};
            c[dir] = plane;
            c[ad] = a;
            c[bd] = b;
            plan.src_cells.push_back(src.grid.index(c[0], c[1], c[2]));
          }
        sub.halos.push_back(std::move(plan));
      }
    }
  }
  assign_ranks(1);
}

void Partition::assign_ranks(int num_ranks,
                             const std::vector<double>& shard_weights) {
  EXASTP_CHECK_MSG(num_ranks >= 1 && num_ranks <= num_shards(),
                   "the rank grouping needs at least one shard per rank: " +
                       std::to_string(num_shards()) + " shard(s) cannot " +
                       "cover " + std::to_string(num_ranks) +
                       " rank(s) — raise shards= or shards_per_rank=");
  EXASTP_CHECK_MSG(
      shard_weights.empty() ||
          static_cast<int>(shard_weights.size()) == num_shards(),
      "shard weights must cover every shard");
  // Contiguous grouping in shard-index order; the weighted form reuses the
  // min-max DP of the plane splits with each shard as one "plane", so the
  // heaviest rank is minimized and uniform weights reproduce the count
  // split exactly.
  const std::vector<int> sizes =
      shard_weights.empty()
          ? split_sizes(num_shards(), num_ranks)
          : weighted_split_sizes(shard_weights, num_ranks);
  num_ranks_ = num_ranks;
  rank_of_.assign(static_cast<std::size_t>(num_shards()), 0);
  rank_shards_.assign(static_cast<std::size_t>(num_ranks), {});
  int shard = 0;
  for (int r = 0; r < num_ranks; ++r)
    for (int i = 0; i < sizes[static_cast<std::size_t>(r)]; ++i, ++shard) {
      rank_of_[static_cast<std::size_t>(shard)] = r;
      rank_shards_[static_cast<std::size_t>(r)].push_back(shard);
    }
}

int Partition::rank_of(int shard) const {
  EXASTP_CHECK(shard >= 0 && shard < num_shards());
  return rank_of_[static_cast<std::size_t>(shard)];
}

const std::vector<int>& Partition::shards_of_rank(int rank) const {
  EXASTP_CHECK(rank >= 0 && rank < num_ranks_);
  return rank_shards_[static_cast<std::size_t>(rank)];
}

const Subdomain& Partition::subdomain(int s) const {
  EXASTP_CHECK(s >= 0 && s < num_shards());
  return subdomains_[static_cast<std::size_t>(s)];
}

int Partition::block_of(int d, int g) const {
  // Weighted splits have arbitrary block sizes, so locate g among the
  // block start cells: the last start <= g.
  const std::vector<int>& starts = starts_[d];
  const auto it = std::upper_bound(starts.begin(), starts.end(), g);
  return static_cast<int>(it - starts.begin()) - 1;
}

int Partition::owner_of(int global_cell) const {
  EXASTP_CHECK(global_cell >= 0 &&
               global_cell < global_.cells[0] * global_.cells[1] *
                                 global_.cells[2]);
  const int gx = global_cell % global_.cells[0];
  const int gy = (global_cell / global_.cells[0]) % global_.cells[1];
  const int gz = global_cell / (global_.cells[0] * global_.cells[1]);
  return shard_index({block_of(0, gx), block_of(1, gy), block_of(2, gz)});
}

int Partition::local_cell(int shard, int global_cell) const {
  const Subdomain& sub = subdomain(shard);
  const int gx = global_cell % global_.cells[0];
  const int gy = (global_cell / global_.cells[0]) % global_.cells[1];
  const int gz = global_cell / (global_.cells[0] * global_.cells[1]);
  return sub.grid.index(gx - sub.lo[0], gy - sub.lo[1], gz - sub.lo[2]);
}

int Partition::global_cell(int shard, int local_cell) const {
  return subdomain(shard).grid.global_cell(local_cell);
}

int Partition::min_cells_per_shard() const {
  int best = subdomains_.front().grid.num_cells();
  for (const Subdomain& sub : subdomains_)
    best = std::min(best, sub.grid.num_cells());
  return best;
}

int Partition::max_cells_per_shard() const {
  int best = 0;
  for (const Subdomain& sub : subdomains_)
    best = std::max(best, sub.grid.num_cells());
  return best;
}

}  // namespace exastp

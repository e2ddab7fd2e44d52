// Interior/boundary cell classification — the split that lets a shard's
// interior sweep run while its halos are in flight (mesh/partition.h).
//
// The contract under test: whole-domain grids are all interior, and on a
// shard exactly the cells that read an exchanged neighbour are boundary.
// The bitwise equivalence of the split sweeps to the monolithic run is
// covered by ShardDeterminism in tests/test_sharding.cpp.
#include <gtest/gtest.h>

#include "exastp/mesh/partition.h"

namespace exastp {
namespace {

TEST(CellClassification, WholeDomainGridsAreAllInterior) {
  GridSpec spec;
  spec.cells = {4, 3, 2};
  const CellClassification cells = classify_cells(Grid(spec));
  EXPECT_EQ(cells.interior.size(), 24u);
  EXPECT_TRUE(cells.boundary.empty());
  for (int c = 0; c < 24; ++c)
    EXPECT_EQ(cells.interior[static_cast<std::size_t>(c)], c);
}

TEST(CellClassification, HaloAdjacentPlanesAreBoundary) {
  GridSpec spec;
  spec.cells = {8, 4, 4};  // all-periodic default
  Partition partition(spec, {2, 1, 1});
  for (int s = 0; s < 2; ++s) {
    const Subdomain& sub = partition.subdomain(s);
    // Both x faces of each 4x4x4 shard are remote (the second via the
    // periodic wrap); y/z wrap inside the full-span view.
    EXPECT_EQ(sub.cells.boundary.size(), 2u * 4 * 4);
    EXPECT_EQ(sub.cells.interior.size(), 2u * 4 * 4);
    EXPECT_EQ(sub.cells.interior.size() + sub.cells.boundary.size(),
              static_cast<std::size_t>(sub.grid.num_cells()));
    for (int c : sub.cells.boundary) {
      const auto coords = sub.grid.coords(c);
      EXPECT_TRUE(coords[0] == 0 || coords[0] == sub.size[0] - 1) << c;
    }
    for (int c : sub.cells.interior) {
      const auto coords = sub.grid.coords(c);
      EXPECT_TRUE(coords[0] > 0 && coords[0] < sub.size[0] - 1) << c;
    }
  }
}

TEST(CellClassification, OutflowEdgesNeedNoHaloAndStayInterior) {
  GridSpec spec;
  spec.cells = {4, 3, 3};
  spec.boundary = {BoundaryKind::kOutflow, BoundaryKind::kOutflow,
                   BoundaryKind::kOutflow};
  Partition partition(spec, {2, 1, 1});
  for (int s = 0; s < 2; ++s) {
    const Subdomain& sub = partition.subdomain(s);
    // Only the inter-shard interface plane reads exchanged data; the true
    // domain edge builds ghost states, so its cells stay interior.
    EXPECT_EQ(sub.cells.boundary.size(), 3u * 3);
    const int plane = s == 0 ? sub.size[0] - 1 : 0;
    for (int c : sub.cells.boundary)
      EXPECT_EQ(sub.grid.coords(c)[0], plane);
  }
}

}  // namespace
}  // namespace exastp

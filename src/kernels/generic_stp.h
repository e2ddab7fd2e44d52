// Generic STP kernel — the paper's scalar reference implementation
// (Sec. II-B, Fig. 1 pseudocode). Each Taylor order computes
// p[o+1] = sum_d (D_d F_d(p[o]) + B_d(p[o]) D_d p[o]) plus the point
// source's o-th time derivative.
//
// Faithful to ExaHyPE's generic kernels, this variant is dimensioned at
// runtime (order and quantity count are plain ints), calls the PDE terms
// through the virtual PdeRuntime interface at every quadrature node, and
// stores the complete space-time predictor: p[o], flux[o][d], dF[o][d] and
// gradQ[o][d] for every Taylor order o — the O(N^{d+1} m d) footprint whose
// L2 overflow Sec. IV-A analyses. Contractions are naive per-node dot
// products along the derivative direction (strided, not vectorizable);
// only the trailing Taylor accumulation sweeps run over contiguous memory
// where the compiler's baseline auto-vectorizer can pack them.
#pragma once

#include <memory>

#include "exastp/basis/basis_tables.h"
#include "exastp/kernels/stp_common.h"
#include "exastp/pde/pde_base.h"

namespace exastp {

class GenericStp {
 public:
  /// The kernel keeps a reference to `pde`; the caller owns it.
  GenericStp(const PdeRuntime& pde, int order,
             NodeFamily family = NodeFamily::kGaussLegendre);

  /// Engine-facing layout: unpadded AoS (m_pad == m).
  const AosLayout& layout() const { return aos_; }
  /// Bytes of kernel-internal scratch (footprint metric of Sec. IV-A).
  std::size_t workspace_bytes() const;

  void compute(const double* q, double dt,
               const std::array<double, 3>& inv_dx, const SourceTerm* source,
               const StpOutputs& out);

 private:
  // Index helpers into the space-time scratch arrays.
  std::size_t p_index(int o) const { return static_cast<std::size_t>(o) * cell_; }
  std::size_t od_index(int o, int d) const {
    return (static_cast<std::size_t>(o) * 3 + d) * cell_;
  }

  const PdeRuntime& pde_;
  const BasisTables& basis_;
  int n_;      // nodes per dimension (paper's order N)
  int m_;      // quantities per node
  std::size_t cell_;  // n^3 * m
  AosLayout aos_;

  AlignedVector p_;      // (n+1) * cell_   : Taylor derivatives of q
  AlignedVector flux_;   // n * 3 * cell_   : flux per order and dimension
  AlignedVector df_;     // n * 3 * cell_   : derived flux + ncp
  AlignedVector gradq_;  // n * 3 * cell_   : spatial gradients
};

/// Wraps a GenericStp into the type-erased StpKernel handle.
StpKernel make_generic_stp(std::shared_ptr<const PdeRuntime> pde, int order,
                           NodeFamily family = NodeFamily::kGaussLegendre);

}  // namespace exastp

// Generic STP kernel — the paper's scalar reference implementation
// (Sec. II-B, Fig. 1 pseudocode). Each Taylor order computes
// p[o+1] = sum_d (D_d F_d(p[o]) + B_d(p[o]) D_d p[o]) plus the point
// source's o-th time derivative.
//
// The recursion, its complete space-time storage (p[o], flux[o][d],
// dF[o][d] and gradQ[o][d] for every Taylor order o — the O(N^{d+1} m d)
// footprint whose L2 overflow Sec. IV-A analyses) and the output tail are
// SpacetimeStp's (spacetime_stp.h), shared with LoG. This file holds what
// is the generic kernel's own, faithful to ExaHyPE's generic kernels:
//  * the PDE terms are called through the virtual PdeRuntime interface at
//    every quadrature node, on a runtime quantity count;
//  * contractions are naive per-node dot products along the derivative
//    direction (strided, not vectorizable);
//  * the kernel runs at Isa::kScalar on the unpadded layout (m_pad == m)
//    whatever ISA is asked for, so only the driver's contiguous Taylor
//    sweeps run packed, at the 128 bits the baseline auto-vectorizer emits.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "exastp/kernels/spacetime_stp.h"
#include "exastp/pde/pde_base.h"

namespace exastp {

/// The generic kernel's user functions: the runtime PDE it owns, one
/// virtual call per node.
class RuntimeUserFns {
 public:
  explicit RuntimeUserFns(std::unique_ptr<const PdeRuntime> pde)
      : pde_(std::move(pde)), info_(pde_->info()) {}

  void flux(const double* q, int d, double* f) const { pde_->flux(q, d, f); }
  void ncp(const double* q, const double* grad, int d, double* out) const {
    pde_->ncp(q, grad, d, out);
  }
  std::uint64_t flux_flops() const { return pde_->flux_flops(); }
  std::uint64_t ncp_flops() const { return pde_->ncp_flops(); }
  int vars() const { return info_.vars; }
  int quants() const { return info_.quants; }

 private:
  std::unique_ptr<const PdeRuntime> pde_;
  PdeInfo info_;
};

/// The generic kernel's derivative: for every output node, a dot product
/// over the n nodes of its line along d, strided through the cell.
struct NaiveDerivative {
  static void apply(Isa isa, const AosLayout& aos, const double* diff,
                    double inv_h, int d, const double* flux, const double* p,
                    double* df, double* gradq);
};

using GenericStp = SpacetimeStp<RuntimeUserFns, NaiveDerivative>;

// Compiled once, in generic_stp.cpp.
extern template class SpacetimeStp<RuntimeUserFns, NaiveDerivative>;

}  // namespace exastp

// LOH1-like scenario: "Layer Over a Halfspace" (Day & Bradley [19]),
// the seismic benchmark the paper's evaluation builds on (Sec. VI).
//
// A soft sediment layer sits on top of a stiffer halfspace; a point source
// (Ricker wavelet, vertical-velocity forcing as a simple moment surrogate)
// radiates from below the interface and a surface receiver records the
// wavefield. The canonical LOH1 material contrast is used:
//
//              rho      cp      cs     (km/s, g/cm^3 scaled units)
//   layer      2.6      4.0     2.0
//   halfspace  2.7      6.0     3.464
//
// This reproduction runs the scenario on a small periodic-free box with
// absorbing sides and a free-ish (wall) top; it exercises heterogeneous
// material, point sources and receivers — the full code path of the paper's
// benchmark application. The box and its boundaries differ from the
// reference setup's half-space, so it claims no waveform-level agreement
// with the published LOH1 reference solutions.
#pragma once

#include <memory>

#include "exastp/kernels/stp_common.h"
#include "exastp/solver/ader_dg_solver.h"

namespace exastp {

struct Loh1Config {
  /// Domain size (km); the material interface plane sits at z = layer_depth.
  std::array<double, 3> extent{8.0, 8.0, 8.0};
  std::array<int, 3> cells{4, 4, 4};
  double layer_depth = 2.0;  ///< soft layer occupies z < layer_depth

  // Materials (layer over halfspace).
  double layer_rho = 2.6, layer_cp = 4.0, layer_cs = 2.0;
  double half_rho = 2.7, half_cp = 6.0, half_cs = 3.464;

  // Source: Ricker wavelet on the vertical velocity below the interface.
  std::array<double, 3> source_position{4.0, 4.0, 3.0};
  double source_frequency = 1.0;
  double source_delay = 1.2;

  // Receiver on the surface plane.
  std::array<double, 3> receiver_position{6.0, 4.0, 0.1};

  int order = 4;
  StpVariant variant = StpVariant::kAosoaSplitCk;
};

/// Nodal initial condition: zero wavefield over the two-material medium.
/// Shared by make_loh1_solver and the "loh1" scenario registration.
InitialCondition loh1_initial_condition(const Loh1Config& config);

/// The Ricker point source below the interface.
MeshPointSource loh1_point_source(const Loh1Config& config);

/// Builds a fully configured solver (elastic PDE, materials, boundaries,
/// point source) for the scenario.
std::unique_ptr<AderDgSolver> make_loh1_solver(const Loh1Config& config,
                                               Isa isa);

}  // namespace exastp

// Whole-mesh solution writers: CSV (nodal values) and legacy-VTK (cell
// averages). Streaming per-step output lives in src/io/ (observer hooks,
// receiver networks, incremental writers); these stay the post-hoc dumps.
#pragma once

#include <string>
#include <vector>

#include "exastp/solver/solver_base.h"

namespace exastp {

/// Writes every quadrature node as one CSV row:
/// x,y,z,q0,...,q{m-1}. Intended for small meshes / debugging.
void write_csv(const SolverBase& solver, const std::string& path);

/// Writes cell averages of the listed quantities as a legacy-VTK
/// STRUCTURED_POINTS file readable by ParaView.
void write_vtk_cell_averages(const SolverBase& solver,
                             const std::vector<int>& quantities,
                             const std::vector<std::string>& names,
                             const std::string& path);

}  // namespace exastp

#include "exastp/solver/output.h"

#include <fstream>

#include "exastp/common/check.h"

namespace exastp {

void write_csv(const SolverBase& solver, const std::string& path) {
  std::ofstream out(path);
  EXASTP_CHECK_MSG(out.good(), "cannot open " + path);
  const auto& layout = solver.layout();
  const int n = layout.n;
  out << "x,y,z";
  for (int s = 0; s < layout.m; ++s) out << ",q" << s;
  out << "\n";
  for (int c = 0; c < solver.grid().num_cells(); ++c) {
    const double* qc = solver.cell_dofs(c);
    for (int k3 = 0; k3 < n; ++k3)
      for (int k2 = 0; k2 < n; ++k2)
        for (int k1 = 0; k1 < n; ++k1) {
          const auto x = solver.node_position(c, k1, k2, k3);
          out << x[0] << "," << x[1] << "," << x[2];
          for (int s = 0; s < layout.m; ++s)
            out << "," << qc[layout.idx(k3, k2, k1, s)];
          out << "\n";
        }
  }
}

void write_vtk_cell_averages(const SolverBase& solver,
                             const std::vector<int>& quantities,
                             const std::vector<std::string>& names,
                             const std::string& path) {
  EXASTP_CHECK(quantities.size() == names.size());
  std::ofstream out(path);
  EXASTP_CHECK_MSG(out.good(), "cannot open " + path);
  const auto& grid = solver.grid();
  const auto& layout = solver.layout();
  const auto& basis = solver.basis();
  const auto cells = grid.spec().cells;
  const int n = layout.n;

  out << "# vtk DataFile Version 3.0\nexastp cell averages\nASCII\n"
      << "DATASET STRUCTURED_POINTS\n"
      << "DIMENSIONS " << cells[0] << " " << cells[1] << " " << cells[2]
      << "\n"
      << "ORIGIN " << grid.spec().origin[0] << " " << grid.spec().origin[1]
      << " " << grid.spec().origin[2] << "\n"
      << "SPACING " << grid.dx(0) << " " << grid.dx(1) << " " << grid.dx(2)
      << "\n"
      << "POINT_DATA " << grid.num_cells() << "\n";

  for (std::size_t f = 0; f < quantities.size(); ++f) {
    out << "SCALARS " << names[f] << " double 1\nLOOKUP_TABLE default\n";
    for (int c = 0; c < grid.num_cells(); ++c) {
      const double* qc = solver.cell_dofs(c);
      double avg = 0.0;
      for (int k3 = 0; k3 < n; ++k3)
        for (int k2 = 0; k2 < n; ++k2)
          for (int k1 = 0; k1 < n; ++k1)
            avg += basis.weights[k1] * basis.weights[k2] * basis.weights[k3] *
                   qc[layout.idx(k3, k2, k1, quantities[f])];
      out << avg << "\n";
    }
  }
}

}  // namespace exastp

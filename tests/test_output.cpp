// Tests for src/solver/output: CSV writer, VTK writer.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "exastp/kernels/registry.h"
#include "exastp/pde/advection.h"
#include "exastp/solver/ader_dg_solver.h"
#include "exastp/solver/output.h"

namespace exastp {
namespace {

AderDgSolver tiny_solver() {
  AdvectionPde pde;
  GridSpec grid;
  grid.cells = {2, 1, 1};
  auto runtime = std::make_shared<PdeAdapter<AdvectionPde>>(pde);
  AderDgSolver solver(
      runtime, make_stp_kernel(pde, StpVariant::kGeneric, 2, Isa::kScalar),
      grid);
  solver.set_initial_condition(
      [](const std::array<double, 3>& x, double* q) {
        for (int s = 0; s < AdvectionPde::kQuants; ++s)
          q[s] = x[0] + 10.0 * s;
      });
  return solver;
}

int count_lines(const std::string& path) {
  std::ifstream in(path);
  int lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  return lines;
}

TEST(CsvWriter, EmitsHeaderAndOneRowPerNode) {
  auto solver = tiny_solver();
  const std::string path = "/tmp/exastp_out_test.csv";
  write_csv(solver, path);
  // 2 cells x 2^3 nodes + header.
  EXPECT_EQ(count_lines(path), 2 * 8 + 1);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "x,y,z,q0,q1,q2,q3,q4");
  std::remove(path.c_str());
}

TEST(CsvWriter, FailsOnUnwritablePath) {
  auto solver = tiny_solver();
  EXPECT_THROW(write_csv(solver, "/nonexistent-dir/out.csv"),
               std::invalid_argument);
}

TEST(VtkWriter, ProducesLegacyHeaderAndData) {
  auto solver = tiny_solver();
  const std::string path = "/tmp/exastp_out_test.vtk";
  write_vtk_cell_averages(solver, {0, 2}, {"a", "b"}, path);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string body = ss.str();
  EXPECT_NE(body.find("# vtk DataFile Version 3.0"), std::string::npos);
  EXPECT_NE(body.find("DIMENSIONS 2 1 1"), std::string::npos);
  EXPECT_NE(body.find("SCALARS a double 1"), std::string::npos);
  EXPECT_NE(body.find("SCALARS b double 1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(VtkWriter, CellAverageOfLinearFieldIsMidpointValue) {
  auto solver = tiny_solver();
  const std::string path = "/tmp/exastp_out_avg.vtk";
  write_vtk_cell_averages(solver, {0}, {"q0"}, path);
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line) && line != "LOOKUP_TABLE default") {
  }
  double a = 0.0, b = 0.0;
  in >> a >> b;
  // Quantity 0 = x; averages over [0, .5] and [.5, 1] are .25 and .75.
  EXPECT_NEAR(a, 0.25, 1e-12);
  EXPECT_NEAR(b, 0.75, 1e-12);
  std::remove(path.c_str());
}

TEST(VtkWriter, RejectsMismatchedNames) {
  auto solver = tiny_solver();
  EXPECT_THROW(
      write_vtk_cell_averages(solver, {0, 1}, {"only_one"}, "/tmp/x.vtk"),
      std::invalid_argument);
}

}  // namespace
}  // namespace exastp

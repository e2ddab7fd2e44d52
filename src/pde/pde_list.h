// The one list of PDEs: X(ARG, Pde) for each.
//
// The user functions are fixed before compilation, as in the paper's kernel
// generator: each ISA translation unit instantiates every listed PDE's line
// functions (pde_lines_impl.h) and face solver (kernels/face_impl.h), and
// the engine's PDE table (engine/pde_registry.cpp) holds one KernelFactory
// per entry. A PDE outside this list has no kernels to link against.
#pragma once

#include "exastp/pde/acoustic.h"
#include "exastp/pde/advection.h"
#include "exastp/pde/curvilinear_elastic.h"
#include "exastp/pde/elastic.h"
#include "exastp/pde/maxwell.h"

#define EXASTP_FOR_EACH_PDE(X, ARG) \
  X(ARG, AdvectionPde)              \
  X(ARG, AdvectionNcpPde)           \
  X(ARG, AcousticPde)               \
  X(ARG, ElasticPde)                \
  X(ARG, MaxwellPde)                \
  X(ARG, CurvilinearElasticPde)

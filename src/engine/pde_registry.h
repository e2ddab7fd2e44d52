// The PDE table: the runtime face of the kernel generator.
//
// make_stp_kernel (kernels/registry.h) is a template switch — it needs the
// concrete PDE type at compile time, exactly like the paper's generated
// kernels hard-code the user functions. KernelFactory type-erases that
// switch behind one virtual call, so a *runtime string* ("acoustic",
// "curvilinear_elastic", ...) selects the PDE while every kernel variant
// underneath stays fully templated and optimized. The table holds one
// factory per PDE of EXASTP_FOR_EACH_PDE (pde/pde_list.h), the list the
// line functions and face solvers are instantiated from.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "exastp/common/check.h"
#include "exastp/kernels/registry.h"
#include "exastp/pde/pde_base.h"

namespace exastp {

/// Type-erased producer of everything the engine needs for one PDE: the
/// runtime view (face terms, boundary conditions, generic kernels) and
/// configured STP kernels for any (variant, order, isa).
class KernelFactory {
 public:
  virtual ~KernelFactory() = default;

  /// Table key, identical to the PDE's kName.
  virtual const std::string& name() const = 0;
  virtual PdeInfo info() const = 0;
  /// The type-erased pointwise view; one shared instance per factory.
  virtual std::shared_ptr<const PdeRuntime> runtime() const = 0;
  /// Builds a configured kernel — the virtual wrapper around the
  /// make_stp_kernel template switch. precision=kF32 selects the
  /// float-storage SplitCK-family kernels (fp64 boundary, see
  /// docs/precision.md); other variants reject it.
  virtual StpKernel make_kernel(
      StpVariant variant, int order, Isa isa,
      NodeFamily family = NodeFamily::kGaussLegendre,
      Precision precision = Precision::kF64) const = 0;
  /// Fills the material/geometry parameter entries (s in [vars, quants)) of
  /// one node with the PDE's background medium (Pde::default_parameters),
  /// so generic scenarios can initialize any PDE.
  virtual void default_parameters(double* node) const = 0;
};

/// The name() of every entry of `table`, sorted.
template <class T>
std::vector<std::string> names_of(
    const std::vector<std::shared_ptr<const T>>& table) {
  std::vector<std::string> names;
  for (const auto& entry : table) names.push_back(entry->name());
  std::sort(names.begin(), names.end());
  return names;
}

/// The entry of `table` named `name`; throws `unknown <kind> "<name>"
/// (known: ...)` on a miss. The one lookup of the PDE and scenario tables.
template <class T>
std::shared_ptr<const T> find_named(
    const std::vector<std::shared_ptr<const T>>& table,
    const std::string& name, const std::string& kind) {
  for (const auto& entry : table)
    if (entry->name() == name) return entry;
  std::string known;
  for (const std::string& key : names_of(table))
    known += (known.empty() ? "" : ", ") + key;
  EXASTP_FAIL("unknown " + kind + " \"" + name + "\" (known: " + known + ")");
}

/// The factory of the PDE named `name`; throws with the known names.
std::shared_ptr<const KernelFactory> find_pde(const std::string& name);

/// Every PDE name, sorted.
std::vector<std::string> pde_names();

}  // namespace exastp

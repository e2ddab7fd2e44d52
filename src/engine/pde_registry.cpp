#include "exastp/engine/pde_registry.h"

#include "exastp/pde/pde_list.h"

namespace exastp {
namespace {

/// Implements KernelFactory for one CRTP PDE struct.
template <class Pde>
class TypedKernelFactory final : public KernelFactory {
 public:
  TypedKernelFactory() : runtime_(std::make_shared<PdeAdapter<Pde>>(pde_)) {}

  const std::string& name() const override { return name_; }
  PdeInfo info() const override { return runtime_->info(); }
  std::shared_ptr<const PdeRuntime> runtime() const override {
    return runtime_;
  }
  StpKernel make_kernel(StpVariant variant, int order, Isa isa,
                        NodeFamily family, Precision precision) const override {
    return make_stp_kernel(pde_, variant, order, isa, family, precision);
  }
  void default_parameters(double* node) const override {
    Pde::default_parameters(node);
  }

 private:
  std::string name_ = Pde::kName;
  Pde pde_;
  std::shared_ptr<const PdeRuntime> runtime_;
};

#define EXASTP_PDE_FACTORY(UNUSED, PDE) \
  std::make_shared<TypedKernelFactory<PDE>>(),

const std::vector<std::shared_ptr<const KernelFactory>>& pde_table() {
  static const std::vector<std::shared_ptr<const KernelFactory>> table = {
      EXASTP_FOR_EACH_PDE(EXASTP_PDE_FACTORY, )};
  return table;
}

#undef EXASTP_PDE_FACTORY

}  // namespace

std::shared_ptr<const KernelFactory> find_pde(const std::string& name) {
  return find_named(pde_table(), name, "PDE");
}

std::vector<std::string> pde_names() { return names_of(pde_table()); }

}  // namespace exastp

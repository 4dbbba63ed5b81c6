#include "finance/bond_model.h"

#include <cmath>
#include <utility>

#include "common/macros.h"

namespace vaolib::finance {

numeric::Pde1dProblem MakeBondPdeProblem(const Bond& bond,
                                         const BondModelConfig& config) {
  numeric::Pde1dProblem problem;
  const double half_var = 0.5 * bond.sigma * bond.sigma;
  const double drift_const = bond.kappa * bond.mu;
  const double drift_slope = bond.kappa + bond.q;
  const double cashflow = bond.annual_cashflow;
  const double spread = bond.spread;

  problem.diffusion = [half_var](double) { return half_var; };
  problem.convection = [drift_const, drift_slope](double x) {
    return drift_const - drift_slope * x;
  };
  problem.reaction = [spread](double x) { return x + spread; };
  problem.source = [cashflow](double) { return cashflow; };
  problem.terminal = [](double) { return 0.0; };

  problem.x_min = config.x_min;
  problem.x_max = config.x_max;
  problem.t_end = bond.maturity_years;
  // The financial "linearity" boundary condition F_xx = 0 at both rate
  // extremes, standard for one-factor bond PDE lattices.
  problem.left_boundary = numeric::BoundaryKind::kLinear;
  problem.right_boundary = numeric::BoundaryKind::kLinear;
  return problem;
}

BondPricingFunction::BondPricingFunction(std::vector<Bond> bonds,
                                         BondModelConfig config)
    : bonds_(std::move(bonds)), config_(std::move(config)) {}

Result<vao::ResultObjectPtr> BondPricingFunction::Invoke(
    const std::vector<double>& args, WorkMeter* meter) const {
  if (args.size() != 2) {
    return Status::InvalidArgument("bond_model expects (rate, bond_index)");
  }
  const double rate = args[0];
  if (rate < config_.x_min || rate > config_.x_max) {
    return Status::OutOfRange("interest rate outside model domain");
  }
  const double index_arg = args[1];
  if (!(index_arg >= 0.0) || index_arg != std::floor(index_arg) ||
      index_arg >= static_cast<double>(bonds_.size())) {
    return Status::InvalidArgument("bond index out of range");
  }
  const auto& bond = bonds_[static_cast<std::size_t>(index_arg)];
  // Everything MakeBondPdeProblem reads, so bonds with equal parameters
  // share profiles in an active vao::PdeProfileCache.
  const std::vector<double> problem_key = {
      bond.annual_cashflow, bond.maturity_years, bond.sigma, bond.kappa,
      bond.mu, bond.q, bond.spread, config_.x_min, config_.x_max};
  return vao::PdeResultObject::Create(MakeBondPdeProblem(bond, config_), rate,
                                      config_.pde, meter, problem_key);
}

}  // namespace vaolib::finance

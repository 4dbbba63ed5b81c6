// Copyright 2026 The vaolib Authors.
// BondModel: the Stanton-style [28] one-factor bond valuation model of the
// paper's experiments, expressed as the Section 4.1 PDE
//
//   (1/2) sigma^2 F_xx + [kappa*mu - (kappa+q) x] F_x + F_t - r(x) F + C = 0
//
// with terminal condition F(x, t_mat) = 0 (all value is in the passthrough
// cash-flow stream C, per the paper's "value of a bond is 0 at maturity").
// Discounting uses r(x) = x + spread so the price genuinely depends on the
// queried interest rate. The model is exposed both as a
// VariableAccuracyFunction over (rate, bond_index) -- the VAO path -- and,
// via CalibratedBlackBox, as the traditional baseline.

#ifndef VAOLIB_FINANCE_BOND_MODEL_H_
#define VAOLIB_FINANCE_BOND_MODEL_H_

#include <string>
#include <vector>

#include "finance/bond.h"
#include "numeric/pde_solver.h"
#include "vao/pde_result_object.h"
#include "vao/result_object.h"

namespace vaolib::finance {

/// \brief Model-wide configuration shared by all bonds.
struct BondModelConfig {
  /// Short-rate PDE domain; queries outside are rejected.
  double x_min = 0.0;
  double x_max = 0.12;
  /// Result-object tuning: initial grid, minWidth ($.01 for prices),
  /// extrapolation safety factor.
  vao::PdeResultOptions pde;
};

/// \brief Builds the valuation PDE problem for \p bond under \p config.
numeric::Pde1dProblem MakeBondPdeProblem(const Bond& bond,
                                         const BondModelConfig& config);

/// \brief The model() UDF of the paper's queries: a VariableAccuracyFunction
/// over a fixed portfolio, invoked with args = {interest_rate, bond_index}.
class BondPricingFunction : public vao::VariableAccuracyFunction {
 public:
  BondPricingFunction(std::vector<Bond> bonds, BondModelConfig config);

  const std::string& name() const override { return name_; }
  int arity() const override { return 2; }

  /// args[0] = decimal interest rate in [x_min, x_max]; args[1] = bond index
  /// (integral value in [0, bonds().size())). The object is keyed by the
  /// bond's parameters and the rate domain, so it reuses profiles through
  /// an active vao::PdeProfileCache.
  Result<vao::ResultObjectPtr> Invoke(const std::vector<double>& args,
                                      WorkMeter* meter) const override;

  const std::vector<Bond>& bonds() const { return bonds_; }
  const BondModelConfig& config() const { return config_; }

  /// Convenience: argument vector for (rate, bond i).
  std::vector<double> ArgsFor(double rate, std::size_t bond_index) const {
    return {rate, static_cast<double>(bond_index)};
  }

 private:
  std::string name_ = "bond_model";
  std::vector<Bond> bonds_;
  BondModelConfig config_;
};

}  // namespace vaolib::finance

#endif  // VAOLIB_FINANCE_BOND_MODEL_H_

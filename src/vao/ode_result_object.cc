#include "vao/ode_result_object.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace vaolib::vao {

namespace {

// Conservative one-term bounds: A ~= value - K2*dx^2, inflated by safety.
Bounds OneTermBounds(double value, double k2, double dx, double safety) {
  const double err = k2 * dx * dx;
  return Bounds(value - safety * std::max(err, 0.0),
                value - safety * std::min(err, 0.0));
}

}  // namespace

OdeResultObject::OdeResultObject(numeric::OdeBvpProblem problem,
                                 double query_x,
                                 const OdeResultOptions& options,
                                 WorkMeter* meter)
    : ResultObjectBase(meter),
      problem_(std::move(problem)),
      query_x_(query_x),
      options_(options) {}

Result<ResultObjectPtr> OdeResultObject::Create(numeric::OdeBvpProblem problem,
                                                double query_x,
                                                const OdeResultOptions& options,
                                                WorkMeter* meter) {
  if (options.min_width <= 0.0) {
    return Status::InvalidArgument("min_width must be > 0");
  }
  if (options.safety_factor < 1.0) {
    return Status::InvalidArgument("safety_factor must be >= 1");
  }
  if (options.initial_intervals < 2) {
    return Status::InvalidArgument("initial_intervals must be >= 2");
  }
  auto object = std::unique_ptr<OdeResultObject>(
      new OdeResultObject(std::move(problem), query_x, options, meter));

  // F1 at dx*, F2 at dx*/2 seed K2 = (4/3)(F1 - F2)/dx^2 (error O(dx^2):
  // F1 - F2 = K2 dx^2 - K2 dx^2/4 = (3/4) K2 dx^2).
  const int n1 = options.initial_intervals;
  VAOLIB_ASSIGN_OR_RETURN(
      const double f1,
      numeric::SolveOdeBvp(object->problem_, n1, query_x, meter));
  VAOLIB_ASSIGN_OR_RETURN(
      const double f2,
      numeric::SolveOdeBvp(object->problem_, 2 * n1, query_x, meter));

  const double dx1 = (object->problem_.b - object->problem_.a) / n1;
  object->k2_ = (4.0 / 3.0) * (f1 - f2) / (dx1 * dx1);
  object->intervals_ = 2 * n1;
  object->value_ = f2;
  object->RefreshDerivedState();
  return ResultObjectPtr(std::move(object));
}

void OdeResultObject::RefreshDerivedState() {
  const double dx = Dx();
  bounds_ = OneTermBounds(value_, k2_, dx, options_.safety_factor);
  const double predicted = value_ - 0.75 * k2_ * dx * dx;
  est_bounds_ =
      OneTermBounds(predicted, k2_, dx * 0.5, options_.safety_factor);
  est_cost_ = static_cast<std::uint64_t>(2 * intervals_ - 1);
}

Status OdeResultObject::Iterate() {
  if (iterations() >= options_.max_iterations) {
    return Status::ResourceExhausted("ODE result object at max_iterations");
  }
  ChargeStateOverhead();

  const double dx = Dx();
  const int next_intervals = intervals_ * 2;
  const auto solved =
      numeric::SolveOdeBvp(problem_, next_intervals, query_x_, meter());
  if (!solved.ok()) return solved.status();

  k2_ = (4.0 / 3.0) * (value_ - solved.value()) / (dx * dx);
  intervals_ = next_intervals;
  value_ = solved.value();
  BumpIterations();
  RefreshDerivedState();
  return Status::OK();
}

Result<ResultObjectPtr> OdeFunction::Invoke(const std::vector<double>& args,
                                            WorkMeter* meter) const {
  if (static_cast<int>(args.size()) != arity_) {
    return Status::InvalidArgument(
        name_ + " expects " + std::to_string(arity_) + " args, got " +
        std::to_string(args.size()));
  }
  VAOLIB_ASSIGN_OR_RETURN(auto built, builder_(args));
  return OdeResultObject::Create(std::move(built.first), built.second,
                                 options_, meter);
}

}  // namespace vaolib::vao

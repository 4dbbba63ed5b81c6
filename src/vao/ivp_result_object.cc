#include "vao/ivp_result_object.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace vaolib::vao {

namespace {

// Conservative one-term bounds: A ~= value - K*h^4, inflated by safety.
Bounds FourthOrderBounds(double value, double k, double h, double safety) {
  const double err = k * h * h * h * h;
  return Bounds(value - safety * std::max(err, 0.0),
                value - safety * std::min(err, 0.0));
}

}  // namespace

IvpResultObject::IvpResultObject(numeric::OdeIvpProblem problem,
                                 const IvpResultOptions& options,
                                 WorkMeter* meter)
    : ResultObjectBase(meter),
      problem_(std::move(problem)),
      options_(options) {}

Result<ResultObjectPtr> IvpResultObject::Create(
    numeric::OdeIvpProblem problem, const IvpResultOptions& options,
    WorkMeter* meter) {
  if (options.min_width <= 0.0) {
    return Status::InvalidArgument("min_width must be > 0");
  }
  if (options.safety_factor < 1.0) {
    return Status::InvalidArgument("safety_factor must be >= 1");
  }
  if (options.initial_steps < 1) {
    return Status::InvalidArgument("initial_steps must be >= 1");
  }
  auto object = std::unique_ptr<IvpResultObject>(
      new IvpResultObject(std::move(problem), options, meter));

  // F(h) - F(h/2) = K h^4 (1 - 1/16) = (15/16) K h^4.
  const int n1 = options.initial_steps;
  VAOLIB_ASSIGN_OR_RETURN(const double f1,
                          numeric::SolveOdeIvpRk4(object->problem_, n1,
                                                  meter));
  VAOLIB_ASSIGN_OR_RETURN(const double f2,
                          numeric::SolveOdeIvpRk4(object->problem_, 2 * n1,
                                                  meter));
  const double h1 = (object->problem_.t1 - object->problem_.t0) / n1;
  object->k_ = (16.0 / 15.0) * (f1 - f2) / (h1 * h1 * h1 * h1);
  object->steps_ = 2 * n1;
  object->value_ = f2;
  object->RefreshDerivedState();
  return ResultObjectPtr(std::move(object));
}

void IvpResultObject::RefreshDerivedState() {
  const double h = StepSize();
  bounds_ = FourthOrderBounds(value_, k_, h, options_.safety_factor);
  // Halving removes 15/16 of the modelled error.
  const double predicted = value_ - (15.0 / 16.0) * k_ * h * h * h * h;
  est_bounds_ =
      FourthOrderBounds(predicted, k_, h * 0.5, options_.safety_factor);
  est_cost_ = static_cast<std::uint64_t>(steps_) * 2 * 4;
}

Status IvpResultObject::Iterate() {
  if (iterations() >= options_.max_iterations) {
    return Status::ResourceExhausted("IVP result object at max_iterations");
  }
  ChargeStateOverhead();

  const double h = StepSize();
  const int next_steps = steps_ * 2;
  const auto solved = numeric::SolveOdeIvpRk4(problem_, next_steps, meter());
  if (!solved.ok()) return solved.status();

  k_ = (16.0 / 15.0) * (value_ - solved.value()) / (h * h * h * h);
  steps_ = next_steps;
  value_ = solved.value();
  BumpIterations();
  RefreshDerivedState();
  return Status::OK();
}

std::string IvpResultObject::batch_key() const {
  if (iterations() >= options_.max_iterations) return {};
  return "ivp:" + std::to_string(steps_);
}

std::vector<Status> IvpResultObject::IterateGroup(
    const std::vector<IvpResultObject*>& objects,
    std::vector<std::uint64_t>* spent) {
  const std::size_t k = objects.size();
  std::vector<Status> statuses(k, Status::OK());
  spent->assign(k, 0);
  if (k == 0) return statuses;

  const std::string key = objects[0]->batch_key();
  WorkMeter* meter = objects[0]->meter();
  for (const IvpResultObject* object : objects) {
    if (key.empty() || object->batch_key() != key ||
        object->meter() != meter) {
      statuses.assign(k, Status::InvalidArgument(
                             "IVP iterate group needs one shared batch_key "
                             "and meter"));
      return statuses;
    }
  }

  const int next_steps = objects[0]->steps_ * 2;
  numeric::OdeIvpBatch batch;
  batch.problems.resize(k);
  std::vector<double> hs(k);
  for (std::size_t i = 0; i < k; ++i) {
    IvpResultObject* object = objects[i];
    object->ChargeStateOverhead();
    batch.problems[i] = object->problem_;
    hs[i] = object->StepSize();
  }

  numeric::BatchKernelReport report;
  std::vector<double> values;
  const Status solve_status =
      numeric::SolveOdeIvpRk4Batch(batch, next_steps, meter, &values, &report);
  if (!solve_status.ok()) {
    for (std::size_t i = 0; i < k; ++i) {
      statuses[i] = solve_status;
      (*spent)[i] = 2;  // the state overhead already charged
    }
    return statuses;
  }

  const std::uint64_t step_cost = static_cast<std::uint64_t>(next_steps) * 4;
  for (std::size_t i = 0; i < k; ++i) {
    IvpResultObject* object = objects[i];
    (*spent)[i] = 2;
    if (!report.ok(i)) {
      statuses[i] = Status::NumericError("RK4 trajectory became non-finite");
      continue;
    }
    (*spent)[i] += step_cost;
    const double h = hs[i];
    object->k_ = (16.0 / 15.0) * (object->value_ - values[i]) /
                 (h * h * h * h);
    object->steps_ = next_steps;
    object->value_ = values[i];
    object->BumpIterations();
    object->RefreshDerivedState();
  }
  return statuses;
}

Result<ResultObjectPtr> IvpFunction::Invoke(const std::vector<double>& args,
                                            WorkMeter* meter) const {
  if (static_cast<int>(args.size()) != arity_) {
    return Status::InvalidArgument(
        name_ + " expects " + std::to_string(arity_) + " args, got " +
        std::to_string(args.size()));
  }
  VAOLIB_ASSIGN_OR_RETURN(numeric::OdeIvpProblem problem, builder_(args));
  return IvpResultObject::Create(std::move(problem), options_, meter);
}

}  // namespace vaolib::vao

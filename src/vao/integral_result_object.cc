#include "vao/integral_result_object.h"

#include <utility>

#include "common/macros.h"

namespace vaolib::vao {

IntegralResultObject::IntegralResultObject(numeric::RefinableIntegral integral,
                                           const IntegralResultOptions& options,
                                           WorkMeter* meter)
    : ResultObjectBase(meter),
      integral_(std::make_unique<numeric::RefinableIntegral>(
          std::move(integral))),
      options_(options) {}

Result<ResultObjectPtr> IntegralResultObject::Create(
    IntegralProblem problem, const IntegralResultOptions& options,
    WorkMeter* meter) {
  if (options.min_width <= 0.0) {
    return Status::InvalidArgument("min_width must be > 0");
  }
  VAOLIB_ASSIGN_OR_RETURN(
      numeric::RefinableIntegral integral,
      numeric::RefinableIntegral::Create(std::move(problem.integrand),
                                         problem.a, problem.b,
                                         options.integral, meter));
  return ResultObjectPtr(
      new IntegralResultObject(std::move(integral), options, meter));
}

Status IntegralResultObject::Iterate() {
  if (iterations() >= options_.max_iterations) {
    return Status::ResourceExhausted(
        "integral result object at max_iterations");
  }
  ChargeStateOverhead();
  VAOLIB_RETURN_IF_ERROR(integral_->Refine(meter()));
  BumpIterations();
  return Status::OK();
}

std::string IntegralResultObject::batch_key() const {
  if (iterations() >= options_.max_iterations) return {};
  if (integral_->level() >= options_.integral.max_level) return {};
  return "intg:" + std::to_string(static_cast<int>(options_.integral.rule)) +
         ":" + std::to_string(integral_->level());
}

std::vector<Status> IntegralResultObject::IterateGroup(
    const std::vector<IntegralResultObject*>& objects,
    std::vector<std::uint64_t>* spent) {
  const std::size_t k = objects.size();
  std::vector<Status> statuses(k, Status::OK());
  spent->assign(k, 0);
  if (k == 0) return statuses;

  const std::string key = objects[0]->batch_key();
  WorkMeter* meter = objects[0]->meter();
  for (const IntegralResultObject* object : objects) {
    if (key.empty() || object->batch_key() != key ||
        object->meter() != meter) {
      statuses.assign(k, Status::InvalidArgument(
                             "integral iterate group needs one shared "
                             "batch_key and meter"));
      return statuses;
    }
  }

  std::vector<numeric::RefinableIntegral*> integrals(k);
  std::vector<std::uint64_t> refine_cost(k);
  for (std::size_t i = 0; i < k; ++i) {
    IntegralResultObject* object = objects[i];
    object->ChargeStateOverhead();
    integrals[i] = object->integral_.get();
    refine_cost[i] = object->integral_->CostOfNextRefine();
  }

  const Status refine_status =
      numeric::RefinableIntegral::RefineBatch(integrals, meter);
  if (!refine_status.ok()) {
    for (std::size_t i = 0; i < k; ++i) {
      statuses[i] = refine_status;
      (*spent)[i] = 2;  // the state overhead already charged
    }
    return statuses;
  }

  for (std::size_t i = 0; i < k; ++i) {
    IntegralResultObject* object = objects[i];
    (*spent)[i] = 2 + refine_cost[i];
    object->BumpIterations();
  }
  return statuses;
}

Result<ResultObjectPtr> IntegralFunction::Invoke(
    const std::vector<double>& args, WorkMeter* meter) const {
  if (static_cast<int>(args.size()) != arity_) {
    return Status::InvalidArgument(
        name_ + " expects " + std::to_string(arity_) + " args, got " +
        std::to_string(args.size()));
  }
  VAOLIB_ASSIGN_OR_RETURN(IntegralProblem problem, builder_(args));
  return IntegralResultObject::Create(std::move(problem), options_, meter);
}

}  // namespace vaolib::vao

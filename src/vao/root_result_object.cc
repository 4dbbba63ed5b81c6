#include "vao/root_result_object.h"

#include <utility>

#include "common/macros.h"

namespace vaolib::vao {

RootResultObject::RootResultObject(numeric::BracketingRootFinder finder,
                                   const RootResultOptions& options,
                                   WorkMeter* meter)
    : ResultObjectBase(meter),
      finder_(std::make_unique<numeric::BracketingRootFinder>(
          std::move(finder))),
      options_(options) {}

Result<ResultObjectPtr> RootResultObject::Create(
    RootProblem problem, const RootResultOptions& options, WorkMeter* meter) {
  if (options.min_width <= 0.0) {
    return Status::InvalidArgument("min_width must be > 0");
  }
  VAOLIB_ASSIGN_OR_RETURN(
      numeric::BracketingRootFinder finder,
      numeric::BracketingRootFinder::Create(std::move(problem.f), problem.lo,
                                            problem.hi, options.finder,
                                            meter));
  return ResultObjectPtr(
      new RootResultObject(std::move(finder), options, meter));
}

Status RootResultObject::Iterate() {
  if (iterations() >= options_.max_iterations) {
    return Status::ResourceExhausted("root result object at max_iterations");
  }
  ChargeStateOverhead();
  VAOLIB_RETURN_IF_ERROR(finder_->Step(meter()));
  BumpIterations();
  return Status::OK();
}

Result<ResultObjectPtr> RootFunction::Invoke(const std::vector<double>& args,
                                             WorkMeter* meter) const {
  if (static_cast<int>(args.size()) != arity_) {
    return Status::InvalidArgument(
        name_ + " expects " + std::to_string(arity_) + " args, got " +
        std::to_string(args.size()));
  }
  VAOLIB_ASSIGN_OR_RETURN(RootProblem problem, builder_(args));
  return RootResultObject::Create(std::move(problem), options_, meter);
}

}  // namespace vaolib::vao

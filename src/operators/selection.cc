#include "operators/selection.h"

#include <string>
#include <utility>

#include "common/macros.h"
#include "operators/iteration_task.h"

namespace vaolib::operators {

namespace {

// Refines \p object while \p undecided(bounds) holds and the stopping
// condition has not been reached: a one-row MultiRowDecisionTask driven to
// completion, stepped with \p meter (the meter the object charges, or
// null). The row's failure -- malformed bounds, an Iterate() error, or
// ResourceExhausted once its refinement stalls -- is the call's error.
Result<OperatorStats> Decide(vao::ResultObject* object, const char* who,
                             MultiRowDecisionTask::UndecidedFn undecided,
                             WorkMeter* meter) {
  if (object == nullptr) {
    return Status::InvalidArgument(std::string(who) +
                                   " over null result object");
  }
  OperatorOptions options;
  options.meter = meter;
  auto task = MultiRowDecisionTask::Create({object}, who, std::move(undecided),
                                           options);
  if (!task.ok()) return task.status();
  VAOLIB_RETURN_IF_ERROR(DriveTask(task->get(), meter));
  VAOLIB_RETURN_IF_ERROR((*task)->RowStatus(0));
  return (*task)->stats();
}

}  // namespace

Result<SelectionOutcome> SelectionVao::Evaluate(vao::ResultObject* object,
                                                WorkMeter* meter) const {
  SelectionOutcome outcome;
  // Iterate while the bounds still straddle the constant and the stopping
  // condition has not been reached (Section 3.2).
  const auto undecided = [constant = constant_](const Bounds& b) {
    return b.Contains(constant);
  };
  VAOLIB_ASSIGN_OR_RETURN(outcome.stats,
                          Decide(object, "selection", undecided, meter));
  outcome.short_circuited = !object->AtStoppingCondition();
  outcome.final_bounds = object->bounds();

  if (!outcome.final_bounds.Contains(constant_)) {
    // Bounds exclude the constant: every value in them decides identically.
    outcome.passes =
        CompareExact(outcome.final_bounds.Mid(), cmp_, constant_);
    return outcome;
  }

  // Converged while still straddling: the value is treated as equal to the
  // constant (Section 3.2), so strict predicates fail, non-strict pass.
  outcome.resolved_as_equal = true;
  outcome.passes = CompareExact(constant_, cmp_, constant_);
  return outcome;
}

Result<SelectionOutcome> SelectionVao::Evaluate(
    const vao::VariableAccuracyFunction& function,
    const std::vector<double>& args, WorkMeter* meter) const {
  VAOLIB_ASSIGN_OR_RETURN(vao::ResultObjectPtr object,
                          function.Invoke(args, meter));
  return Evaluate(object.get(), meter);
}

Result<SelectionOutcome> RangeSelectionVao::Evaluate(
    vao::ResultObject* object, WorkMeter* meter) const {
  if (!range_.IsValid()) {
    return Status::InvalidArgument("range selection needs lo <= hi");
  }

  SelectionOutcome outcome;
  // The predicate is undecided while either endpoint lies strictly inside
  // the bounds; iterate until both endpoints are cleared or convergence.
  const auto undecided = [range = range_](const Bounds& b) {
    return b.Contains(range.lo) || b.Contains(range.hi);
  };
  VAOLIB_ASSIGN_OR_RETURN(outcome.stats,
                          Decide(object, "range selection", undecided, meter));
  outcome.short_circuited = !object->AtStoppingCondition();
  outcome.final_bounds = object->bounds();
  const Bounds b = outcome.final_bounds;

  if (!b.Contains(range_.lo) && !b.Contains(range_.hi)) {
    // Both endpoints cleared: the whole interval decides identically.
    outcome.passes = range_.Contains(b.Mid());
    return outcome;
  }

  // Converged while straddling an endpoint: value counts as equal to that
  // endpoint, so inclusive ranges pass, exclusive ones fail.
  outcome.resolved_as_equal = true;
  outcome.passes = inclusive_;
  return outcome;
}

Result<SelectionOutcome> RangeSelectionVao::Evaluate(
    const vao::VariableAccuracyFunction& function,
    const std::vector<double>& args, WorkMeter* meter) const {
  VAOLIB_ASSIGN_OR_RETURN(vao::ResultObjectPtr object,
                          function.Invoke(args, meter));
  return Evaluate(object.get(), meter);
}

Result<MultiSelectionVao::MultiOutcome> MultiSelectionVao::Evaluate(
    vao::ResultObject* object, WorkMeter* meter) const {
  if (predicates_.empty()) {
    return Status::InvalidArgument("multi-selection with no predicates");
  }

  MultiOutcome outcome;
  // Iterate while ANY constant is still inside the bounds; the nearest
  // constant to the true value dictates the total work.
  const auto undecided = [this](const Bounds& b) {
    for (const Predicate& p : predicates_) {
      if (b.Contains(p.constant)) return true;
    }
    return false;
  };
  VAOLIB_ASSIGN_OR_RETURN(outcome.stats,
                          Decide(object, "multi-selection", undecided, meter));
  outcome.short_circuited = !object->AtStoppingCondition();
  outcome.final_bounds = object->bounds();

  outcome.passes.reserve(predicates_.size());
  outcome.resolved_as_equal.reserve(predicates_.size());
  for (const Predicate& p : predicates_) {
    if (!outcome.final_bounds.Contains(p.constant)) {
      outcome.passes.push_back(
          CompareExact(outcome.final_bounds.Mid(), p.cmp, p.constant));
      outcome.resolved_as_equal.push_back(false);
    } else {
      // Converged straddling this constant: equality semantics.
      outcome.passes.push_back(CompareExact(p.constant, p.cmp, p.constant));
      outcome.resolved_as_equal.push_back(true);
    }
  }
  return outcome;
}

Result<MultiSelectionVao::MultiOutcome> MultiSelectionVao::Evaluate(
    const vao::VariableAccuracyFunction& function,
    const std::vector<double>& args, WorkMeter* meter) const {
  VAOLIB_ASSIGN_OR_RETURN(vao::ResultObjectPtr object,
                          function.Invoke(args, meter));
  return Evaluate(object.get(), meter);
}

Result<bool> TraditionalSelection::Evaluate(
    const vao::BlackBoxFunction& function, const std::vector<double>& args,
    WorkMeter* meter) const {
  VAOLIB_ASSIGN_OR_RETURN(const double value, function.Call(args, meter));
  return CompareExact(value, cmp_, constant_);
}

}  // namespace vaolib::operators

#include "operators/selection.h"

#include "common/macros.h"
#include "common/thread_pool.h"
#include "operators/iteration_task.h"

namespace vaolib::operators {

namespace {

// Shared scaffolding of the batch paths: evaluates `eval(i, meter)` for
// every i in [0, n) with up to `threads` workers of the shared pool, filling
// `outcomes` in row order. Rows are grouped into contiguous chunks whose
// scratch meters merge into `meter` in chunk order, so work totals are
// independent of the thread count. All rows are attempted; the returned
// error (if any) is that of the lowest-indexed failing row.
//
// With a non-null `row_status`, per-row errors are quarantined there (the
// failed row keeps its default outcome) and the batch itself succeeds.
template <typename Outcome, typename EvalRow>
Result<std::vector<Outcome>> BatchEvaluate(std::size_t n, int threads,
                                           WorkMeter* meter,
                                           std::vector<Status>* row_status,
                                           const EvalRow& eval) {
  std::vector<Outcome> outcomes(n);
  if (row_status != nullptr) row_status->assign(n, Status::OK());
  auto body = [&](std::size_t begin, std::size_t end,
                  WorkMeter* chunk_meter) {
    Status first_error;
    for (std::size_t i = begin; i < end; ++i) {
      auto result = eval(i, chunk_meter);
      if (!result.ok()) {
        // Distinct indices per worker: no synchronization needed.
        if (row_status != nullptr) {
          (*row_status)[i] = result.status();
        } else if (first_error.ok()) {
          first_error = result.status();
        }
        continue;
      }
      outcomes[i] = std::move(result).value();
    }
    return first_error;
  };

  Status status;
  if (threads < 2 || n < 2) {
    status = body(0, n, meter);
  } else {
    ThreadPool::ForOptions options;
    options.max_parallelism = threads;
    status = ThreadPool::Shared().ParallelFor(n, options, meter, body);
  }
  if (!status.ok()) return status;
  return outcomes;
}

// Drives `object` while `undecided(bounds)` holds and the stopping condition
// has not been reached. The loop itself lives in SingleObjectDecisionTask
// (operators/iteration_task.h) so the engine's scheduler can run the same
// refinement step-at-a-time; this helper drives the task to completion for
// the classic blocking evaluation path, stepping it with \p meter (the
// meter the object charges, or null).
template <typename Undecided>
Status DriveWhileUndecided(vao::ResultObject* object, WorkMeter* meter,
                           const char* who, std::uint64_t* iterations,
                           const Undecided& undecided) {
  VAOLIB_ASSIGN_OR_RETURN(
      auto task, SingleObjectDecisionTask::Create(object, who, undecided));
  while (!task->Done()) {
    VAOLIB_RETURN_IF_ERROR(task->Step(meter));
  }
  *iterations += task->iterations();
  return Status::OK();
}

}  // namespace

Result<SelectionOutcome> SelectionVao::Evaluate(vao::ResultObject* object,
                                                WorkMeter* meter) const {
  if (object == nullptr) {
    return Status::InvalidArgument("selection over null result object");
  }

  SelectionOutcome outcome;
  // Iterate while the bounds still straddle the constant and the stopping
  // condition has not been reached (Section 3.2).
  VAOLIB_RETURN_IF_ERROR(DriveWhileUndecided(
      object, meter, "selection", &outcome.stats.iterations,
      [&](const Bounds& b) { return b.Contains(constant_); }));
  outcome.stats.greedy_iterations = outcome.stats.iterations;
  outcome.stats.objects_touched = outcome.stats.iterations > 0 ? 1 : 0;
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

Result<std::vector<SelectionOutcome>> SelectionVao::EvaluateBatch(
    const vao::VariableAccuracyFunction& function,
    const std::vector<std::vector<double>>& rows, int threads,
    WorkMeter* meter, std::vector<Status>* row_status) const {
  return BatchEvaluate<SelectionOutcome>(
      rows.size(), threads, meter, row_status,
      [&](std::size_t i, WorkMeter* row_meter) {
        return Evaluate(function, rows[i], row_meter);
      });
}

Result<SelectionOutcome> RangeSelectionVao::Evaluate(
    vao::ResultObject* object, WorkMeter* meter) const {
  if (object == nullptr) {
    return Status::InvalidArgument("range selection over null result object");
  }
  if (!range_.IsValid()) {
    return Status::InvalidArgument("range selection needs lo <= hi");
  }

  SelectionOutcome outcome;
  // The predicate is undecided while either endpoint lies strictly inside
  // the bounds; iterate until both endpoints are cleared or convergence.
  VAOLIB_RETURN_IF_ERROR(DriveWhileUndecided(
      object, meter, "range selection", &outcome.stats.iterations,
      [&](const Bounds& b) {
        return b.Contains(range_.lo) || b.Contains(range_.hi);
      }));
  outcome.stats.greedy_iterations = outcome.stats.iterations;
  outcome.stats.objects_touched = outcome.stats.iterations > 0 ? 1 : 0;
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

Result<std::vector<SelectionOutcome>> RangeSelectionVao::EvaluateBatch(
    const vao::VariableAccuracyFunction& function,
    const std::vector<std::vector<double>>& rows, int threads,
    WorkMeter* meter, std::vector<Status>* row_status) const {
  return BatchEvaluate<SelectionOutcome>(
      rows.size(), threads, meter, row_status,
      [&](std::size_t i, WorkMeter* row_meter) {
        return Evaluate(function, rows[i], row_meter);
      });
}

Result<MultiSelectionVao::MultiOutcome> MultiSelectionVao::Evaluate(
    vao::ResultObject* object, WorkMeter* meter) const {
  if (object == nullptr) {
    return Status::InvalidArgument("multi-selection over null result object");
  }
  if (predicates_.empty()) {
    return Status::InvalidArgument("multi-selection with no predicates");
  }

  MultiOutcome outcome;
  // Iterate while ANY constant is still inside the bounds; the nearest
  // constant to the true value dictates the total work.
  VAOLIB_RETURN_IF_ERROR(DriveWhileUndecided(
      object, meter, "multi-selection", &outcome.stats.iterations,
      [&](const Bounds& b) {
        for (const Predicate& p : predicates_) {
          if (b.Contains(p.constant)) return true;
        }
        return false;
      }));
  outcome.stats.greedy_iterations = outcome.stats.iterations;
  outcome.stats.objects_touched = outcome.stats.iterations > 0 ? 1 : 0;
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

Result<std::vector<MultiSelectionVao::MultiOutcome>>
MultiSelectionVao::EvaluateBatch(
    const std::vector<vao::ResultObject*>& objects, int threads) const {
  // Objects charge their creation meters directly (atomic), so the batch
  // passes no meter of its own.
  return BatchEvaluate<MultiOutcome>(
      objects.size(), threads, /*meter=*/nullptr, /*row_status=*/nullptr,
      [&](std::size_t i, WorkMeter* /*row_meter*/) {
        return Evaluate(objects[i]);
      });
}

Result<std::vector<MultiSelectionVao::MultiOutcome>>
MultiSelectionVao::EvaluateBatch(
    const vao::VariableAccuracyFunction& function,
    const std::vector<std::vector<double>>& rows, int threads,
    WorkMeter* meter, std::vector<Status>* row_status) const {
  return BatchEvaluate<MultiOutcome>(
      rows.size(), threads, meter, row_status,
      [&](std::size_t i, WorkMeter* row_meter) {
        return Evaluate(function, rows[i], row_meter);
      });
}

Result<bool> TraditionalSelection::Evaluate(
    const vao::BlackBoxFunction& function, const std::vector<double>& args,
    WorkMeter* meter) const {
  VAOLIB_ASSIGN_OR_RETURN(const double value, function.Call(args, meter));
  return CompareExact(value, cmp_, constant_);
}

}  // namespace vaolib::operators

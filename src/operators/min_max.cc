#include "operators/min_max.h"

#include "common/macros.h"
#include "operators/iteration_task.h"

namespace vaolib::operators {

Result<MinMaxOutcome> MinMaxVao::Evaluate(
    const std::vector<vao::ResultObject*>& objects) const {
  // The whole convergence loop lives in the resumable task; Evaluate just
  // drives it to completion.
  VAOLIB_ASSIGN_OR_RETURN(auto task,
                          MinMaxIterationTask::Create(options_, objects));
  VAOLIB_RETURN_IF_ERROR(DriveTask(task.get(), options_.meter));
  return task->Snapshot();
}

Result<MinMaxOutcome> OptimalExtremeOracle(
    const std::vector<vao::ResultObject*>& objects, std::size_t winner_index,
    ExtremeKind kind, double epsilon) {
  VAOLIB_RETURN_IF_ERROR(ValidateMinMaxInputs(objects, epsilon));
  if (winner_index >= objects.size()) {
    return Status::InvalidArgument("oracle winner_index out of range");
  }

  MinMaxOutcome outcome;
  outcome.winner_index = winner_index;
  vao::ResultObject* winner = objects[winner_index];

  // Converge the known winner to the output precision first; running it any
  // tighter would be wasted work (Section 6.2).
  while (winner->bounds().Width() > epsilon &&
         !winner->AtStoppingCondition()) {
    VAOLIB_RETURN_IF_ERROR(winner->Iterate());
    ++outcome.stats.iterations;
  }

  // Then push every rival just past the winner's bounds: a rival still
  // reaches the winner while its extreme-side end overlaps the winner's
  // opposite end.
  const Bounds winner_bounds = winner->bounds();
  const auto reaches_winner = [&](const Bounds& b) {
    return kind == ExtremeKind::kMax ? b.hi >= winner_bounds.lo
                                     : b.lo <= winner_bounds.hi;
  };
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (i == winner_index) continue;
    bool iterated = false;
    while (reaches_winner(objects[i]->bounds()) &&
           !objects[i]->AtStoppingCondition()) {
      VAOLIB_RETURN_IF_ERROR(objects[i]->Iterate());
      ++outcome.stats.iterations;
      iterated = true;
    }
    if (reaches_winner(objects[i]->bounds())) {
      outcome.tie = true;
      outcome.tied_indices.push_back(i);
    }
    if (iterated) ++outcome.stats.objects_touched;
  }
  if (outcome.stats.iterations > 0) ++outcome.stats.objects_touched;

  outcome.winner_bounds = winner->bounds();
  return outcome;
}

}  // namespace vaolib::operators

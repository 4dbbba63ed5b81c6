#include "operators/sum_ave.h"

#include <algorithm>
#include <numeric>

#include "common/macros.h"
#include "common/stats.h"
#include "operators/iteration_task.h"

namespace vaolib::operators {

Status ValidateSumAveInputs(const std::vector<vao::ResultObject*>& objects,
                            const std::vector<double>& weights,
                            double epsilon) {
  if (objects.empty()) {
    return Status::InvalidArgument("SUM/AVE over an empty object set");
  }
  if (objects.size() != weights.size()) {
    return Status::InvalidArgument("SUM/AVE weights length mismatch");
  }
  for (const auto* object : objects) {
    if (object == nullptr) {
      return Status::InvalidArgument("SUM/AVE over a null result object");
    }
    VAOLIB_RETURN_IF_ERROR(ValidateObjectBounds(*object, "SUM/AVE"));
  }
  for (const double w : weights) {
    if (!(w >= 0.0)) {
      return Status::InvalidArgument("SUM/AVE weights must be nonnegative");
    }
  }
  if (!(epsilon > 0.0)) {
    return Status::InvalidArgument("precision constraint must be > 0");
  }
  return Status::OK();
}

std::vector<double> SumWeights(std::size_t n) {
  return std::vector<double>(n, 1.0);
}

std::vector<double> AveWeights(std::size_t n) {
  return std::vector<double>(n, n == 0 ? 0.0 : 1.0 / static_cast<double>(n));
}

Result<SumOutcome> SumAveVao::Evaluate(
    const std::vector<vao::ResultObject*>& objects,
    const std::vector<double>& weights) const {
  // The whole convergence loop (scan and heap-indexed paths alike) lives in
  // the resumable task; Evaluate just drives it to completion.
  VAOLIB_ASSIGN_OR_RETURN(
      auto task, SumAveIterationTask::Create(options_, objects, weights));
  VAOLIB_RETURN_IF_ERROR(DriveTask(task.get(), options_.meter));
  return task->Snapshot();
}

Result<TraditionalSumOutcome> TraditionalWeightedSum(
    const vao::BlackBoxFunction& function,
    const std::vector<std::vector<double>>& rows,
    const std::vector<double>& weights, WorkMeter* meter) {
  if (rows.size() != weights.size()) {
    return Status::InvalidArgument("traditional SUM weights length mismatch");
  }
  TraditionalSumOutcome outcome;
  NeumaierSum sum;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    VAOLIB_ASSIGN_OR_RETURN(const double value, function.Call(rows[i], meter));
    sum.Add(weights[i] * value);
  }
  outcome.sum = sum.Sum();
  return outcome;
}

bool HybridSumVao::ShouldUseVao(const std::vector<double>& weights) const {
  if (weights.empty()) return false;
  const double total =
      std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0) return false;

  std::vector<double> sorted = weights;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  const auto hot_count = std::max<std::size_t>(
      1, static_cast<std::size_t>(options_.hot_fraction *
                                  static_cast<double>(sorted.size())));
  const double hot_weight = std::accumulate(
      sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(hot_count),
      0.0);
  return hot_weight / total >= options_.skew_threshold;
}

Result<HybridSumVao::HybridOutcome> HybridSumVao::Evaluate(
    const std::vector<vao::ResultObject*>& objects,
    const std::vector<double>& weights,
    const TraditionalCall& traditional) const {
  VAOLIB_RETURN_IF_ERROR(
      ValidateSumAveInputs(objects, weights, options_.vao.epsilon));

  HybridOutcome outcome;
  outcome.used_vao = ShouldUseVao(weights);

  if (outcome.used_vao) {
    SumAveVao vao(options_.vao);
    VAOLIB_ASSIGN_OR_RETURN(outcome.sum, vao.Evaluate(objects, weights));
    return outcome;
  }

  if (traditional) {
    NeumaierSum sum;
    NeumaierSum slack;
    for (std::size_t i = 0; i < objects.size(); ++i) {
      VAOLIB_ASSIGN_OR_RETURN(const double value, traditional(i));
      sum.Add(weights[i] * value);
      // A black-box value is accurate within the object's minWidth.
      slack.Add(weights[i] * objects[i]->min_width());
    }
    outcome.sum.sum_bounds = Bounds::Centered(sum.Sum(), 0.5 * slack.Sum());
    return outcome;
  }

  // Degraded traditional path: converge every object through the VAO
  // interface (costs ~2x a real black box for PDE-style functions).
  for (std::size_t i = 0; i < objects.size(); ++i) {
    VAOLIB_ASSIGN_OR_RETURN(const int steps,
                            vao::ConvergeToMinWidth(objects[i]));
    outcome.sum.stats.iterations += static_cast<std::uint64_t>(steps);
    if (steps > 0) ++outcome.sum.stats.objects_touched;
  }
  NeumaierSum lo;
  NeumaierSum hi;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const Bounds b = objects[i]->bounds();
    lo.Add(weights[i] * b.lo);
    hi.Add(weights[i] * b.hi);
  }
  outcome.sum.sum_bounds = Bounds(lo.Sum(), hi.Sum());
  return outcome;
}

}  // namespace vaolib::operators

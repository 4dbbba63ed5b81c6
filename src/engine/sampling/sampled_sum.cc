#include "engine/sampling/sampled_sum.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/macros.h"
#include "common/stats.h"

namespace vaolib::engine::sampling {

namespace {

// Fraction of the current sample drawn per widen step. Growing geometrically
// keeps the number of draw decisions logarithmic in the final sample size
// while each batch stays small enough for the greedy trade to re-evaluate.
constexpr std::size_t kDrawGrowthDivisor = 4;

// Delta updates to the running sums tolerated before a full compensated
// recompute. Bounded by the sample size so the amortized recompute cost per
// mutation stays O(1).
std::size_t RecomputeInterval(std::size_t n) {
  return std::max<std::size_t>(32, n);
}

constexpr const char* kLabel = "sampled_sum";

}  // namespace

SampledSumTask::SampledSumTask(const SampledAggregateOptions& options,
                               std::size_t population, RowFactory factory,
                               WeightFn weight)
    : options_(options),
      population_(population),
      factory_(std::move(factory)),
      weight_(std::move(weight)),
      sampler_(population, options.spec.seed),
      z_(NormalQuantile(0.5 * (1.0 + options.spec.confidence))) {
  // The settle state grows with the sample (DrawBatch).
  TrackObjects(0, kLabel, "refinement-stall");
}

Result<std::unique_ptr<SampledSumTask>> SampledSumTask::Create(
    const SampledAggregateOptions& options, std::size_t population,
    RowFactory factory, WeightFn weight) {
  if (population == 0) {
    return Status::InvalidArgument("sampled_sum: empty population");
  }
  if (!(options.spec.confidence > 0.0) || !(options.spec.confidence < 1.0)) {
    return Status::InvalidArgument(
        "sampled_sum: confidence must be in (0, 1), got " +
        std::to_string(options.spec.confidence));
  }
  if (!(options.spec.target_rel_error > 0.0)) {
    return Status::InvalidArgument(
        "sampled_sum: target_rel_error must be > 0, got " +
        std::to_string(options.spec.target_rel_error));
  }
  if (factory == nullptr || weight == nullptr) {
    return Status::InvalidArgument(
        "sampled_sum: row factory and weight function are required");
  }
  std::unique_ptr<SampledSumTask> task(new SampledSumTask(
      options, population, std::move(factory), std::move(weight)));
  // Draw the initial batch eagerly so a snapshot taken before the first
  // Step() (a budgeted scheduler may never grant one) already rests on a
  // variance estimate instead of an empty sample. At least 2 rows for a
  // variance, but never more than the user's hard sample cap.
  const std::size_t cap = task->SampleCap();
  const std::size_t want = std::min(
      cap,
      std::max<std::size_t>(2, std::min(options.spec.initial_samples, cap)));
  VAOLIB_RETURN_IF_ERROR(task->DrawBatch(want, options.meter));
  task->CheckStop();
  return task;
}

std::size_t SampledSumTask::SampleCap() const {
  const std::size_t cap = options_.spec.max_samples;
  return cap == 0 ? population_ : std::min(cap, population_);
}

bool SampledSumTask::Iterable(std::size_t i) const {
  return !objects_[i]->AtStoppingCondition() && !Stalled(i);
}

double SampledSumTask::ObjectScore(std::size_t i) const {
  const vao::ResultObject& object = *objects_[i];
  const Bounds cur = object.bounds();
  const Bounds est = object.est_bounds();
  const double w = std::abs(weights_[i]);
  const double reduction =
      std::max(0.0, w * ((est.lo - cur.lo) + (cur.hi - est.hi)));
  const double cost =
      static_cast<double>(std::max<std::uint64_t>(object.est_cost(), 1));
  return reduction / cost;
}

double SampledSumTask::Estimate() const {
  const std::size_t n = objects_.size();
  if (n == 0) return 0.0;
  return (static_cast<double>(population_) / static_cast<double>(n)) * sum_y_;
}

double SampledSumTask::SampleVariance() const {
  const std::size_t n = objects_.size();
  if (n < 2) return 0.0;
  const double nd = static_cast<double>(n);
  // sum_yc2_ is centered on pivot_, which RecomputeSums keeps at the sample
  // mean; the drift term corrects for incremental updates since then. Both
  // terms are O(n * s^2), so no catastrophic cancellation even when the
  // mean dwarfs the spread (the failure mode of sum y^2 - n * mean^2).
  const double drift = sum_y_ / nd - pivot_;
  return std::max(0.0, (sum_yc2_ - nd * drift * drift) / (nd - 1.0));
}

double SampledSumTask::SamplingHalf() const {
  const std::size_t n = objects_.size();
  if (n >= population_) return 0.0;  // fpc: the sample is the population
  if (n < 2) return std::numeric_limits<double>::infinity();
  const double nd = static_cast<double>(n);
  const double fpc = 1.0 - nd / static_cast<double>(population_);
  const double se = static_cast<double>(population_) *
                    std::sqrt(fpc * SampleVariance() / nd);
  return z_ * se;
}

double SampledSumTask::DeterministicHalf() const {
  const std::size_t n = objects_.size();
  if (n == 0) return std::numeric_limits<double>::infinity();
  return (static_cast<double>(population_) / static_cast<double>(n)) *
         std::max(0.0, sum_half_);
}

double SampledSumTask::CombinedHalf() const {
  return SamplingHalf() + DeterministicHalf();
}

double SampledSumTask::HalfTarget() const {
  return std::max(options_.spec.target_rel_error * std::abs(Estimate()),
                  0.5 * options_.epsilon);
}

double SampledSumTask::CurrentUncertainty() const {
  if (objects_.size() < 2) {
    // No variance estimate yet; a finite proxy keeps scheduler math sane.
    return static_cast<double>(population_);
  }
  return 2.0 * CombinedHalf();
}

void SampledSumTask::RecomputeSums() {
  const std::size_t n = objects_.size();
  NeumaierSum y, half;
  for (std::size_t i = 0; i < n; ++i) {
    const Bounds b = objects_[i]->bounds();
    y.Add(weights_[i] * b.Mid());
    half.Add(std::abs(weights_[i]) * 0.5 * b.Width());
  }
  sum_y_ = y.Sum();
  sum_half_ = half.Sum();
  // Second pass: re-center the variance pivot on the fresh mean and rebuild
  // the centered squares, so residuals stay small relative to the pivot.
  pivot_ = n == 0 ? 0.0 : sum_y_ / static_cast<double>(n);
  NeumaierSum yc2;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = weights_[i] * objects_[i]->bounds().Mid() - pivot_;
    yc2.Add(d * d);
  }
  sum_yc2_ = yc2.Sum();
  mutations_ = 0;
}

Status SampledSumTask::DrawBatch(std::size_t count, WorkMeter* meter) {
  const std::uint64_t work_before = meter != nullptr ? meter->Total() : 0;
  const std::vector<std::size_t> fresh = sampler_.Draw(count);
  for (const std::size_t row : fresh) {
    VAOLIB_ASSIGN_OR_RETURN(vao::ResultObjectPtr object, factory_(row));
    if (object == nullptr) {
      return Status::Internal("sampled_sum: row factory returned null");
    }
    VAOLIB_RETURN_IF_ERROR(operators::ValidateObjectBounds(*object, kLabel));
    const double w = weight_(row);
    const double half = std::abs(w) * 0.5 * object->bounds().Width();

    const std::size_t i = objects_.size();
    objects_.push_back(std::move(object));
    weights_.push_back(w);

    // Running means that price the next draw decision.
    mean_new_half_ += (half - mean_new_half_) / static_cast<double>(i + 1);
  }
  if (!fresh.empty() && meter != nullptr) {
    const double batch_cost = static_cast<double>(meter->Total() - work_before);
    const double per_row =
        std::max(1.0, batch_cost / static_cast<double>(fresh.size()));
    // Exponential-ish blend toward the latest batch's per-row cost.
    mean_row_cost_ = 0.5 * (mean_row_cost_ + per_row);
  }

  TrackMoreObjects(objects_.size());
  // Fresh rows move the mean, so rebuild the sums outright -- this also
  // re-centers the variance pivot before the batch's values enter it.
  RecomputeSums();

  // The heap indexes positions in the sample; growing it invalidates the
  // version table, so rebuild from scratch (draws happen O(log n) times).
  heap_.Reset(objects_.size());
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    if (Iterable(i)) heap_.Update(i, ObjectScore(i));
  }
  return Status::OK();
}

Status SampledSumTask::IterateObject(std::size_t i, double score,
                                     WorkMeter* meter) {
  vao::ResultObject& object = *objects_[i];
  const Bounds before = object.bounds();
  const double y_before = weights_[i] * before.Mid();
  const double half_before = std::abs(weights_[i]) * 0.5 * before.Width();

  VAOLIB_RETURN_IF_ERROR(
      IterateObserved(i, &object, "sample", meter, score, score));
  VAOLIB_RETURN_IF_ERROR(Settle(i, object));
  ++stats_.greedy_iterations;

  const Bounds after = object.bounds();
  const double y_after = weights_[i] * after.Mid();
  const double half_after = std::abs(weights_[i]) * 0.5 * after.Width();
  const double dev_before = y_before - pivot_;
  const double dev_after = y_after - pivot_;
  sum_y_ += y_after - y_before;
  sum_yc2_ += dev_after * dev_after - dev_before * dev_before;
  sum_half_ += half_after - half_before;
  ++mutations_;

  // A converged or stalled object's (sound, frozen) bounds stay in the
  // sums; it just stops competing.
  if (Iterable(i)) heap_.Update(i, ObjectScore(i));
  return Status::OK();
}

bool SampledSumTask::CheckStop() {
  // CombinedHalf() is infinite until a variance estimate exists (fewer than
  // 2 samples short of the whole population), so no premature stop here.
  if (CombinedHalf() <= HalfTarget()) {
    Finish(true);
    return true;
  }
  return false;
}

void SampledSumTask::Finish(bool converged) {
  RecomputeSums();
  MarkDone(converged);
}

Status SampledSumTask::StepImpl(WorkMeter* meter) {
  if (mutations_ >= RecomputeInterval(objects_.size())) RecomputeSums();
  if (CheckStop()) return Status::OK();

  const std::size_t n = objects_.size();
  const std::size_t cap = SampleCap();
  const double scale = static_cast<double>(population_) /
                       static_cast<double>(std::max<std::size_t>(n, 1));

  // Candidate A: iterate the most valuable sampled object the allowance
  // covers. Dearer pops go back on the heap afterwards.
  std::size_t best = 0;
  double best_score = 0.0;
  bool have_object = false;
  std::vector<std::pair<std::size_t, double>> unaffordable;
  while (!have_object && heap_.PopBest(&best, &best_score)) {
    have_object = Affordable(*objects_[best]);
    if (!have_object) unaffordable.emplace_back(best, best_score);
  }
  for (const auto& [i, score] : unaffordable) heap_.Update(i, score);
  const double iterate_rate = have_object ? scale * best_score : 0.0;

  // Candidate B: widen the sample by as many rows as the allowance covers
  // at the observed per-row creation cost. Benefit is the predicted drop of
  // the combined half-width (the sampling term shrinks ~1/sqrt(n); the
  // deterministic term moves toward the mean fresh-row half-width).
  double draw_rate = -1.0;
  std::size_t batch = 0;
  if (n < cap) {
    batch = std::min(cap - n,
                     std::max<std::size_t>(1, n / kDrawGrowthDivisor));
    if (allowance() != kUnlimited) {
      const double rows =
          std::floor(static_cast<double>(allowance()) / mean_row_cost_);
      if (rows < static_cast<double>(batch)) {
        batch = static_cast<std::size_t>(rows);
      }
    }
  }
  if (batch > 0) {
    const double nb = static_cast<double>(n + batch);
    const double s2 = SampleVariance();
    const double pop = static_cast<double>(population_);
    const double half_s_next =
        n + batch >= population_
            ? 0.0
            : z_ * pop * std::sqrt((1.0 - nb / pop) * s2 / nb);
    const double det_next =
        (pop / nb) *
        (std::max(0.0, sum_half_) + static_cast<double>(batch) *
                                        std::max(0.0, mean_new_half_));
    const double benefit = std::max(
        0.0, CombinedHalf() - (half_s_next + det_next));
    const double cost =
        std::max(1.0, static_cast<double>(batch) * mean_row_cost_);
    draw_rate = benefit / cost;
  }

  if (!have_object && batch == 0 && (!unaffordable.empty() || n < cap)) {
    // Something is left, but not at this allowance: wait for the cheapest
    // blocked iterate (nothing to prepay when only a draw was blocked).
    std::vector<std::size_t> blocked;
    for (const auto& [i, score] : unaffordable) blocked.push_back(i);
    ParkOnCheapest(objects_, blocked);
    return Status::OK();
  }
  ++stats_.choose_steps;

  if (have_object && (iterate_rate >= draw_rate || batch == 0)) {
    VAOLIB_RETURN_IF_ERROR(IterateObject(best, best_score, meter));
    CheckStop();
    return Status::OK();
  }
  if (batch > 0) {
    // The popped candidate is not lost: DrawBatch rebuilds the whole heap.
    VAOLIB_RETURN_IF_ERROR(DrawBatch(batch, meter));
    CheckStop();
    return Status::OK();
  }

  // No iterable object and no rows left to draw: the target is unreachable.
  // With the whole population sampled this is the exact operator's
  // limited-by-min-width outcome (the interval is the hard bound sum);
  // under a user sample cap the answer is simply as good as allowed.
  limited_by_min_width_ = true;
  Finish(/*converged=*/cap >= population_ && sampler_.Exhausted());
  return Status::OK();
}

SampledSumOutcome SampledSumTask::Snapshot() const {
  SampledSumOutcome outcome;
  const std::size_t n = objects_.size();
  double det_half = DeterministicHalf();
  double samp_half = SamplingHalf();
  double confidence = options_.spec.confidence;
  if (!std::isfinite(det_half) || !std::isfinite(samp_half)) {
    // No variance estimate (and for n == 0 not even a point estimate):
    // there is no defensible confidence interval, and a zero-width interval
    // would be an unsound lie. Report a population-scale placeholder tagged
    // confidence 0 -- the Answer-level "no probabilistic claim" marker.
    // Create()'s eager initial draw makes this reachable only when the
    // sample is capped below 2 rows.
    const double placeholder = static_cast<double>(population_);
    if (!std::isfinite(det_half)) det_half = placeholder;
    if (!std::isfinite(samp_half)) samp_half = placeholder;
    confidence = 0.0;
  }
  outcome.answer = vao::Answer::Approximate(
      Bounds::Centered(Estimate(), det_half + samp_half), confidence, n,
      population_, 2.0 * det_half, 2.0 * samp_half);
  outcome.converged = Converged();
  outcome.limited_by_min_width = limited_by_min_width_;
  outcome.stats = TalliedStats();
  outcome.stats.objects_touched = n;
  return outcome;
}

}  // namespace vaolib::engine::sampling

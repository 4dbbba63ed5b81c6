// Copyright 2026 The vaolib Authors.
// SampledSumTask: the approximate tier's SUM/AVE engine -- a resumable
// IterationTask that estimates a weighted total over an N-row relation from
// a growing uniform row sample instead of converging every row.
//
// Estimator (SRSWOR Horvitz-Thompson over bound midpoints):
//   T_hat      = (N/n) * sum_i w_i * mid_i          over the n sampled rows
//   se         = N * sqrt((1 - n/N) * s^2 / n)       s^2 = sample var of w*mid
//   det_half   = (N/n) * sum_i w_i * (H_i - L_i)/2   residual VAO bound error
//   interval   = T_hat +/- (z * se + det_half)       z = NormalQuantile((1+c)/2)
// The det_half term absorbs the midpoint's deterministic bias, so the
// combined interval covers the true total whenever the CLT interval covers
// the population midpoint total -- i.e. with >= the stated confidence. At
// n == N the finite-population correction zeroes the sampling term and the
// interval degenerates to the hard [sum w*L, sum w*H].
//
// s^2 is computed from residuals against a pivot re-centered on the sample
// mean at every full recompute, never from the textbook sum-of-squares form
// E[y^2] - E[y]^2, which cancels catastrophically on large-mean/small-
// variance data and would silently collapse the interval.
//
// Create() draws the initial sample eagerly, so every Snapshot() -- even
// one taken before a budgeted scheduler grants the task its first Step() --
// already has a variance estimate behind its interval. The only snapshots
// without one (possible solely under a sample cap below 2) are tagged
// confidence 0: an explicit "no probabilistic claim" marker, never a
// fabricated tight interval.
//
// Each Step() plays the paper's greedy trade one level up: it compares the
// best "iterate an existing sampled object tighter" candidate (ScoreHeap
// over w_i * predicted-width-reduction / estCPU, exactly the SUM/AVE score)
// against a "draw more samples" pseudo-candidate whose benefit is the
// predicted shrink of the *combined* interval from widening the sample, and
// executes whichever buys more interval width per unit of work. Because the
// task is a regular IterationTask, the cross-query WorkScheduler prices
// that trade against every other query's next step as well. Each iterate
// goes through the IterationTask settle step (bounds check, stall guard,
// iteration cap), and a budgeted step only considers what its allowance
// covers: an iterate by the object's est_cost(), a draw by the observed
// mean creation cost per row.

#ifndef VAOLIB_ENGINE_SAMPLING_SAMPLED_SUM_H_
#define VAOLIB_ENGINE_SAMPLING_SAMPLED_SUM_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/work_meter.h"
#include "engine/query.h"
#include "engine/sampling/sampler.h"
#include "operators/iteration_task.h"
#include "operators/operator_base.h"
#include "operators/score_heap.h"
#include "vao/answer.h"
#include "vao/result_object.h"

namespace vaolib::engine::sampling {

/// \brief Configuration for one sampled aggregate run.
struct SampledAggregateOptions {
  /// Confidence / error target / seed / sample caps.
  ApproxSpec spec;

  /// Absolute width floor: the task also stops once the combined interval
  /// width is below this (the query's epsilon).
  double epsilon = 0.01;

  /// Meter charged for the eager initial draw in Create() (nullable; later
  /// draws are charged to the meter each Step() receives).
  WorkMeter* meter = nullptr;
};

/// \brief Snapshot/outcome of a sampled aggregate.
struct SampledSumOutcome {
  /// The combined probabilistic interval with provenance; sound at the
  /// answer's stated confidence, even mid-run. Snapshots taken before a
  /// variance estimate exists (reachable only when the sample is capped
  /// below 2 rows) carry confidence 0 and a placeholder width instead of
  /// pretending to a confidence interval.
  vao::Answer answer;
  bool converged = false;
  /// True when the error target was unreachable because every sampled
  /// object hit its min-width floor with the whole population drawn.
  bool limited_by_min_width = false;
  operators::OperatorStats stats;
};

/// \brief Resumable sampled SUM/AVE. AVE is the same machine with weights
/// 1/N (the engine's AveWeights convention), so one task covers both.
class SampledSumTask : public operators::IterationTask {
 public:
  /// Materializes the result object for one relation row (binds the row's
  /// arguments and invokes the UDF; creation work is charged by the UDF to
  /// whatever meter it was given).
  using RowFactory =
      std::function<Result<vao::ResultObjectPtr>(std::size_t row)>;

  /// Weight of one relation row in the total.
  using WeightFn = std::function<double(std::size_t row)>;

  /// \p population is the relation row count (must be > 0); factories are
  /// copied into the task and must stay valid for its lifetime. Draws the
  /// initial sample (clamped to the sample cap) before returning, charging
  /// it to options.meter, so the task is snapshot-ready even if it is never
  /// stepped; row materialization failures surface here.
  static Result<std::unique_ptr<SampledSumTask>> Create(
      const SampledAggregateOptions& options, std::size_t population,
      RowFactory factory, WeightFn weight);

  const char* name() const override { return "sampled_sum"; }
  double CurrentUncertainty() const override;

  /// The best currently-provable probabilistic answer (sound at the stated
  /// confidence at any point; `converged` only once the target is met).
  SampledSumOutcome Snapshot() const;

  /// Rows sampled so far.
  std::size_t sample_size() const { return objects_.size(); }

 protected:
  Status StepImpl(WorkMeter* meter) override;

 private:
  SampledSumTask(const SampledAggregateOptions& options,
                 std::size_t population, RowFactory factory, WeightFn weight);

  /// Draws and materializes up to \p count fresh rows; updates sums, the
  /// settle state and the score heap. Charges creation bookkeeping to
  /// \p meter.
  Status DrawBatch(std::size_t count, WorkMeter* meter);

  /// Iterates sampled object \p i (picked at greedy \p score) once through
  /// the observed-iterate seam, costed on \p meter, and settles it;
  /// updates sums and heap.
  Status IterateObject(std::size_t i, double score, WorkMeter* meter);

  /// True while sampled object \p i may still tighten (neither at its
  /// stopping condition nor stalled).
  bool Iterable(std::size_t i) const;

  /// Rebuilds sum_y_/sum_half_/sum_yc2_ from scratch with compensated
  /// accumulators and re-centers the variance pivot on the current mean
  /// (called after every draw and periodically to shed incremental drift).
  void RecomputeSums();

  /// Bessel-corrected sample variance of y over the current sample, from
  /// pivot-centered residuals (0 when n < 2).
  double SampleVariance() const;

  /// Greedy score of Iterable() sampled object \p i (w * predicted width
  /// shrink per unit cost).
  double ObjectScore(std::size_t i) const;

  /// Current combined half-width z*se + det_half.
  double CombinedHalf() const;
  double SamplingHalf() const;     ///< z * se at the current sample
  double DeterministicHalf() const;///< det_half at the current sample
  double Estimate() const;         ///< T_hat
  double HalfTarget() const;       ///< stopping threshold on CombinedHalf()

  /// Max rows this run may sample (min(population, spec.max_samples)).
  std::size_t SampleCap() const;

  /// True when the stopping condition holds; finalizes if so.
  bool CheckStop();
  void Finish(bool converged);

  SampledAggregateOptions options_;
  std::size_t population_;
  RowFactory factory_;
  WeightFn weight_;
  PrefixSampler sampler_;
  double z_ = 0.0;

  /// Parallel arrays over sampled rows.
  std::vector<vao::ResultObjectPtr> objects_;
  std::vector<double> weights_;

  /// Incremental accumulators over sampled rows (y = w * mid):
  double sum_y_ = 0.0;     ///< sum y
  double sum_half_ = 0.0;  ///< sum w * (H - L)/2
  double pivot_ = 0.0;     ///< variance pivot (mean y at last recompute)
  double sum_yc2_ = 0.0;   ///< sum (y - pivot_)^2
  std::size_t mutations_ = 0;  ///< delta updates since last recompute
  double mean_new_half_ = 0.0; ///< running mean of w*half at creation time
  double mean_row_cost_ = 1.0; ///< running mean creation cost per row

  operators::ScoreHeap heap_;
  bool limited_by_min_width_ = false;
};

}  // namespace vaolib::engine::sampling

#endif  // VAOLIB_ENGINE_SAMPLING_SAMPLED_SUM_H_

// Copyright 2026 The vaolib Authors.
// Shared types for VAO and traditional operators (Section 5 of the paper).

#ifndef VAOLIB_OPERATORS_OPERATOR_BASE_H_
#define VAOLIB_OPERATORS_OPERATOR_BASE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/bounds.h"
#include "common/rng.h"
#include "common/stall_guard.h"
#include "common/status.h"
#include "common/work_meter.h"
#include "obs/trace.h"
#include "operators/cost_feedback.h"
#include "vao/result_object.h"

namespace vaolib::operators {

/// \brief Comparison operator of a selection predicate  f(args) <cmp> c.
enum class Comparator {
  kGreaterThan,
  kGreaterEqual,
  kLessThan,
  kLessEqual,
};

/// \brief Returns the source-level spelling (">", ">=", "<", "<=").
const char* ComparatorToString(Comparator cmp);

/// \brief Truth value of  value <cmp> constant  for exact inputs.
bool CompareExact(double value, Comparator cmp, double constant);

/// \brief Which extreme a MIN/MAX operator seeks.
enum class ExtremeKind { kMax, kMin };

/// \brief Iteration-choice strategy kind for aggregate VAOs. kGreedy is the
/// paper's design (Section 5); the others exist for the strategy ablation.
/// Resolved into a pluggable IterationStrategy object by MakeStrategy()
/// (operators/iteration_strategy.h).
enum class StrategyKind {
  kGreedy,       ///< best estimated benefit per CPU cycle (the paper)
  kRoundRobin,   ///< cycle through live candidates
  kRandom,       ///< uniform over live candidates
  kBatchGreedy,  ///< top-K by greedy score per cycle (batch execution tier);
                 ///< K = OperatorOptions::batch_k, K=1 == kGreedy exactly
  /// Greedy over calibration-corrected estimates: each candidate's
  /// estCPU/estL/estH is rescaled by the per-(object, kind) `feedback`
  /// ratios when available, else by the live CalibrationSnapshot bias for
  /// its solver kind. Zero-history, zero-sample candidates score on their
  /// raw estimates bit-exactly, so with no feedback this is kGreedy.
  kCalibratedGreedy,
  /// kCalibratedGreedy plus sentinel re-ranking: a small probe budget is
  /// spent on the cheapest members of each correlation group (objects
  /// sharing a correlation_key()); the observed-vs-predicted ratios fitted
  /// from the probes rescale the rest of the group's scores before the
  /// main greedy loop spends on them.
  kSentinelGreedy,
};

/// \brief Returns the source-level spelling ("greedy", "round_robin",
/// "random", "batch_greedy", "calibrated_greedy", "sentinel_greedy").
const char* StrategyKindName(StrategyKind kind);

/// \brief True for the strategies that score on corrected estimates
/// (kCalibratedGreedy, kSentinelGreedy).
bool StrategyUsesCorrections(StrategyKind kind);

/// Safety valve against adversarial inputs: a task whose settled iterates
/// exceed it fails NotConverged.
inline constexpr std::uint64_t kMaxTotalIterations = 50'000'000;

/// \brief Options shared by every operator family -- the one consolidated
/// configuration surface behind the unified operator API. Family-specific
/// option structs (MinMaxOptions, SumAveOptions, TopKOptions) derive from
/// this, so code that configures "threads + strategy" works the
/// same way against any operator. Function-result caching composes at the
/// function layer (vao::CachingFunction), not here.
struct OperatorOptions {
  /// Precision constraint on the output bounds width (the paper's epsilon).
  double epsilon = 0.01;
  /// Iteration-choice strategy for the adaptive refinement loop.
  StrategyKind strategy = StrategyKind::kGreedy;
  /// Objects refined per adaptive cycle under kBatchGreedy: the strategy
  /// picks the top-K candidates by greedy score and the operator executes
  /// them through the batch kernels (vao::IterateBatch). 1 preserves the
  /// paper's one-object-per-cycle semantics exactly; ignored by the other
  /// strategies.
  int batch_k = 1;
  /// Required when strategy == kRandom.
  Rng* rng = nullptr;
  /// chooseIter bookkeeping work is charged here when non-null.
  WorkMeter* meter = nullptr;
  /// Parallel pre-phase (ParallelCoarseConverge): with threads > 1 and a
  /// finite coarse_width, every object is first refined toward width <=
  /// max(coarse_width, its minWidth) on the shared pool; the adaptive loop
  /// -- inherently serial, each choice depends on all prior ones -- then
  /// runs from those deterministic states. coarse_max_steps caps the
  /// Iterate() calls any one object gets in the pre-phase (0 = refine all
  /// the way to coarse_width). Defaults keep the exact serial behaviour.
  int threads = 1;
  double coarse_width = std::numeric_limits<double>::infinity();
  std::uint64_t coarse_max_steps = 0;

  /// \name Predictive planning (operators/cost_feedback.h).
  /// When `feedback` is non-null every aggregate task iterate's
  /// actual-vs-estimated cost and shrink is recorded into it (under any
  /// strategy, so a baseline run can collect the same audit), and the
  /// corrected strategies (kCalibratedGreedy / kSentinelGreedy) consult it
  /// when scoring. Entries are keyed by the object's position, so a store
  /// kept across runs must see the same rows in the same order each run.
  /// The observation is the one record IterationTask takes per iterate
  /// (which also feeds the decision trace and the calibration accounts);
  /// its cost is the delta of `meter`, so `meter` must be the meter the
  /// objects charge. Iterates of the parallel coarse pre-phase run outside
  /// the task and are never recorded; selection-row tasks record nothing.
  /// @{
  CostFeedback* feedback = nullptr;
  /// Probes per correlation group under kSentinelGreedy (clamped to group
  /// size - 1; groups of one are never probed).
  int sentinel_probes = 2;
  /// Test-only (differential mutation mode): inverts the correction ratios
  /// and bias signs, so corrections actively worsen estimates. The sweep's
  /// calibration audit must catch this.
  bool mutate_flip_correction = false;
  /// @}
};

/// \brief Per-evaluation execution statistics reported by every operator.
struct OperatorStats {
  std::uint64_t iterations = 0;     ///< total Iterate() calls issued
  std::uint64_t choose_steps = 0;   ///< strategy invocations (chooseIter)
  std::uint64_t objects_touched = 0;///< objects iterated at least once
  /// Objects whose refinement stalled (Iterate() kept succeeding but the
  /// bounds stopped tightening before minWidth) and were quarantined from
  /// further iteration. Their frozen bounds stay sound, so aggregate
  /// answers remain correct but may be wider than requested.
  std::uint64_t stalled_objects = 0;

  /// \name Phase split of `iterations` (coarse + greedy + finalize ==
  /// iterations for the aggregate operators; selections are all-greedy).
  /// @{
  std::uint64_t coarse_iterations = 0;   ///< parallel coarse pre-phase
  std::uint64_t greedy_iterations = 0;   ///< serial adaptive loop
  std::uint64_t finalize_iterations = 0; ///< winner/member refinement
  /// @}

  /// \name Predictive-planning audit (filled from each observed iterate's
  /// record when OperatorOptions::feedback is set or the strategy is
  /// kSentinelGreedy; cost errors need an attributed cost -- the step
  /// meter's delta or the batch spend). The MAE of the raw estimates is
  /// raw_cost_abs_err / cost_err_samples; of the corrected estimates,
  /// corrected_cost_abs_err / cost_err_samples. Under the uncorrected
  /// strategies the two sums are equal.
  /// @{
  std::uint64_t cost_err_samples = 0;     ///< decisions with measured cost
  std::uint64_t corrected_decisions = 0;  ///< decisions a correction changed
  double raw_cost_abs_err = 0.0;          ///< sum |actual - raw est| cost
  double corrected_cost_abs_err = 0.0;    ///< sum |actual - corrected est|
  /// @}

  /// Estimator-calibration account of this task's sampled iterates,
  /// indexed by obs::SolverKind: each observed iterate of an object with
  /// calibration_kind() >= 0 and an attributed cost, taken while
  /// obs::Enabled() (obs::CalibrationKindStats::Add drops a sample with a
  /// non-finite error). The query's ExecutionReport::calibration copies it.
  obs::CalibrationKindStats calibration[obs::kNumSolverKinds] = {};

  /// Accumulates \p other into this (e.g. per-row selection outcomes).
  void Merge(const OperatorStats& other) {
    iterations += other.iterations;
    choose_steps += other.choose_steps;
    objects_touched += other.objects_touched;
    stalled_objects += other.stalled_objects;
    coarse_iterations += other.coarse_iterations;
    greedy_iterations += other.greedy_iterations;
    finalize_iterations += other.finalize_iterations;
    cost_err_samples += other.cost_err_samples;
    corrected_decisions += other.corrected_decisions;
    raw_cost_abs_err += other.raw_cost_abs_err;
    corrected_cost_abs_err += other.corrected_cost_abs_err;
    for (int k = 0; k < obs::kNumSolverKinds; ++k) {
      calibration[k].Merge(other.calibration[k]);
    }
  }
};

/// \brief Validates a result object's current bounds before they enter a
/// decision: both endpoints finite and lo <= hi. A solver breakdown (NaN/Inf
/// endpoints) or a buggy implementation (L > H) would otherwise flow silently
/// into predicate comparisons -- NaN compares false against everything, so a
/// poisoned row would quietly "fail" its predicate instead of surfacing.
///
/// \return NumericError naming \p who when the bounds are malformed.
Status ValidateObjectBounds(const vao::ResultObject& object, const char* who);

/// \brief Parallel pre-phase for aggregate VAOs: converges every object to
/// width <= max(\p coarse_width, its minWidth) using up to \p threads
/// workers of the shared pool, before the inherently serial greedy
/// refinement loop runs on the caller. Each object is driven by exactly one
/// worker, so its refinement path -- and the state the greedy loop starts
/// from -- depends only on \p coarse_width and \p max_steps_per_object,
/// never on the thread count.
///
/// \p max_steps_per_object caps how many Iterate() calls any single object
/// may receive during this phase (0 = uncapped). Iteration cost typically
/// grows geometrically with refinement depth, so a small cap bounds the
/// work this phase can add beyond what the greedy loop would have done,
/// while still parallelizing the broad early refinement.
///
/// \p iterations_out (if non-null) is resized to the object count and
/// filled with per-object Iterate() counts (deterministic). A non-finite
/// \p coarse_width or threads < 2 makes this a no-op. All objects are
/// attempted; returns the lowest-indexed failing object's error.
Status ParallelCoarseConverge(const std::vector<vao::ResultObject*>& objects,
                              int threads, double coarse_width,
                              std::uint64_t max_steps_per_object,
                              std::vector<std::uint64_t>* iterations_out);

}  // namespace vaolib::operators

#endif  // VAOLIB_OPERATORS_OPERATOR_BASE_H_

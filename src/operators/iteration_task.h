// Copyright 2026 The vaolib Authors.
// IterationTask: resumable operator work units.
//
// Historically each operator ran a closed convergence loop inside
// Evaluate(). This module turns those loops into explicit state machines
// that expose one loop body at a time through Step(), so a caller -- the
// operator's own Evaluate(), or the engine's cross-query WorkScheduler --
// decides when and how much to refine. A task is always sound to abandon:
// Snapshot() returns the best currently-provable answer with
// `converged = false`, which is how budgeted execution degrades gracefully
// instead of blocking.
//
// Behaviour contract: driving a task with Step() until Done() performs the
// exact same Iterate()/chooseIter sequence (and therefore the same work
// charges, stats, and answers) as the pre-task closed loops did.

#ifndef VAOLIB_OPERATORS_ITERATION_TASK_H_
#define VAOLIB_OPERATORS_ITERATION_TASK_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/stall_guard.h"
#include "common/work_meter.h"
#include "operators/iteration_strategy.h"
#include "operators/min_max.h"
#include "operators/operator_base.h"
#include "operators/score_corrector.h"
#include "operators/score_heap.h"
#include "operators/sum_ave.h"
#include "operators/top_k.h"
#include "vao/result_object.h"

namespace vaolib::operators {

/// \brief A resumable unit of operator work. Step() performs one loop body
/// of the underlying operator (at most one Iterate(), except batched
/// multi-row steps); Done() reports completion; the benefit/cost estimates
/// let a scheduler rank tasks globally.
///
/// Estimates are self-calibrating: benefit is the uncertainty reduction the
/// previous Step() achieved (the task's full remaining uncertainty before
/// the first step), cost is the work-unit delta that step charged. Tasks
/// over shared result objects may see their uncertainty shrink between
/// steps when other tasks tighten the same objects; estimates are therefore
/// hints, never soundness-bearing.
class IterationTask {
 public:
  virtual ~IterationTask() = default;

  virtual const char* name() const = 0;

  /// Predicted accuracy gain of the next Step() (>= 0; 0 once Done).
  double EstimatedBenefit() const;
  /// Predicted work units of the next Step() (>= 1).
  double EstimatedCost() const;

  /// Performs one unit of work, charging bookkeeping to \p meter (nullable;
  /// object Iterate() calls charge whatever meter the objects were created
  /// against). An error completes the task unconverged and is sticky:
  /// stepping a Done() task is FailedPrecondition.
  Status Step(WorkMeter* meter);

  /// True once the task finished (converged, exhausted its inputs, or
  /// errored). Done tasks never need another Step().
  bool Done() const { return done_; }

  /// True when Done() and the task completed its work (as opposed to
  /// erroring); budget-abandoned tasks are simply never Done.
  bool Converged() const { return done_ && converged_; }

  /// Owner label for spend attribution (the tenant id in multi-tenant
  /// serving; empty outside it). Purely descriptive: scheduling never
  /// reads it.
  const std::string& owner() const { return owner_; }
  void set_owner(std::string owner) { owner_ = std::move(owner); }

 protected:
  /// One loop body of the operator. Must call MarkDone() when the machine
  /// reaches its terminal state.
  virtual Status StepImpl(WorkMeter* meter) = 0;

  /// Current remaining-uncertainty measure (operator-specific, >= 0,
  /// trending to 0 as the task converges). Feeds the benefit estimate.
  virtual double CurrentUncertainty() const = 0;

  void MarkDone(bool converged) {
    done_ = true;
    converged_ = converged;
  }

  /// \name Observed iterates: the one seam where a task's Iterate() calls
  /// are measured against the estimates that chose them. Each helper
  /// captures an IterateRecord (bounds, est_bounds(), est cost, attributed
  /// work) once per iterate and hands it to every active sink: the decision
  /// trace (op name(), \p phase, scores), the corrector set by
  /// ObserveWith() (feedback store, sentinel fit, OperatorStats MAE audit),
  /// and the estimator-calibration histograms for objects with
  /// calibration_kind() >= 0 and an attributed cost. With no sink active
  /// nothing is captured. A failed iterate records nothing.
  /// @{

  /// Routes records to \p corrector (with \p stats for its audit); call
  /// from the subclass constructor. Both must outlive the task.
  void ObserveWith(ScoreCorrector* corrector, OperatorStats* stats) {
    sink_corrector_ = corrector;
    sink_stats_ = stats;
  }

  /// One Iterate() of \p object (the task's object \p index); its cost is
  /// the delta of \p meter (unknown when null), which must be the meter the
  /// object charges.
  Status IterateObserved(std::size_t index, vao::ResultObject* object,
                         const char* phase, WorkMeter* meter,
                         double score = 0.0, double raw_score = 0.0);

  /// One Iterate() of each object[chosen[j]]: through vao::IterateBatch
  /// with per-object spends as costs when \p threads < 2 (a null \p meter
  /// leaves them unknown), or fanned out by vao::StepAll otherwise, where
  /// costs are unattributable and no calibration sample is taken. Records
  /// follow \p chosen order; \p scores / \p raw_scores parallel it (missing
  /// entries read 0 / the score). Returns the first failing object's
  /// status, recording nothing.
  Status IterateObservedBatch(const std::vector<vao::ResultObject*>& objects,
                              const std::vector<std::size_t>& chosen,
                              const char* phase, WorkMeter* meter,
                              const std::vector<double>& scores = {},
                              const std::vector<double>& raw_scores = {},
                              int threads = 1);
  /// @}

 private:
  void Publish(const IterateRecord& record, const char* phase, double score,
               double raw_score, bool trace, bool correct);

  bool done_ = false;
  bool converged_ = false;
  bool calibrated_ = false;
  double est_benefit_ = 0.0;
  double est_cost_ = 1.0;
  std::string owner_;
  ScoreCorrector* sink_corrector_ = nullptr;
  OperatorStats* sink_stats_ = nullptr;
};

/// \brief Drives \p task to completion, honouring \p options.budget when
/// \p options.meter is present: once the meter delta since the call began
/// reaches the budget, driving stops early.
///
/// \return true when the task completed, false when the budget ran out
/// first (callers then read a partial answer via the task's Snapshot()).
Result<bool> DriveTask(IterationTask* task, const OperatorOptions& options);

/// \brief Resumable MIN/MAX aggregate (the Section 5.1 loop as a state
/// machine): coarse pre-phase, prune/guess/choose search rounds, winner
/// finalization.
class MinMaxIterationTask : public IterationTask {
 public:
  /// Validates inputs exactly as MinMaxVao::Evaluate() always has.
  /// \p objects must outlive the task.
  static Result<std::unique_ptr<MinMaxIterationTask>> Create(
      const MinMaxOptions& options,
      const std::vector<vao::ResultObject*>& objects);

  const char* name() const override { return "min_max"; }

  /// The final outcome once Done(); before that, a sound partial answer --
  /// the current best guess and an envelope interval guaranteed to contain
  /// the true extreme -- with `converged = false`.
  MinMaxOutcome Snapshot() const;

 protected:
  Status StepImpl(WorkMeter* meter) override;
  double CurrentUncertainty() const override;

 private:
  enum class Phase { kCoarse, kSearch, kFinalize };

  MinMaxIterationTask(const MinMaxOptions& options,
                      const std::vector<vao::ResultObject*>& objects,
                      std::unique_ptr<IterationStrategy> strategy);

  Bounds ViewOf(std::size_t i) const;
  Bounds EstViewOf(std::size_t i) const;
  bool EffectivelyConverged(std::size_t i) const;
  Status IterateOne(std::size_t i, std::uint64_t* phase_counter,
                    WorkMeter* meter, const char* phase, double score,
                    double raw_score);
  Status SettleIterate(std::size_t i);
  void Finish();

  MinMaxOptions options_;
  std::vector<vao::ResultObject*> objects_;
  std::unique_ptr<IterationStrategy> strategy_;
  ScoreCorrector corrector_;
  std::vector<StallGuard> stall_;
  std::vector<bool> touched_;
  std::vector<std::size_t> alive_;
  Phase phase_ = Phase::kCoarse;
  MinMaxOutcome outcome_;
};

/// \brief Resumable SUM/AVE aggregate (the Section 5.2 loop as a state
/// machine), covering both the O(N)-scan and the lazy-heap greedy paths.
class SumAveIterationTask : public IterationTask {
 public:
  static Result<std::unique_ptr<SumAveIterationTask>> Create(
      const SumAveOptions& options,
      const std::vector<vao::ResultObject*>& objects,
      std::vector<double> weights);

  const char* name() const override { return "sum_ave"; }

  /// The final outcome once Done(); before that, the current weighted-sum
  /// interval (always sound) with `converged = false`.
  SumOutcome Snapshot() const;

 protected:
  Status StepImpl(WorkMeter* meter) override;
  double CurrentUncertainty() const override;

 private:
  enum class Phase { kCoarse, kScan, kHeapScan };

  SumAveIterationTask(const SumAveOptions& options,
                      const std::vector<vao::ResultObject*>& objects,
                      std::vector<double> weights,
                      std::unique_ptr<IterationStrategy> strategy);

  Status StepScan(WorkMeter* meter);
  Status StepHeap(WorkMeter* meter);
  Status ApplyIterate(std::size_t chosen, WorkMeter* meter, const char* phase,
                      double score, double raw_score);
  Status ApplyIterateBatch(const std::vector<std::size_t>& chosen,
                           const std::vector<double>& scores,
                           const std::vector<double>& raw_scores,
                           WorkMeter* meter, const char* phase);
  Bounds ExactSum() const;
  void Finish();

  SumAveOptions options_;
  std::vector<vao::ResultObject*> objects_;
  std::vector<double> weights_;
  std::unique_ptr<IterationStrategy> strategy_;
  ScoreCorrector corrector_;
  std::vector<StallGuard> stall_;
  std::vector<bool> touched_;
  Bounds sum_;
  ScoreHeap heap_;
  Phase phase_ = Phase::kCoarse;
  SumOutcome outcome_;
};

/// \brief Resumable TOP-K aggregate: boundary-separation rounds, then
/// member finalization.
class TopKIterationTask : public IterationTask {
 public:
  static Result<std::unique_ptr<TopKIterationTask>> Create(
      const TopKOptions& options,
      const std::vector<vao::ResultObject*>& objects);

  const char* name() const override { return "top_k"; }

  /// The final outcome once Done(); before that, the current guessed
  /// member set with each member's (sound) bounds and `converged = false`.
  TopKOutcome Snapshot() const;

 protected:
  Status StepImpl(WorkMeter* meter) override;
  double CurrentUncertainty() const override;

 private:
  enum class Phase { kCoarse, kBoundary, kFinalize };

  TopKIterationTask(const TopKOptions& options,
                    const std::vector<vao::ResultObject*>& objects,
                    std::unique_ptr<IterationStrategy> strategy);

  Bounds ViewOf(std::size_t i) const;
  Bounds EstViewOf(std::size_t i) const;
  bool EffectivelyConverged(std::size_t i) const;
  Status IterateOne(std::size_t i, std::uint64_t* phase_counter,
                    WorkMeter* meter, const char* phase, double score,
                    double raw_score);
  void Finish();

  TopKOptions options_;
  std::vector<vao::ResultObject*> objects_;
  std::unique_ptr<IterationStrategy> strategy_;
  ScoreCorrector corrector_;
  std::vector<StallGuard> stall_;
  std::vector<bool> touched_;
  std::vector<std::size_t> order_;
  std::vector<std::size_t> members_;
  std::size_t finalize_cursor_ = 0;
  Phase phase_ = Phase::kCoarse;
  TopKOutcome outcome_;
};

/// \brief Resumable single-object predicate refinement -- the selection
/// family's DriveWhileUndecided loop as a task. The caller supplies the
/// undecidedness test; decision semantics stay in the selection operators.
class SingleObjectDecisionTask : public IterationTask {
 public:
  /// True while the predicate is still undecided for these bounds.
  using UndecidedFn = std::function<bool(const Bounds&)>;

  /// Validates the object's current bounds (the pre-loop check the
  /// selection operators always made). \p who labels error messages;
  /// \p object must be non-null and outlive the task.
  static Result<std::unique_ptr<SingleObjectDecisionTask>> Create(
      vao::ResultObject* object, const char* who, UndecidedFn undecided);

  const char* name() const override { return "selection"; }

  std::uint64_t iterations() const { return iterations_; }

 protected:
  Status StepImpl(WorkMeter* meter) override;
  double CurrentUncertainty() const override;

 private:
  SingleObjectDecisionTask(vao::ResultObject* object, const char* who,
                           UndecidedFn undecided)
      : object_(object), who_(who), undecided_(std::move(undecided)) {}

  vao::ResultObject* object_;
  const char* who_;
  UndecidedFn undecided_;
  StallGuard guard_;
  std::uint64_t iterations_ = 0;
};

/// \brief Resumable multi-row predicate refinement for scheduled execution:
/// one task drives a whole selection query over per-row result objects.
/// Each Step() gives every still-undecided row exactly one Iterate() --
/// batched on the shared thread pool when `threads > 1` (the per-row
/// Iterate() sequences, and thus all bounds and work totals, are
/// independent of the thread count). Rows whose refinement stalls are
/// quarantined (frozen sound bounds, counted in stats) rather than failing
/// the task.
class MultiRowDecisionTask : public IterationTask {
 public:
  using UndecidedFn = std::function<bool(const Bounds&)>;

  /// Reads `threads` and the predictive-planning store (`feedback`,
  /// `object_ids`) from \p options. The store records each refined row's
  /// predicted-vs-actual bound shrink, never its cost (see ScoreCorrector's
  /// `selection_rows`); its pointers are borrowed and must outlive the task.
  static Result<std::unique_ptr<MultiRowDecisionTask>> Create(
      std::vector<vao::ResultObject*> objects, const char* who,
      UndecidedFn undecided, const OperatorOptions& options);

  const char* name() const override { return "selection_rows"; }

  /// True when row \p i no longer needs refinement (predicate decidable
  /// from bounds, object converged, or quarantined after a stall).
  bool RowSettled(std::size_t i) const { return settled_[i]; }
  bool RowStalled(std::size_t i) const { return stall_[i].stalled(); }

  const OperatorStats& stats() const { return stats_; }

 protected:
  Status StepImpl(WorkMeter* meter) override;
  double CurrentUncertainty() const override;

 private:
  MultiRowDecisionTask(std::vector<vao::ResultObject*> objects,
                       const char* who, UndecidedFn undecided,
                       const OperatorOptions& options);

  void Resettle(std::size_t i);

  std::vector<vao::ResultObject*> objects_;
  const char* who_;
  UndecidedFn undecided_;
  int threads_;
  ScoreCorrector corrector_;
  std::vector<StallGuard> stall_;
  std::vector<bool> settled_;
  std::vector<bool> touched_;
  OperatorStats stats_;
};

}  // namespace vaolib::operators

#endif  // VAOLIB_OPERATORS_ITERATION_TASK_H_

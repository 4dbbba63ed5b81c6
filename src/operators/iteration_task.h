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
#include <limits>
#include <memory>
#include <set>
#include <unordered_map>
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
#include "vao/prepayable.h"
#include "vao/result_object.h"

namespace vaolib::operators {

class SettleNotices;

/// \brief A resumable unit of operator work. Step() performs one loop body
/// of the underlying operator (at most one Iterate(), except batched
/// multi-row steps); Done() reports completion; CurrentUncertainty() is
/// what a scheduler that ranks tasks globally measures a step's gain by.
class IterationTask {
 public:
  virtual ~IterationTask() = default;

  virtual const char* name() const = 0;

  /// Current remaining-uncertainty measure (operator-specific, >= 0,
  /// trending to 0 as the task converges). Only WorkScheduler's
  /// kGreedyGlobal policy reads it; tasks over shared result objects may
  /// see it shrink between steps when other tasks tighten the same objects.
  virtual double CurrentUncertainty() const = 0;

  /// Step() allowance that prices nothing: every iterate may start.
  static constexpr std::uint64_t kUnlimited =
      std::numeric_limits<std::uint64_t>::max();

  /// Performs one unit of work, charging bookkeeping to \p meter (nullable;
  /// object Iterate() calls charge whatever meter the objects were created
  /// against). An error completes the task unconverged and is sticky:
  /// stepping a Done() task is FailedPrecondition.
  ///
  /// \p allowance is the work the step may spend. The task starts no
  /// iterate whose est_cost() (plus the step's chooseIter charge) exceeds
  /// it; when nothing it could do next fits, the step does no work and
  /// leaves the task Parked().
  Status Step(WorkMeter* meter, std::uint64_t allowance = kUnlimited);

  /// True once the task finished (converged, exhausted its inputs, or
  /// errored). Done tasks never need another Step().
  bool Done() const { return done_; }

  /// True when the last Step() found no iterate its allowance could pay
  /// for and did nothing. A scheduler stops stepping a parked task until
  /// something could make an iterate affordable (work done, or a larger
  /// allowance); a task still parked stays unfinished and answers with its
  /// sound partial Snapshot().
  bool Parked() const { return parked_; }

  /// Spends up to \p units on the iterate a Parked() task is waiting for
  /// (vao::Prepayable), so that a later step can afford it; the object
  /// charges its own meter. Returns the units spent: 0 when the task is not
  /// parked or nothing of that iterate can be prepaid. A scheduler offers
  /// this only budget no task can spend on an iterate.
  std::uint64_t Prepay(std::uint64_t units);

  /// True when Done() and the task completed its work (as opposed to
  /// erroring); budget-abandoned tasks are simply never Done.
  bool Converged() const { return done_ && converged_; }

 protected:
  /// One loop body of the operator. Must call MarkDone() when the machine
  /// reaches its terminal state.
  virtual Status StepImpl(WorkMeter* meter) = 0;

  void MarkDone(bool converged) {
    done_ = true;
    converged_ = converged;
  }

  /// \name The step's allowance (see Step()).
  /// @{
  std::uint64_t allowance() const { return allowance_; }
  /// True when an iterate of \p object, plus \p extra units of the step's
  /// own bookkeeping, fits the allowance.
  bool Affordable(const vao::ResultObject& object,
                  std::uint64_t extra = 0) const {
    const std::uint64_t cost = object.est_cost();
    return cost <= allowance_ && extra <= allowance_ - cost;
  }
  /// Ends the step without work: nothing affordable is left. \p blocked is
  /// the object whose iterate the task waits for; Prepay() pays towards
  /// whatever of it is prepayable (none: nothing to prepay).
  void Park(const vao::ResultObject* blocked = nullptr) {
    parked_ = true;
    blocked_ = blocked != nullptr ? vao::Prepayable::Find(*blocked) : nullptr;
  }
  /// Park() on the cheapest next iterate of \p objects[i], i in
  /// \p candidates (the first on ties); \p objects holds raw or owning
  /// pointers.
  template <typename Objects>
  void ParkOnCheapest(const Objects& objects,
                      const std::vector<std::size_t>& candidates) {
    const vao::ResultObject* cheapest = nullptr;
    for (const std::size_t i : candidates) {
      if (cheapest == nullptr ||
          objects[i]->est_cost() < cheapest->est_cost()) {
        cheapest = &*objects[i];
      }
    }
    Park(cheapest);
  }
  /// @}

  /// \name Observed iterates: the one seam where a task's Iterate() calls
  /// are measured against the estimates that chose them. Each helper
  /// captures an IterateRecord (bounds, est_bounds(), est cost, attributed
  /// work) once per iterate and hands it to every active sink: the decision
  /// trace (op name(), \p phase, scores), the corrector set by
  /// ObserveWith() (feedback store, sentinel fit, OperatorStats MAE audit),
  /// and, for objects with calibration_kind() >= 0 and an attributed cost,
  /// the estimator-calibration accounts: the task's own
  /// OperatorStats::calibration and the process-wide one
  /// (obs::RecordEstimatorSample). With no sink active
  /// nothing is captured. A failed iterate records nothing.
  /// @{

  /// Routes records to \p corrector (with the task's stats for its audit);
  /// call from the subclass constructor. It must outlive the task.
  void ObserveWith(ScoreCorrector* corrector) {
    sink_corrector_ = corrector;
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
  /// entries read 0 / the score). Returns each object's Iterate() status,
  /// parallel to \p chosen; a failed object records nothing.
  std::vector<Status> IterateObservedBatch(
      const std::vector<vao::ResultObject*>& objects,
      const std::vector<std::size_t>& chosen, const char* phase,
      WorkMeter* meter, const std::vector<double>& scores = {},
      const std::vector<double>& raw_scores = {}, int threads = 1);
  /// @}

  /// \name The settle step: what every task does with an object after
  /// refining it, in one place.
  /// @{

  /// Sizes the settle state for \p n objects; call from the subclass
  /// constructor. \p label prefixes error messages and \p stall_dump names
  /// the flight-recorder dump a stall triggers.
  void TrackObjects(std::size_t n, const char* label, const char* stall_dump);
  /// Grows the settle state to \p n objects, for a task whose object set
  /// grows (the new ones start unrefined and unstalled).
  void TrackMoreObjects(std::size_t n) {
    stall_.resize(n);
    iterates_.resize(n, 0);
  }

  /// Settles one Iterate() of \p object (the task's object \p i), or with
  /// \p bulk > 0 that many iterates of a bulk phase (the parallel coarse
  /// phase) at once: validates its bounds (NumericError, nothing counted),
  /// passes the object to Noticed() on this task and, through its
  /// SettleNotices, on the others, counts the iterates towards the
  /// object's tally and the stats, feeds a single iterate's width to the
  /// object's StallGuard (a new stall records a "stall" trace instant and a
  /// flight dump), and enforces the cap (NotConverged once the settled
  /// iterates exceed kMaxTotalIterations).
  Status Settle(std::size_t i, const vao::ResultObject& object,
                std::uint64_t bulk = 0);

  /// True once object \p i's refinement stalled (its StallGuard tripped).
  bool Stalled(std::size_t i) const { return stall_[i].stalled(); }
  /// Iterates settled on object \p i.
  std::uint64_t Iterates(std::size_t i) const { return iterates_[i]; }

  /// The accumulated stats with objects_touched and stalled_objects filled.
  OperatorStats TalliedStats() const;
  /// @}

  /// \p object was settled, by this task or by another one attached to the
  /// same SettleNotices; it need not be one of this task's objects. \p hint
  /// is its index in the settling task's objects (tasks over one object
  /// vector share indices). Called only on a task that called
  /// SubscribeToNotices(): one that caches per-object state and re-reads
  /// the object (AggregateIterationTask lists it for TakeNoticed()).
  virtual void Noticed(std::size_t /*hint*/,
                       const vao::ResultObject& /*object*/) {}
  /// Marks this task as a reader of notices; call from the constructor.
  void SubscribeToNotices() { reads_notices_ = true; }

  /// Running stats: Settle() counts iterations here, the corrector's audit
  /// and the calibration samples land here; subclasses add their phase
  /// counters.
  OperatorStats stats_;

 private:
  friend class SettleNotices;

  void Publish(const IterateRecord& record, const char* phase, double score,
               double raw_score, bool trace, bool correct);

  bool done_ = false;
  bool converged_ = false;
  bool parked_ = false;
  const vao::Prepayable* blocked_ = nullptr;  ///< set while parked_
  std::uint64_t allowance_ = kUnlimited;
  ScoreCorrector* sink_corrector_ = nullptr;
  const char* label_ = "";
  const char* stall_dump_ = "";
  std::vector<StallGuard> stall_;
  std::vector<std::uint64_t> iterates_;
  const SettleNotices* notices_ = nullptr;
  bool reads_notices_ = false;
};

/// \brief Tells tasks stepped together over shared result objects which
/// objects the others settled, so that a task caching per-object state (the
/// TOP-K index, the SUM/AVE interval and heap) re-reads only those instead
/// of every object at every step.
/// While it lives, each attached task's Settle() reports the settled object
/// to every other attached task that reads notices. A task already
/// attached to another sink stays with it. The tasks must outlive the sink.
/// A task stepped alone needs none.
class SettleNotices {
 public:
  explicit SettleNotices(const std::vector<IterationTask*>& tasks);
  ~SettleNotices();
  SettleNotices(const SettleNotices&) = delete;
  SettleNotices& operator=(const SettleNotices&) = delete;

 private:
  friend class IterationTask;

  /// Passes \p object, \p from's object \p hint, to every other reader.
  void Report(const IterationTask* from, std::size_t hint,
              const vao::ResultObject& object) const;

  std::vector<IterationTask*> attached_;
  std::vector<IterationTask*> readers_;
};

/// \brief Steps \p task, unpriced, until it is Done(), charging \p meter
/// (nullable). Budgets are the WorkScheduler's: a caller that needs one
/// runs the task there.
Status DriveTask(IterationTask* task, WorkMeter* meter);

/// \brief The adaptive cycle shared by the aggregate tasks (MIN/MAX, SUM/AVE,
/// TOP-K). Sections 5.1 and 5.2 run one loop: score each live candidate by
/// predicted benefit per estimated CPU cycle, let chooseIter pick, iterate
/// the pick and update state. This base owns every part of that loop that
/// is not specific to one operator: the parallel coarse pre-phase, the
/// greedy cycle (sentinel probes, raw and corrected candidates, the
/// strategy's pick, one-pick vs batch iterate) and the IterationTask settle
/// step after each iterate, and the settle-notice feed (TakeNoticed()) for
/// a task that caches per-object state. A task supplies its candidate set,
/// its chooseIter charge, its benefit formula, its state update and its
/// phase machine. Not constructible on its own.
class AggregateIterationTask : public IterationTask {
 protected:
  /// \p kind maps bounds into "max space" (ViewOf): for kMin every interval
  /// is negated. \p label prefixes error messages ("MIN/MAX", ...).
  AggregateIterationTask(const OperatorOptions& options,
                         const std::vector<vao::ResultObject*>& objects,
                         std::unique_ptr<IterationStrategy> strategy,
                         ExtremeKind kind, const char* label);

  /// The optional parallel pre-phase (ParallelCoarseConverge): counts its
  /// iterates as coarse and settles every object it iterated.
  Status CoarsePhase();

  /// One chooseIter cycle over \p iterable (non-empty, in the task's
  /// enumeration order, whose first candidate wins a tie): charges
  /// \p charge units of chooseIter work, spends the cycle on a pending
  /// sentinel probe if there is one, else lets the strategy pick among the
  /// candidates scored by \p benefit and iterates the picks (tagged
  /// \p phase). \p benefit(i, est) is object i's predicted benefit when its
  /// max-space bounds move to \p est; the cycle calls it on the raw and, when
  /// a correction changes them, the corrected estimates. A candidate's
  /// fallback width is its bounds width, scaled by (*\p weights)[i] when
  /// given.
  template <typename Benefit>
  Status GreedyCycle(const std::vector<std::size_t>& iterable,
                     std::size_t charge, const char* phase, WorkMeter* meter,
                     const Benefit& benefit,
                     const std::vector<double>* weights = nullptr);

  /// One observed, settled Iterate() of object \p i, counted in
  /// \p phase_counter and against the iteration cap.
  Status IterateOne(std::size_t i, std::uint64_t* phase_counter,
                    const char* phase, WorkMeter* meter, double score = 0.0,
                    double raw_score = 0.0);

  /// Iterates \p picks (one IterateOne, or one batch through the lockstep
  /// kernels), settles each and counts them as greedy iterations. \p scores
  /// and \p raw_scores parallel \p picks.
  Status IteratePicks(const std::vector<std::size_t>& picks, const char* phase,
                      WorkMeter* meter, const std::vector<double>& scores,
                      const std::vector<double>& raw_scores);

  /// Lists \p object (this task's object \p hint when that matches, else
  /// found by pointer; ignored when it is not one of the task's objects)
  /// for TakeNoticed(), once until it is taken.
  void Noticed(std::size_t hint, const vao::ResultObject& object) final;

  /// Calls \p fn(i) on each object settled since the last call, in the
  /// order first settled, and empties the list. Const, like the state it
  /// feeds, so that CurrentUncertainty() and Snapshot() can catch up.
  template <typename Fn>
  void TakeNoticed(const Fn& fn) const {
    for (const std::size_t i : feed_) {
      listed_[i] = false;
      fn(i);
    }
    feed_.clear();
  }

  /// \p b in max space: negated ([-H, -L]) for kMin, so the minimum becomes
  /// the maximum (the mapping is its own inverse). Inline because the
  /// candidate scans call it per object.
  Bounds View(const Bounds& b) const {
    return kind_ == ExtremeKind::kMax ? b : Bounds(-b.hi, -b.lo);
  }
  Bounds ViewOf(std::size_t i) const { return View(objects_[i]->bounds()); }
  Bounds EstViewOf(std::size_t i) const {
    return View(objects_[i]->est_bounds());
  }
  bool EffectivelyConverged(std::size_t i) const {
    return objects_[i]->AtStoppingCondition() || Stalled(i);
  }

  OperatorOptions options_;
  std::vector<vao::ResultObject*> objects_;

 private:
  ExtremeKind kind_;
  std::unique_ptr<IterationStrategy> strategy_;
  ScoreCorrector corrector_;
  /// The feed: objects settled since TakeNoticed() last took them; the
  /// listed_ flags keep each once, so the feed never outgrows N.
  mutable std::vector<std::size_t> feed_;
  mutable std::vector<bool> listed_;
  /// Each object's index, built at the first notice whose hint misses.
  std::unordered_map<const vao::ResultObject*, std::size_t> index_of_;
};

/// \brief Resumable MIN/MAX aggregate (the Section 5.1 loop as a state
/// machine): coarse pre-phase, prune/guess/choose search rounds, winner
/// finalization.
class MinMaxIterationTask : public AggregateIterationTask {
 public:
  /// Validates inputs exactly as MinMaxVao::Evaluate() always has.
  /// \p objects must outlive the task.
  static Result<std::unique_ptr<MinMaxIterationTask>> Create(
      const MinMaxOptions& options,
      const std::vector<vao::ResultObject*>& objects);

  const char* name() const override { return "min_max"; }
  double CurrentUncertainty() const override;

  /// The final outcome once Done(); before that, a sound partial answer --
  /// the current best guess and an envelope interval guaranteed to contain
  /// the true extreme -- with `converged = false`.
  MinMaxOutcome Snapshot() const;

 protected:
  Status StepImpl(WorkMeter* meter) override;

 private:
  enum class Phase { kCoarse, kSearch, kFinalize };

  MinMaxIterationTask(const MinMaxOptions& options,
                      const std::vector<vao::ResultObject*>& objects,
                      std::unique_ptr<IterationStrategy> strategy);

  Status StepSearch(WorkMeter* meter);
  /// The surviving candidates' guess (highest upper bound) and envelope
  /// [max lo, max hi], in max space.
  std::size_t Envelope(Bounds* envelope) const;
  void Finish();

  std::vector<std::size_t> alive_;
  Phase phase_ = Phase::kCoarse;
  MinMaxOutcome outcome_;
};

/// \brief Resumable SUM/AVE aggregate (the Section 5.2 loop as a state
/// machine), covering both the O(N)-scan and the lazy-heap greedy paths.
class SumAveIterationTask : public AggregateIterationTask {
 public:
  static Result<std::unique_ptr<SumAveIterationTask>> Create(
      const SumAveOptions& options,
      const std::vector<vao::ResultObject*>& objects,
      std::vector<double> weights);

  const char* name() const override { return "sum_ave"; }
  double CurrentUncertainty() const override;

  /// The final outcome once Done(); before that, the current weighted-sum
  /// interval (always sound) with `converged = false`.
  SumOutcome Snapshot() const;

 protected:
  Status StepImpl(WorkMeter* meter) override;

 private:
  enum class Phase { kCoarse, kScan, kHeapScan };

  SumAveIterationTask(const SumAveOptions& options,
                      const std::vector<vao::ResultObject*>& objects,
                      std::vector<double> weights,
                      std::unique_ptr<IterationStrategy> strategy);

  Status StepScan(WorkMeter* meter);
  Status StepHeap(WorkMeter* meter);
  /// Brings sum_ up to date with the objects settled since the last call:
  /// adds each one's weighted bounds delta since it was last summed and, on
  /// the heap path, re-enters it in the heap with its new score.
  void SumNoticed() const;
  /// (Re-)enters object \p i in the heap with its current score.
  void Push(std::size_t i) const;
  Bounds ExactSum() const;
  void Finish(bool limited_by_min_width);

  bool use_heap_index_;
  std::vector<double> weights_;
  /// The weighted-sum interval, kept from the notice feed. Mutable, like
  /// the feed, for CurrentUncertainty() (see TopKIterationTask::index_).
  mutable Bounds sum_;
  /// Each object's bounds when sum_ last counted them.
  mutable std::vector<Bounds> summed_;
  mutable ScoreHeap heap_;
  Phase phase_ = Phase::kCoarse;
  SumOutcome outcome_;
};

/// \brief Resumable TOP-K aggregate: boundary-separation rounds, then
/// member finalization.
///
/// The task ranks its objects in one ordered index, keyed on each object's
/// upper bound in max space (descending, ties to the lowest index) and
/// built from live bounds at its first use. A boundary step reads the first
/// k + 1 entries and walks on only through the outsiders that reach the
/// members' floor, so it costs O(k + conflicted) instead of a sort of all
/// N. Keys move only when an object is iterated: the task re-keys the
/// objects the notice feed lists at its next step. Before membership
/// settles it re-checks every object's iterations() once, so tasks stepped
/// by hand over shared objects without a sink still answer the live top-k.
class TopKIterationTask : public AggregateIterationTask {
 public:
  static Result<std::unique_ptr<TopKIterationTask>> Create(
      const TopKOptions& options,
      const std::vector<vao::ResultObject*>& objects);

  const char* name() const override { return "top_k"; }
  double CurrentUncertainty() const override;

  /// The final outcome once Done(); before that, the current guessed
  /// member set with each member's (sound) bounds and `converged = false`.
  TopKOutcome Snapshot() const;

 protected:
  Status StepImpl(WorkMeter* meter) override;

 private:
  enum class Phase { kCoarse, kBoundary, kFinalize };

  /// An index entry: object \p i ranked by its max-space upper bound \p hi
  /// when keyed.
  struct Key {
    double hi;
    std::size_t i;
  };
  /// Rank order: the higher upper bound first, ties to the lower index.
  struct Ranked {
    bool operator()(const Key& a, const Key& b) const {
      return a.hi > b.hi || (a.hi == b.hi && a.i < b.i);
    }
  };
  using Index = std::set<Key, Ranked>;

  TopKIterationTask(const TopKOptions& options,
                    const std::vector<vao::ResultObject*>& objects,
                    std::unique_ptr<IterationStrategy> strategy);

  Status StepBoundary(WorkMeter* meter);
  /// Brings the index up to date: builds it from live bounds on first use,
  /// then re-keys the objects noticed since the last call.
  void Refresh() const;
  /// Object \p i's key: its live max-space upper bound.
  double KeyOf(std::size_t i) const;
  /// Re-keys object \p i from its live bounds; true when its key moved.
  bool Rekey(std::size_t i) const;
  /// Re-keys every object whose iterations() moved since it was keyed
  /// (O(N)); true when a key moved. NumericError for malformed bounds.
  Result<bool> RekeyMoved();
  /// The k highest-ranked objects, in rank order.
  std::vector<std::size_t> Leaders() const;
  /// Fills \p outcome's winners from \p members, by descending midpoint.
  void SetWinners(std::vector<std::size_t> members, TopKOutcome* outcome) const;
  void Finish();

  std::size_t k_;
  /// The rank index over all objects. Mutable, like the notice feed:
  /// CurrentUncertainty() and Snapshot() apply the notices that arrived
  /// since the last step before they read it.
  mutable Index index_;
  /// Each object's entry in index_.
  mutable std::vector<Index::iterator> entry_;
  /// Each object's iterations() when it was last keyed.
  mutable std::vector<int> keyed_at_;
  /// The last boundary step's guessed members, in rank order.
  std::vector<std::size_t> members_;
  std::size_t finalize_cursor_ = 0;
  Phase phase_ = Phase::kCoarse;
  TopKOutcome outcome_;
};

/// \brief Resumable predicate refinement over per-row result objects: one
/// task drives a whole selection query (Section 3.2), and a one-row task
/// is how the blocking selection operators decide a single object.
///
/// Each Step() gives every still-undecided row exactly one Iterate() --
/// batched on the shared thread pool when `threads > 1` (the per-row
/// Iterate() sequences, and thus all bounds and work totals, are
/// independent of the thread count). A row settles once its bounds decide
/// the predicate, its object reaches its stopping condition, or it fails.
/// Row failures never fail the task: a row whose Invoke(), bounds
/// validation or Iterate() failed, or whose refinement stalled, keeps its
/// reason in RowStatus() for the caller's resilience policy.
class MultiRowDecisionTask : public IterationTask {
 public:
  using UndecidedFn = std::function<bool(const Bounds&)>;

  /// Reads `threads` from \p options; every undecided row is iterated, so
  /// there is no pick to score and no feedback to record. \p invoke_status,
  /// when non-empty, parallels \p objects: a row whose Invoke() failed has
  /// a null object and its error there. \p who labels error messages.
  static Result<std::unique_ptr<MultiRowDecisionTask>> Create(
      std::vector<vao::ResultObject*> objects, const char* who,
      UndecidedFn undecided, const OperatorOptions& options,
      const std::vector<Status>& invoke_status = {});

  const char* name() const override { return "selection_rows"; }
  double CurrentUncertainty() const override;

  /// True when row \p i no longer needs refinement.
  bool RowSettled(std::size_t i) const { return settled_[i]; }
  /// OK, or why row \p i cannot be decided: its Invoke(), validation or
  /// Iterate() error, or ResourceExhausted after a stall.
  const Status& RowStatus(std::size_t i) const { return row_status_[i]; }
  bool RowStalled(std::size_t i) const { return Stalled(i); }

  /// The task's stats. A failed row's iterates are discarded with its
  /// answer; a stalled row's count, and it counts as stalled.
  OperatorStats stats() const;

 protected:
  Status StepImpl(WorkMeter* meter) override;

 private:
  MultiRowDecisionTask(std::vector<vao::ResultObject*> objects,
                       const char* who, UndecidedFn undecided,
                       const OperatorOptions& options);

  void Resettle(std::size_t i);

  std::vector<vao::ResultObject*> objects_;
  const char* who_;
  UndecidedFn undecided_;
  int threads_;
  std::vector<Status> row_status_;
  std::vector<bool> settled_;
  /// Rows not settled at the last look, ascending: each step's notch.
  std::vector<std::size_t> unsettled_;
};

}  // namespace vaolib::operators

#endif  // VAOLIB_OPERATORS_ITERATION_TASK_H_

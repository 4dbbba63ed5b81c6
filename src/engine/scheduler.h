// Copyright 2026 The vaolib Authors.
// WorkScheduler: budget-aware interleaving of resumable operator tasks
// across queries.
//
// The operator layer exposes its convergence loops as IterationTasks
// (operators/iteration_task.h); this module decides WHICH task gets the
// next Step() when many queries compete for a shared work budget. Because
// every task is sound to abandon -- Snapshot() always returns a provable
// partial answer -- budget exhaustion degrades answers to converged=false
// instead of blocking the tick.
//
// Accounting contract: Run() drives tasks serially and brackets every
// Step() with WorkMeter::Total() deltas, so the per-task `spent` numbers
// sum EXACTLY to the meter delta of the whole run. Tests assert this
// invariant (DESIGN.md section 4d).
//
// Budget contract: each Step() gets an allowance -- what is left of the
// budget, less (kDeadline) the other tasks' unmet reserves -- and a task
// starts no iterate the allowance cannot pay for. A task with nothing
// affordable parks: no policy steps it until work is done or its allowance
// grows (either can make an iterate affordable), and a task still parked
// when the run ends answers with its sound partial snapshot.

#ifndef VAOLIB_ENGINE_SCHEDULER_H_
#define VAOLIB_ENGINE_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/work_meter.h"
#include "obs/execution_report.h"
#include "operators/iteration_task.h"

namespace vaolib::engine {

/// \brief How the scheduler picks the next task to step.
enum class SchedulerPolicy {
  /// Global benefit/cost greedy: step the task whose next Step() promises
  /// the largest accuracy gain per work unit (a lazy max-heap). The
  /// scheduler estimates each task's next step from its last one in this
  /// Run(): the drop in IterationTask::CurrentUncertainty() and the work
  /// charged; before its first step a task promises all of its current
  /// uncertainty at cost 1. Converges the whole query set with the least
  /// total work; no fairness guarantee.
  kGreedyGlobal,
  /// Weighted fair share: step the unfinished task with the smallest
  /// spent/priority ratio. Starvation-free -- every unfinished task is
  /// stepped at least once every n picks once its ratio lags.
  kFairShare,
  /// Earliest deadline first over the tick's work clock, with per-query
  /// budget reserves: a task may spend beyond its own needs only while the
  /// remaining budget still covers every other unfinished task's unmet
  /// reserve. Tasks without a deadline (deadline == 0) run last.
  kDeadline,
};

/// \brief Label value for \p policy ("greedy_global", "fair_share",
/// "deadline").
const char* SchedulerPolicyName(SchedulerPolicy policy);

/// \brief Per-query scheduling parameters.
struct QuerySchedule {
  /// kFairShare weight; spending targets are proportional to it (> 0).
  double priority = 1.0;
  /// kDeadline: work-clock deadline in work units since the run began;
  /// 0 means no deadline (scheduled after all deadline-bearing tasks).
  std::uint64_t deadline = 0;
  /// kDeadline: work units guaranteed to this query; other tasks may not
  /// consume budget that the reserve still needs.
  std::uint64_t reserve = 0;
};

/// \brief Scheduler-wide parameters.
struct SchedulerOptions {
  SchedulerPolicy policy = SchedulerPolicy::kGreedyGlobal;
  /// Total work-unit budget for one Run(); 0 = unlimited (run every task
  /// to completion).
  std::uint64_t budget = 0;
};

/// \brief Per-task account of one Run().
struct TaskScheduleStats {
  /// Work units this task's steps charged (exact meter deltas). The sum
  /// over all tasks equals the run's whole meter delta.
  std::uint64_t spent = 0;
  /// Number of Step() calls granted (a step that parked the task did no
  /// work and is not counted).
  std::uint64_t steps = 0;
  /// `spent` split by WorkKind.
  obs::WorkByKind work;
  /// Work-clock time (total spent across ALL tasks) when this task
  /// finished; 0 while unfinished.
  std::uint64_t finished_at = 0;
  /// Task completed its work (IterationTask::Converged()).
  bool converged = false;
  /// Unfinished and never stepped: the budget ran out before the policy
  /// ever reached this task (or its first step could afford nothing).
  bool starved = false;
  /// Unfinished because its next iterate cost more than its allowance.
  bool parked = false;
  /// Had a deadline and either finished after it or not at all.
  bool missed_deadline = false;
};

/// \brief Budget-aware multi-task stepper. Stateless between runs; create
/// one per tick (cheap) or reuse.
class WorkScheduler {
 public:
  /// One schedulable unit: a live task plus its query's parameters.
  struct Entry {
    operators::IterationTask* task = nullptr;  ///< borrowed, non-null
    QuerySchedule schedule;
  };

  explicit WorkScheduler(const SchedulerOptions& options)
      : options_(options) {}

  /// Steps the entries' tasks until all are Done() or the budget is
  /// exhausted, charging bookkeeping to \p meter (required: it is the
  /// budget's clock). For the run the tasks share one
  /// operators::SettleNotices, so a task hears which objects the others
  /// settled. Tasks already Done() on entry are fine (their stats
  /// just record zero steps without counting as starved). Returns per-entry
  /// stats parallel to \p entries; a Step() error fails the run with that
  /// task's Status.
  Result<std::vector<TaskScheduleStats>> Run(
      const std::vector<Entry>& entries, WorkMeter* meter);

  const SchedulerOptions& options() const { return options_; }

 private:
  /// Policy dispatch for kFairShare and kDeadline: index of the next entry
  /// to step, or npos when no entry is eligible (all done or parked, or
  /// reserves block everyone). kGreedyGlobal picks from Run()'s heap.
  std::size_t PickNext(const std::vector<Entry>& entries,
                       const std::vector<TaskScheduleStats>& stats,
                       std::uint64_t total_spent,
                       std::uint64_t live_unmet) const;

  std::size_t PickFairShare(const std::vector<Entry>& entries,
                            const std::vector<TaskScheduleStats>& stats) const;
  std::size_t PickDeadline(const std::vector<Entry>& entries,
                           const std::vector<TaskScheduleStats>& stats,
                           std::uint64_t total_spent,
                           std::uint64_t live_unmet) const;

  /// kDeadline under a budget: the unmet reserves of the live entries,
  /// summed once per step of Run() and handed to the pick and the
  /// allowance (0 otherwise: neither reads it). An entry's
  /// "others' unmet reserves" are this total less its own.
  std::uint64_t LiveUnmet(const std::vector<Entry>& entries,
                          const std::vector<TaskScheduleStats>& stats) const;
  /// The allowance of entry \p q's next Step() (see the budget contract);
  /// \p live_unmet is LiveUnmet() of the current state.
  std::uint64_t AllowanceFor(const std::vector<Entry>& entries,
                             const std::vector<TaskScheduleStats>& stats,
                             std::size_t q, std::uint64_t total_spent,
                             std::uint64_t live_unmet) const;

  SchedulerOptions options_;
};

}  // namespace vaolib::engine

#endif  // VAOLIB_ENGINE_SCHEDULER_H_

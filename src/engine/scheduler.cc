#include "engine/scheduler.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace vaolib::engine {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

// kGreedyGlobal's estimate of one task's next step, kept for one Run():
// the uncertainty its last granted step removed and the work that step
// charged. Before its first step a task promises all of its current
// uncertainty at cost 1.
struct StepEstimate {
  bool calibrated = false;
  double benefit = 0.0;
  double cost = 1.0;
};

// Benefit-per-work score of kGreedyGlobal: a task that just made a cheap
// high-gain step floats to the top; transition steps (benefit 0) sink but
// stay schedulable -- when every score is 0 the heap still yields someone.
double GreedyScore(const operators::IterationTask& task,
                   const StepEstimate& estimate) {
  if (task.Done()) return 0.0;
  const double benefit =
      estimate.calibrated ? estimate.benefit : task.CurrentUncertainty();
  return benefit / std::max(1.0, estimate.cost);
}

struct PolicyCounters {
  obs::Counter* runs;
  obs::Counter* steps;
  obs::Counter* work_units;
  obs::Counter* starved;
  obs::Counter* deadline_misses;
  obs::Counter* budget_exhausted;
};

// One cached counter set per policy (registry lookups happen once).
const PolicyCounters& CountersFor(SchedulerPolicy policy) {
  static const auto* counters = [] {
    auto* sets = new PolicyCounters[3];
    for (int p = 0; p < 3; ++p) {
      const obs::MetricsRegistry::Labels labels = {
          {"policy", SchedulerPolicyName(static_cast<SchedulerPolicy>(p))}};
      auto& registry = obs::MetricsRegistry::Global();
      sets[p].runs =
          registry.GetCounter("vaolib_scheduler_runs_total", labels);
      sets[p].steps =
          registry.GetCounter("vaolib_scheduler_steps_total", labels);
      sets[p].work_units =
          registry.GetCounter("vaolib_scheduler_work_units_total", labels);
      sets[p].starved = registry.GetCounter(
          "vaolib_scheduler_starved_queries_total", labels);
      sets[p].deadline_misses = registry.GetCounter(
          "vaolib_scheduler_deadline_misses_total", labels);
      sets[p].budget_exhausted = registry.GetCounter(
          "vaolib_scheduler_budget_exhausted_total", labels);
    }
    return sets;
  }();
  return counters[static_cast<int>(policy)];
}

// Lazy max-heap entry for kGreedyGlobal: scores go stale whenever a step
// (of this task, or of another task sharing its result objects) moves the
// uncertainty; stale pops are re-scored and re-pushed instead of eagerly
// rebuilding the heap.
struct HeapEntry {
  double score = 0.0;
  std::size_t index = 0;
};

struct HeapLess {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.score != b.score) return a.score < b.score;
    return a.index > b.index;  // max-heap prefers the lowest index on ties
  }
};

using GreedyHeap =
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLess>;

// Neither finished nor parked: the task can still be stepped this run.
bool Live(const WorkScheduler::Entry& entry, const TaskScheduleStats& stats) {
  return !entry.task->Done() && !stats.parked;
}

// The part of a live entry's reserve it has not spent yet. A parked task
// can use no more of its reserve this run, so it holds none back from the
// others.
std::uint64_t Unmet(const WorkScheduler::Entry& entry,
                    const TaskScheduleStats& stats) {
  const std::uint64_t reserve = entry.schedule.reserve;
  return Live(entry, stats) && stats.spent < reserve ? reserve - stats.spent
                                                     : 0;
}

}  // namespace

const char* SchedulerPolicyName(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kGreedyGlobal:
      return "greedy_global";
    case SchedulerPolicy::kFairShare:
      return "fair_share";
    case SchedulerPolicy::kDeadline:
      return "deadline";
  }
  return "unknown";
}

std::size_t WorkScheduler::PickFairShare(
    const std::vector<Entry>& entries,
    const std::vector<TaskScheduleStats>& stats) const {
  // Smallest spent/priority ratio wins; ties go to the lowest index, so
  // the order is deterministic and a fresh task set round-robins.
  std::size_t best = kNone;
  double best_ratio = 0.0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!Live(entries[i], stats[i])) continue;
    const double ratio = static_cast<double>(stats[i].spent) /
                         entries[i].schedule.priority;
    if (best == kNone || ratio < best_ratio) {
      best = i;
      best_ratio = ratio;
    }
  }
  return best;
}

std::size_t WorkScheduler::PickDeadline(
    const std::vector<Entry>& entries,
    const std::vector<TaskScheduleStats>& stats, std::uint64_t total_spent,
    std::uint64_t live_unmet) const {
  // A task may consume budget only while what remains still covers every
  // OTHER unfinished task's unmet reserve; its own reserve is excluded, so
  // a task whose reserve is unmet always has headroom of exactly that
  // reserve. With Sum(reserves) <= budget this guarantees each query its
  // reserved share no matter the deadline order.
  auto eligible = [&](std::size_t q) {
    if (!Live(entries[q], stats[q])) return false;
    if (options_.budget == 0) return true;
    return total_spent < options_.budget &&
           options_.budget - total_spent >
               live_unmet - Unmet(entries[q], stats[q]);
  };

  // Earliest deadline first; deadline 0 = none = after everything else.
  constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();
  std::size_t best = kNone;
  std::uint64_t best_deadline = kInf;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!eligible(i)) continue;
    const std::uint64_t deadline =
        entries[i].schedule.deadline == 0 ? kInf : entries[i].schedule.deadline;
    if (best == kNone || deadline < best_deadline) {
      best = i;
      best_deadline = deadline;
    }
  }
  return best;
}

std::uint64_t WorkScheduler::LiveUnmet(
    const std::vector<Entry>& entries,
    const std::vector<TaskScheduleStats>& stats) const {
  if (options_.policy != SchedulerPolicy::kDeadline || options_.budget == 0) {
    return 0;
  }
  std::uint64_t unmet = 0;
  for (std::size_t p = 0; p < entries.size(); ++p) {
    unmet += Unmet(entries[p], stats[p]);
  }
  return unmet;
}

std::uint64_t WorkScheduler::AllowanceFor(
    const std::vector<Entry>& entries,
    const std::vector<TaskScheduleStats>& stats, std::size_t q,
    std::uint64_t total_spent, std::uint64_t live_unmet) const {
  if (options_.budget == 0) return operators::IterationTask::kUnlimited;
  if (total_spent >= options_.budget) return 0;
  std::uint64_t allowance = options_.budget - total_spent;
  if (options_.policy == SchedulerPolicy::kDeadline) {
    allowance -=
        std::min(allowance, live_unmet - Unmet(entries[q], stats[q]));
  }
  return allowance;
}

std::size_t WorkScheduler::PickNext(
    const std::vector<Entry>& entries,
    const std::vector<TaskScheduleStats>& stats, std::uint64_t total_spent,
    std::uint64_t live_unmet) const {
  switch (options_.policy) {
    case SchedulerPolicy::kGreedyGlobal:
      break;  // Run() keeps the lazy heap
    case SchedulerPolicy::kFairShare:
      return PickFairShare(entries, stats);
    case SchedulerPolicy::kDeadline:
      return PickDeadline(entries, stats, total_spent, live_unmet);
  }
  return kNone;
}

Result<std::vector<TaskScheduleStats>> WorkScheduler::Run(
    const std::vector<Entry>& entries, WorkMeter* meter) {
  if (meter == nullptr) {
    return Status::InvalidArgument(
        "scheduler requires a work meter (it is the budget's clock)");
  }
  for (const Entry& entry : entries) {
    if (entry.task == nullptr) {
      return Status::InvalidArgument("scheduler entry has a null task");
    }
    if (!(entry.schedule.priority > 0.0)) {
      return Status::InvalidArgument(
          "scheduler priorities must be positive");
    }
  }

  const obs::ScopedSpan run_span("scheduler",
                                 SchedulerPolicyName(options_.policy));
  // The tasks may share result objects: each hears which objects the
  // others settle.
  std::vector<operators::IterationTask*> tasks;
  tasks.reserve(entries.size());
  for (const Entry& entry : entries) tasks.push_back(entry.task);
  const operators::SettleNotices notices(tasks);
  std::vector<TaskScheduleStats> stats(entries.size());
  std::uint64_t total_spent = 0;
  bool budget_exhausted = false;

  // kGreedyGlobal keeps a lazy max-heap over benefit/cost scores; stale
  // entries (score changed since push, or task finished) are skipped or
  // re-scored on pop instead of rebuilding. Only this policy estimates, so
  // only it asks a task for its uncertainty.
  const bool use_heap = options_.policy == SchedulerPolicy::kGreedyGlobal;
  std::vector<StepEstimate> estimates(use_heap ? entries.size() : 0);
  auto score = [&](std::size_t i) {
    return GreedyScore(*entries[i].task, estimates[i]);
  };
  GreedyHeap heap;
  if (use_heap) {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (!entries[i].task->Done()) heap.push({score(i), i});
    }
  }
  auto pop_greedy = [&]() -> std::size_t {
    while (!heap.empty()) {
      const HeapEntry top = heap.top();
      heap.pop();
      if (!Live(entries[top.index], stats[top.index])) continue;
      const double fresh = score(top.index);
      if (fresh != top.score) {
        heap.push({fresh, top.index});  // stale: re-score and retry
        continue;
      }
      return top.index;
    }
    // Every live task has a heap entry (pushed at the start, after each
    // step that left it live, and on revival), so an empty heap means none
    // is left.
    return kNone;
  };

  // A park holds only for what it was measured against: the allowance the
  // step was granted and the work done so far. Work by any task (it may
  // publish a profile that makes a parked task's next iterate a cheap hit,
  // or move objects the tasks share), or a larger allowance (under
  // kDeadline a reserve holder finished or parked), makes the task live
  // again. A re-offered task that still cannot pay parks at no cost.
  struct Park {
    std::uint64_t allowance = 0;
    std::uint64_t total_spent = 0;
  };
  std::vector<Park> parks(entries.size());
  // Returns the LiveUnmet() total of the state it leaves wherever that is
  // read (kDeadline under a budget): reviving a task adds its unmet
  // reserve back. Nothing else moves the total before the next step, so
  // the pick, the step's allowance and prepaying all use this one sum.
  auto revive_parked = [&]() {
    std::uint64_t live_unmet = LiveUnmet(entries, stats);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (!stats[i].parked || entries[i].task->Done()) continue;
      if (total_spent == parks[i].total_spent &&
          AllowanceFor(entries, stats, i, total_spent, live_unmet) <=
              parks[i].allowance) {
        continue;
      }
      stats[i].parked = false;
      live_unmet += Unmet(entries[i], stats[i]);
      if (use_heap) heap.push({score(i), i});
    }
    return live_unmet;
  };

  // Exact accounting: the meter's work since \p before / \p work_before is
  // attributed to task \p idx. Returns the units.
  auto attribute = [&](std::size_t idx, std::uint64_t before,
                       const obs::WorkByKind& work_before) {
    const std::uint64_t delta = meter->Total() - before;
    const obs::WorkByKind work_delta =
        obs::WorkByKind::Capture(*meter).DeltaSince(work_before);
    stats[idx].spent += delta;
    stats[idx].work.exec += work_delta.exec;
    stats[idx].work.get_state += work_delta.get_state;
    stats[idx].work.store_state += work_delta.store_state;
    stats[idx].work.choose_iter += work_delta.choose_iter;
    total_spent += delta;
    return delta;
  };

  // One task step: its work is attributed to it; under kGreedyGlobal the
  // step's uncertainty drop and work become the task's estimates and the
  // heap gets the fresh score (a parked step keeps the last estimates). A
  // step that parks the task takes it out of the run until it revives.
  auto step_one = [&](std::size_t idx, std::uint64_t live_unmet) -> Status {
    operators::IterationTask* task = entries[idx].task;
    const std::uint64_t allowance =
        AllowanceFor(entries, stats, idx, total_spent, live_unmet);
    const std::uint64_t before = meter->Total();
    const obs::WorkByKind work_before = obs::WorkByKind::Capture(*meter);
    const double uncertainty_before =
        use_heap ? task->CurrentUncertainty() : 0.0;
    Status status = Status::OK();
    {
      const obs::ScopedSpan step_span("sched_step", task->name(),
                                      obs::TraceDetail::kFine);
      status = task->Step(meter, allowance);
    }
    const std::uint64_t delta = attribute(idx, before, work_before);
    stats[idx].parked = status.ok() && task->Parked();
    if (!stats[idx].parked) stats[idx].steps += 1;
    if (!status.ok()) return status;
    if (stats[idx].parked) {
      parks[idx] = {allowance, total_spent};
    } else if (use_heap) {
      const double uncertainty_after =
          task->Done() ? 0.0 : task->CurrentUncertainty();
      estimates[idx] = {
          .calibrated = true,
          .benefit = std::max(0.0, uncertainty_before - uncertainty_after),
          .cost = std::max(1.0, static_cast<double>(delta))};
    }
    if (task->Done()) {
      stats[idx].finished_at = total_spent;
    } else if (use_heap && !stats[idx].parked) {
      heap.push({score(idx), idx});
    }
    return Status::OK();
  };

  // With no task able to iterate, budget nobody can spend on an iterate
  // goes, in entry order, towards the iterates the parked tasks wait for
  // (IterationTask::Prepay): a solve dearer than the whole budget is then
  // paid for over several runs instead of never. Returns whether anything
  // was spent; each such round spends at least one unit, so it ends.
  auto prepay_parked = [&](std::uint64_t live_unmet) {
    bool spent = false;
    // Prepaying moves only parked tasks' spending, so the live total holds.
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (!stats[i].parked || entries[i].task->Done()) continue;
      const std::uint64_t allowance =
          AllowanceFor(entries, stats, i, total_spent, live_unmet);
      if (allowance == 0) continue;
      const std::uint64_t before = meter->Total();
      const obs::WorkByKind work_before = obs::WorkByKind::Capture(*meter);
      entries[i].task->Prepay(allowance);
      spent = attribute(i, before, work_before) > 0 || spent;
    }
    return spent;
  };

  while (true) {
    if (options_.budget > 0 && total_spent >= options_.budget) {
      budget_exhausted = std::any_of(
          entries.begin(), entries.end(),
          [](const Entry& e) { return !e.task->Done(); });
      break;
    }
    const std::uint64_t live_unmet = revive_parked();
    const std::size_t pick = use_heap
                                 ? pop_greedy()
                                 : PickNext(entries, stats, total_spent,
                                            live_unmet);
    if (pick == kNone) {
      // No task eligible: everyone is done or parked, or (kDeadline) the
      // remaining budget is fully committed to reserves nobody can use.
      if (prepay_parked(live_unmet)) continue;
      budget_exhausted = std::any_of(
          entries.begin(), entries.end(),
          [](const Entry& e) { return !e.task->Done(); });
      break;
    }

    const Status status = step_one(pick, live_unmet);
    if (!status.ok()) return status;
  }

  std::uint64_t starved_count = 0;
  std::uint64_t miss_count = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const bool done = entries[i].task->Done();
    stats[i].converged = entries[i].task->Converged();
    stats[i].starved = !done && stats[i].steps == 0;
    const std::uint64_t deadline = entries[i].schedule.deadline;
    stats[i].missed_deadline =
        deadline > 0 && (!done || stats[i].finished_at > deadline);
    if (stats[i].starved) ++starved_count;
    if (stats[i].missed_deadline) ++miss_count;
  }

  const PolicyCounters& counters = CountersFor(options_.policy);
  counters.runs->Increment();
  counters.work_units->Add(total_spent);
  std::uint64_t total_steps = 0;
  for (const TaskScheduleStats& s : stats) total_steps += s.steps;
  counters.steps->Add(total_steps);
  counters.starved->Add(starved_count);
  counters.deadline_misses->Add(miss_count);
  if (budget_exhausted) counters.budget_exhausted->Increment();

  return stats;
}

}  // namespace vaolib::engine

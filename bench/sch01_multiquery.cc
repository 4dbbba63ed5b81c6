// Multi-query scheduling experiment: one standing-query set (two threshold
// selections, MAX, TOP-2, TOP-4) over the shared bond portfolio,
// executed four ways at equal budgets:
//   * WorkScheduler kGreedyGlobal / kFairShare / kDeadline over shared
//     result objects (the PR's scheduled path),
//   * round-robin stepping of the same shared tasks (ordering baseline),
//   * round-robin over per-query PRIVATE objects (the pre-scheduler
//     "each query executes alone" baseline).
// Hard failures (exit 1), mirroring par01's determinism checks:
//   * any unbudgeted arm that does not converge every query,
//   * per-task spends that do not sum exactly to the run's meter delta,
//   * kGreedyGlobal needing more than 75% of the per-query baseline's
//     total work to converge the whole set,
//   * kDeadline missing a deadline that it set itself, or round-robin
//     missing none of them (the deadlines are chosen from an EDF probe run,
//     so EDF meets all of them by deterministic replay while interleaved
//     stepping finishes early-deadline queries far too late).
//
// Output: the standard text table plus BENCH_scheduler.json (RenderJson).

#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table_writer.h"
#include "common/work_meter.h"
#include "engine/scheduler.h"
#include "operators/iteration_task.h"
#include "vao/parallel.h"
#include "vao/result_object.h"

using namespace vaolib;
using namespace vaolib::bench;

namespace {

constexpr std::size_t kQueries = 5;

// A standing-query set with real cross-query overlap: two threshold
// selections, MAX, TOP-2 and TOP-4 -- the three extreme-value queries all
// deep-refine the same top-of-portfolio objects, which per-query execution
// pays for from scratch each time. All bookkeeping charges `meter` so the
// scheduler's accounting invariant (sum of spends == meter delta) covers
// every unit.
bool MakeTasks(const std::vector<vao::ResultObject*>& objects,
               WorkMeter* meter,
               std::vector<std::unique_ptr<operators::IterationTask>>* tasks) {
  auto fail = [](const char* who, const Status& status) {
    std::fprintf(stderr, "building %s task failed: %s\n", who,
                 status.message().c_str());
    return false;
  };

  auto selection = [&](double constant) {
    return operators::MultiRowDecisionTask::Create(
        objects, "sch01_selection",
        [constant](const Bounds& b) { return b.Contains(constant); },
        operators::OperatorOptions());
  };
  auto sel_100 = selection(100.0);
  if (!sel_100.ok()) return fail("sel>100", sel_100.status());
  auto sel_110 = selection(110.0);
  if (!sel_110.ok()) return fail("sel>110", sel_110.status());

  operators::MinMaxOptions max_options;
  max_options.kind = operators::ExtremeKind::kMax;
  max_options.epsilon = 0.01;
  max_options.meter = meter;
  auto max_task = operators::MinMaxIterationTask::Create(max_options, objects);
  if (!max_task.ok()) return fail("max", max_task.status());

  auto top_k = [&](std::size_t k) {
    operators::TopKOptions top_options;
    top_options.k = k;
    top_options.epsilon = 0.01;
    top_options.meter = meter;
    return operators::TopKIterationTask::Create(top_options, objects);
  };
  auto top2_task = top_k(2);
  if (!top2_task.ok()) return fail("top2", top2_task.status());
  auto top4_task = top_k(4);
  if (!top4_task.ok()) return fail("top4", top4_task.status());

  tasks->clear();
  tasks->push_back(std::move(*sel_100));
  tasks->push_back(std::move(*sel_110));
  tasks->push_back(std::move(*max_task));
  tasks->push_back(std::move(*top2_task));
  tasks->push_back(std::move(*top4_task));
  return true;
}

struct ArmResult {
  std::uint64_t work_units = 0;  ///< whole-arm meter total (incl. creation)
  std::uint64_t run_spent = 0;   ///< stepping work only (the budget clock)
  int converged = 0;
  int starved = 0;
  int missed_deadlines = 0;
  std::vector<std::uint64_t> finished_at;  ///< run-clock completion times
};

// One scheduled arm: shared objects, one task per query, WorkScheduler run.
bool RunScheduled(const BenchContext& context, engine::SchedulerPolicy policy,
                  std::uint64_t budget,
                  const std::vector<std::uint64_t>& deadlines,
                  ArmResult* arm) {
  WorkMeter meter;
  auto invoked = vao::InvokeAll(*context.function, context.rows, /*threads=*/1,
                                &meter);
  if (!invoked.ok()) {
    std::fprintf(stderr, "InvokeAll failed: %s\n",
                 invoked.status().message().c_str());
    return false;
  }
  std::vector<vao::ResultObject*> objects;
  objects.reserve(invoked->size());
  for (const auto& object : *invoked) objects.push_back(object.get());

  std::vector<std::unique_ptr<operators::IterationTask>> tasks;
  if (!MakeTasks(objects, &meter, &tasks)) return false;

  std::vector<engine::WorkScheduler::Entry> entries(tasks.size());
  for (std::size_t q = 0; q < tasks.size(); ++q) {
    entries[q].task = tasks[q].get();
    if (!deadlines.empty()) entries[q].schedule.deadline = deadlines[q];
  }

  const std::uint64_t before_run = meter.Total();
  engine::WorkScheduler scheduler({policy, budget});
  auto stats = scheduler.Run(entries, &meter);
  if (!stats.ok()) {
    std::fprintf(stderr, "scheduler run (%s) failed: %s\n",
                 engine::SchedulerPolicyName(policy),
                 stats.status().message().c_str());
    return false;
  }

  arm->work_units = meter.Total();
  arm->run_spent = meter.Total() - before_run;
  arm->finished_at.assign(tasks.size(), 0);
  std::uint64_t accounted = 0;
  for (std::size_t q = 0; q < stats->size(); ++q) {
    const engine::TaskScheduleStats& s = (*stats)[q];
    accounted += s.spent;
    if (std::getenv("VAOLIB_SCH01_DEBUG") != nullptr) {
      std::fprintf(stderr,
                   "  [%s] task %zu: spent=%llu steps=%llu exec=%llu "
                   "choose=%llu get=%llu store=%llu\n",
                   engine::SchedulerPolicyName(policy), q,
                   static_cast<unsigned long long>(s.spent),
                   static_cast<unsigned long long>(s.steps),
                   static_cast<unsigned long long>(s.work.exec),
                   static_cast<unsigned long long>(s.work.choose_iter),
                   static_cast<unsigned long long>(s.work.get_state),
                   static_cast<unsigned long long>(s.work.store_state));
    }
    if (s.converged) ++arm->converged;
    if (s.starved) ++arm->starved;
    if (s.missed_deadline) ++arm->missed_deadlines;
    arm->finished_at[q] = s.finished_at;
  }
  if (accounted != arm->run_spent) {
    std::fprintf(stderr,
                 "FAIL: %s per-task spends sum to %llu but the run charged "
                 "%llu units\n",
                 engine::SchedulerPolicyName(policy),
                 static_cast<unsigned long long>(accounted),
                 static_cast<unsigned long long>(arm->run_spent));
    return false;
  }
  return true;
}

// Steps every unfinished task once per cycle until all are done or the
// budget runs out. `shared` = one portfolio for all queries; otherwise each
// query invokes its own private copy (the pre-scheduler execution model,
// which pays object creation once per query).
bool RunRoundRobin(const BenchContext& context, bool shared,
                   std::uint64_t budget,
                   const std::vector<std::uint64_t>& deadlines,
                   ArmResult* arm) {
  WorkMeter meter;
  std::vector<vao::ResultObjectPtr> storage;
  std::vector<std::unique_ptr<operators::IterationTask>> tasks;
  const std::size_t copies = shared ? 1 : kQueries;
  for (std::size_t c = 0; c < copies; ++c) {
    auto invoked = vao::InvokeAll(*context.function, context.rows,
                                  /*threads=*/1, &meter);
    if (!invoked.ok()) {
      std::fprintf(stderr, "InvokeAll failed: %s\n",
                   invoked.status().message().c_str());
      return false;
    }
    std::vector<vao::ResultObject*> objects;
    objects.reserve(invoked->size());
    for (auto& object : *invoked) {
      objects.push_back(object.get());
      storage.push_back(std::move(object));
    }
    std::vector<std::unique_ptr<operators::IterationTask>> batch;
    if (!MakeTasks(objects, &meter, &batch)) return false;
    if (shared) {
      tasks = std::move(batch);
    } else {
      // Private objects: query c uses only its own copy's task.
      tasks.push_back(std::move(batch[c]));
    }
  }

  // The tasks hear of each other's settles, as under WorkScheduler.
  std::vector<operators::IterationTask*> stepped;
  for (const auto& task : tasks) stepped.push_back(task.get());
  const operators::SettleNotices notices(stepped);

  const std::uint64_t before_run = meter.Total();
  arm->finished_at.assign(tasks.size(), 0);
  bool all_done = false;
  while (!all_done) {
    all_done = true;
    for (std::size_t q = 0; q < tasks.size(); ++q) {
      if (tasks[q]->Done()) continue;
      if (budget != 0 && meter.Total() - before_run >= budget) {
        all_done = true;
        break;
      }
      all_done = false;
      const Status status = tasks[q]->Step(&meter);
      if (!status.ok()) {
        std::fprintf(stderr, "round-robin step failed: %s\n",
                     status.message().c_str());
        return false;
      }
      if (tasks[q]->Done()) arm->finished_at[q] = meter.Total() - before_run;
    }
    if (budget != 0 && meter.Total() - before_run >= budget) break;
  }

  arm->work_units = meter.Total();
  arm->run_spent = meter.Total() - before_run;
  for (std::size_t q = 0; q < tasks.size(); ++q) {
    if (tasks[q]->Converged()) ++arm->converged;
    const std::uint64_t deadline = deadlines.empty() ? 0 : deadlines[q];
    if (deadline != 0 &&
        (!tasks[q]->Done() || arm->finished_at[q] > deadline)) {
      ++arm->missed_deadlines;
    }
  }
  return true;
}

void AddArmRow(TableWriter* table, const BenchContext& context,
               const std::string& arm_name, std::uint64_t budget,
               const ArmResult& arm) {
  table->AddRow({arm_name, TableWriter::Cell(budget),
                 TableWriter::Cell(arm.work_units),
                 TableWriter::Cell(arm.run_spent),
                 TableWriter::Cell(context.EstSeconds(arm.work_units), 4),
                 TableWriter::Cell(arm.converged) + "/" +
                     TableWriter::Cell(static_cast<int>(kQueries)),
                 TableWriter::Cell(arm.starved),
                 TableWriter::Cell(arm.missed_deadlines)});
}

}  // namespace

int main() {
  BenchContext context = MakeContext();
  Calibrate(&context);
  PrintPreamble(context,
                "sch01: budget-aware multi-query scheduling vs round-robin");

  TableWriter table("sch01_multiquery",
                    {"arm", "budget", "work_units", "run_spent", "est_s",
                     "converged", "starved", "missed_deadlines"});
  bool ok = true;

  // ---- Work to all-converged at unlimited budget --------------------------
  const std::vector<std::uint64_t> no_deadlines;
  ArmResult greedy, fair, edf_plain, rr_shared, rr_isolated;
  ok = ok && RunScheduled(context, engine::SchedulerPolicy::kGreedyGlobal, 0,
                          no_deadlines, &greedy);
  ok = ok && RunScheduled(context, engine::SchedulerPolicy::kFairShare, 0,
                          no_deadlines, &fair);
  ok = ok && RunScheduled(context, engine::SchedulerPolicy::kDeadline, 0,
                          no_deadlines, &edf_plain);
  ok = ok && RunRoundRobin(context, /*shared=*/true, 0, no_deadlines,
                           &rr_shared);
  ok = ok && RunRoundRobin(context, /*shared=*/false, 0, no_deadlines,
                           &rr_isolated);
  if (!ok) return 1;

  AddArmRow(&table, context, "greedy_global", 0, greedy);
  AddArmRow(&table, context, "fair_share", 0, fair);
  AddArmRow(&table, context, "deadline", 0, edf_plain);
  AddArmRow(&table, context, "round_robin_shared", 0, rr_shared);
  AddArmRow(&table, context, "round_robin_per_query", 0, rr_isolated);

  for (const auto* arm : {&greedy, &fair, &edf_plain, &rr_shared,
                          &rr_isolated}) {
    if (arm->converged != static_cast<int>(kQueries)) {
      std::fprintf(stderr,
                   "FAIL: an unbudgeted arm converged only %d/%zu queries\n",
                   arm->converged, kQueries);
      ok = false;
    }
  }
  // The headline claim: the scheduler over shared objects needs at most 75%
  // of the work the old one-executor-per-query model pays for the same
  // all-converged answers.
  if (4 * greedy.work_units > 3 * rr_isolated.work_units) {
    std::fprintf(stderr,
                 "FAIL: greedy_global used %llu units; more than 75%% of the "
                 "per-query baseline's %llu\n",
                 static_cast<unsigned long long>(greedy.work_units),
                 static_cast<unsigned long long>(rr_isolated.work_units));
    ok = false;
  }

  // ---- Graceful degradation under shrinking budgets -----------------------
  for (const int percent : {25, 50, 75, 100}) {
    // +1 at 100%: a task's terminal "notice convergence and finish" step
    // charges zero units, so a budget of exactly the unbudgeted spend stops
    // one free step short of converged.
    const std::uint64_t budget =
        greedy.run_spent * static_cast<std::uint64_t>(percent) / 100 +
        (percent == 100 ? 1 : 0);
    for (const auto policy : {engine::SchedulerPolicy::kGreedyGlobal,
                              engine::SchedulerPolicy::kFairShare,
                              engine::SchedulerPolicy::kDeadline}) {
      ArmResult arm;
      if (!RunScheduled(context, policy, budget, no_deadlines, &arm)) return 1;
      AddArmRow(&table, context,
                std::string(engine::SchedulerPolicyName(policy)) + "@" +
                    std::to_string(percent) + "%",
                budget, arm);
      if (percent == 100 &&
          policy == engine::SchedulerPolicy::kGreedyGlobal &&
          arm.converged != static_cast<int>(kQueries)) {
        std::fprintf(stderr,
                     "FAIL: greedy_global did not converge at a budget equal "
                     "to its own unbudgeted spend\n");
        ok = false;
      }
    }
  }

  // ---- Deadlines: EDF meets what round-robin misses -----------------------
  // Probe run fixes the EDF completion order with tiny staggered deadlines,
  // then the recorded completion times (plus 5% slack) become the real
  // deadlines: achievable by construction for EDF, and far too tight for
  // interleaved stepping, which finishes early-deadline queries near the
  // very end of the run.
  std::vector<std::uint64_t> probe_deadlines(kQueries);
  for (std::size_t q = 0; q < kQueries; ++q) probe_deadlines[q] = q + 1;
  ArmResult probe;
  if (!RunScheduled(context, engine::SchedulerPolicy::kDeadline, 0,
                    probe_deadlines, &probe)) {
    return 1;
  }
  std::vector<std::uint64_t> deadlines(kQueries);
  for (std::size_t q = 0; q < kQueries; ++q) {
    deadlines[q] = probe.finished_at[q] + probe.finished_at[q] / 20 + 1;
  }

  ArmResult edf, rr_deadline;
  if (!RunScheduled(context, engine::SchedulerPolicy::kDeadline, 0, deadlines,
                    &edf) ||
      !RunRoundRobin(context, /*shared=*/true, 0, deadlines, &rr_deadline)) {
    return 1;
  }
  AddArmRow(&table, context, "deadline_edf", 0, edf);
  AddArmRow(&table, context, "round_robin_deadlines", 0, rr_deadline);
  if (edf.missed_deadlines != 0) {
    std::fprintf(stderr, "FAIL: EDF missed %d of its own achievable deadlines\n",
                 edf.missed_deadlines);
    ok = false;
  }
  if (rr_deadline.missed_deadlines == 0) {
    std::fprintf(stderr,
                 "FAIL: round-robin met every deadline; the scenario does not "
                 "separate the policies\n");
    ok = false;
  }

  table.RenderText(std::cout);
  std::cout << "\nwork to all-converged: greedy_global " << greedy.work_units
            << " units vs per-query round-robin " << rr_isolated.work_units
            << " units ("
            << 100.0 * static_cast<double>(greedy.work_units) /
                   static_cast<double>(rr_isolated.work_units)
            << "% of baseline)\n";
  std::cout << "deadline misses: EDF " << edf.missed_deadlines
            << ", round-robin " << rr_deadline.missed_deadlines << " of "
            << kQueries << " queries\n";

  std::ofstream json("BENCH_scheduler.json");
  table.RenderJson(json);
  std::cout << "\nwrote BENCH_scheduler.json\n";
  return ok ? 0 : 1;
}

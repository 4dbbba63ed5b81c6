// WorkScheduler policy semantics and accounting, with controllable fake
// tasks, plus scheduled MultiQueryExecutor integration: the per-policy
// guarantees DESIGN.md section 4d documents -- exact budget accounting,
// greedy benefit/cost ordering, fair-share proportionality, EDF ordering
// with reserves, starvation and deadline-miss flags.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "engine/multi_query.h"
#include "engine/scheduler.h"
#include "obs/metrics.h"
#include "testing/workload_gen.h"

namespace vaolib::engine {
namespace {

// A task needing `steps_needed` Step() calls, each charging `cost_per_step`
// work units and shaving a constant slice off its uncertainty.
class FakeTask : public operators::IterationTask {
 public:
  FakeTask(std::uint64_t steps_needed, std::uint64_t cost_per_step,
           double initial_uncertainty)
      : remaining_(steps_needed),
        cost_(cost_per_step),
        uncertainty_(initial_uncertainty),
        drop_(initial_uncertainty / static_cast<double>(steps_needed)) {}

  const char* name() const override { return "fake"; }

 protected:
  Status StepImpl(WorkMeter* meter) override {
    if (meter != nullptr) meter->Charge(WorkKind::kExec, cost_);
    uncertainty_ = std::max(0.0, uncertainty_ - drop_);
    if (--remaining_ == 0) MarkDone(/*converged=*/true);
    return Status::OK();
  }
  double CurrentUncertainty() const override { return uncertainty_; }

 private:
  std::uint64_t remaining_;
  std::uint64_t cost_;
  double uncertainty_;
  double drop_;
};

class FailingTask : public operators::IterationTask {
 public:
  const char* name() const override { return "failing"; }

 protected:
  Status StepImpl(WorkMeter*) override {
    return Status::Internal("solver exploded");
  }
  double CurrentUncertainty() const override { return 1.0; }
};

std::vector<WorkScheduler::Entry> Entries(
    const std::vector<std::unique_ptr<operators::IterationTask>>& tasks,
    std::vector<QuerySchedule> schedules = {}) {
  std::vector<WorkScheduler::Entry> entries(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    entries[i].task = tasks[i].get();
    if (!schedules.empty()) entries[i].schedule = schedules[i];
  }
  return entries;
}

TEST(WorkSchedulerTest, RequiresMeterAndValidEntries) {
  WorkScheduler scheduler(SchedulerOptions{});
  std::vector<std::unique_ptr<operators::IterationTask>> tasks;
  tasks.push_back(std::make_unique<FakeTask>(1, 1, 1.0));

  EXPECT_FALSE(scheduler.Run(Entries(tasks), nullptr).ok());

  WorkMeter meter;
  std::vector<WorkScheduler::Entry> with_null = Entries(tasks);
  with_null.push_back(WorkScheduler::Entry{});
  EXPECT_FALSE(scheduler.Run(with_null, &meter).ok());

  std::vector<WorkScheduler::Entry> bad_priority = Entries(tasks);
  bad_priority[0].schedule.priority = 0.0;
  EXPECT_FALSE(scheduler.Run(bad_priority, &meter).ok());
}

TEST(WorkSchedulerTest, SpendsSumExactlyToMeterDelta) {
  for (const SchedulerPolicy policy :
       {SchedulerPolicy::kGreedyGlobal, SchedulerPolicy::kFairShare,
        SchedulerPolicy::kDeadline}) {
    std::vector<std::unique_ptr<operators::IterationTask>> tasks;
    tasks.push_back(std::make_unique<FakeTask>(7, 3, 50.0));
    tasks.push_back(std::make_unique<FakeTask>(11, 5, 20.0));
    tasks.push_back(std::make_unique<FakeTask>(4, 2, 90.0));

    SchedulerOptions options;
    options.policy = policy;
    options.budget = 37;  // lands mid-task on purpose
    WorkScheduler scheduler(options);
    WorkMeter meter;
    meter.Charge(WorkKind::kExec, 13);  // pre-existing charge is excluded
    const std::uint64_t before = meter.Total();
    const auto stats = scheduler.Run(Entries(tasks), &meter);
    ASSERT_TRUE(stats.ok()) << stats.status();

    std::uint64_t spent_sum = 0;
    for (const TaskScheduleStats& s : *stats) {
      spent_sum += s.spent;
      EXPECT_EQ(s.spent, s.work.Total());
    }
    EXPECT_EQ(spent_sum, meter.Total() - before)
        << SchedulerPolicyName(policy);
  }
}

TEST(WorkSchedulerTest, UnlimitedBudgetConvergesEveryTask) {
  std::vector<std::unique_ptr<operators::IterationTask>> tasks;
  tasks.push_back(std::make_unique<FakeTask>(5, 2, 10.0));
  tasks.push_back(std::make_unique<FakeTask>(9, 1, 4.0));

  WorkScheduler scheduler(SchedulerOptions{});
  WorkMeter meter;
  const auto stats = scheduler.Run(Entries(tasks), &meter);
  ASSERT_TRUE(stats.ok()) << stats.status();
  for (const TaskScheduleStats& s : *stats) {
    EXPECT_TRUE(s.converged);
    EXPECT_FALSE(s.starved);
    EXPECT_GT(s.finished_at, 0u);
  }
  EXPECT_EQ((*stats)[0].spent, 10u);
  EXPECT_EQ((*stats)[1].spent, 9u);
}

TEST(WorkSchedulerTest, GreedyGlobalSpendsBudgetOnBestBenefitPerCost) {
  // Task 0 promises 10x the uncertainty reduction per unit: the greedy
  // policy must finish it before granting the low-yield task anything.
  std::vector<std::unique_ptr<operators::IterationTask>> tasks;
  tasks.push_back(std::make_unique<FakeTask>(10, 1, 100.0));
  tasks.push_back(std::make_unique<FakeTask>(10, 1, 1.0));

  SchedulerOptions options;
  options.budget = 10;
  WorkScheduler scheduler(options);
  WorkMeter meter;
  const auto stats = scheduler.Run(Entries(tasks), &meter);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE((*stats)[0].converged);
  EXPECT_EQ((*stats)[0].steps, 10u);
  EXPECT_FALSE((*stats)[1].converged);
  EXPECT_EQ((*stats)[1].steps, 0u);
  EXPECT_TRUE((*stats)[1].starved);
}

TEST(WorkSchedulerTest, FairShareSplitsBudgetByPriority) {
  // Neither task can finish: the split must track the 3:1 priorities.
  std::vector<std::unique_ptr<operators::IterationTask>> tasks;
  tasks.push_back(std::make_unique<FakeTask>(1000, 1, 10.0));
  tasks.push_back(std::make_unique<FakeTask>(1000, 1, 500.0));

  SchedulerOptions options;
  options.policy = SchedulerPolicy::kFairShare;
  options.budget = 100;
  WorkScheduler scheduler(options);
  WorkMeter meter;
  const auto stats = scheduler.Run(
      Entries(tasks, {QuerySchedule{3.0, 0, 0}, QuerySchedule{1.0, 0, 0}}),
      &meter);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ((*stats)[0].spent + (*stats)[1].spent, 100u);
  // Exact under unit costs: 75/25, modulo one step of rounding.
  EXPECT_NEAR(static_cast<double>((*stats)[0].spent), 75.0, 1.0);
  EXPECT_NEAR(static_cast<double>((*stats)[1].spent), 25.0, 1.0);
}

TEST(WorkSchedulerTest, FairShareNeverStarvesWithinBudget) {
  // Starvation bound: with n equal-priority unit-cost tasks and budget B,
  // every task receives at least floor(B/n) steps.
  constexpr std::size_t kTasks = 4;
  std::vector<std::unique_ptr<operators::IterationTask>> tasks;
  for (std::size_t i = 0; i < kTasks; ++i) {
    tasks.push_back(std::make_unique<FakeTask>(100, 1, 10.0 * (i + 1)));
  }
  SchedulerOptions options;
  options.policy = SchedulerPolicy::kFairShare;
  options.budget = 42;
  WorkScheduler scheduler(options);
  WorkMeter meter;
  const auto stats = scheduler.Run(Entries(tasks), &meter);
  ASSERT_TRUE(stats.ok()) << stats.status();
  for (const TaskScheduleStats& s : *stats) {
    EXPECT_GE(s.steps, 42u / kTasks);
    EXPECT_FALSE(s.starved);
  }
}

TEST(WorkSchedulerTest, DeadlineRunsEarliestFirstAndNoDeadlineLast) {
  std::vector<std::unique_ptr<operators::IterationTask>> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(std::make_unique<FakeTask>(5, 1, 10.0));
  }
  SchedulerOptions options;
  options.policy = SchedulerPolicy::kDeadline;
  WorkScheduler scheduler(options);
  WorkMeter meter;
  const auto stats = scheduler.Run(
      Entries(tasks, {QuerySchedule{1.0, 50, 0}, QuerySchedule{1.0, 10, 0},
                      QuerySchedule{1.0, 30, 0}, QuerySchedule{1.0, 0, 0}}),
      &meter);
  ASSERT_TRUE(stats.ok()) << stats.status();
  // EDF completion order: deadline 10, 30, 50, then the deadline-free task.
  EXPECT_EQ((*stats)[1].finished_at, 5u);
  EXPECT_EQ((*stats)[2].finished_at, 10u);
  EXPECT_EQ((*stats)[0].finished_at, 15u);
  EXPECT_EQ((*stats)[3].finished_at, 20u);
  for (const TaskScheduleStats& s : *stats) {
    EXPECT_FALSE(s.missed_deadline);
  }
}

TEST(WorkSchedulerTest, DeadlineReservesSurviveAnEarlierHog) {
  // Task 0 has the earliest deadline and endless appetite; task 1 reserved
  // exactly the work it needs. The hog may only consume budget that the
  // reserve does not still require.
  std::vector<std::unique_ptr<operators::IterationTask>> tasks;
  tasks.push_back(std::make_unique<FakeTask>(100, 1, 10.0));
  tasks.push_back(std::make_unique<FakeTask>(10, 1, 10.0));

  SchedulerOptions options;
  options.policy = SchedulerPolicy::kDeadline;
  options.budget = 20;
  WorkScheduler scheduler(options);
  WorkMeter meter;
  const auto stats = scheduler.Run(
      Entries(tasks,
              {QuerySchedule{1.0, 5, 0}, QuerySchedule{1.0, 100, 10}}),
      &meter);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ((*stats)[0].spent, 10u);
  EXPECT_FALSE((*stats)[0].converged);
  EXPECT_TRUE((*stats)[0].missed_deadline);
  EXPECT_EQ((*stats)[1].spent, 10u);
  EXPECT_TRUE((*stats)[1].converged);
  EXPECT_FALSE((*stats)[1].missed_deadline);
}

TEST(WorkSchedulerTest, LateFinishSetsMissedDeadline) {
  std::vector<std::unique_ptr<operators::IterationTask>> tasks;
  tasks.push_back(std::make_unique<FakeTask>(10, 1, 10.0));
  SchedulerOptions options;
  options.policy = SchedulerPolicy::kDeadline;
  WorkScheduler scheduler(options);
  WorkMeter meter;
  const auto stats =
      scheduler.Run(Entries(tasks, {QuerySchedule{1.0, 3, 0}}), &meter);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE((*stats)[0].converged);
  EXPECT_TRUE((*stats)[0].missed_deadline);  // finished at 10, deadline 3
}

TEST(WorkSchedulerTest, AlreadyDoneTasksAreAccountedNotStarved) {
  std::vector<std::unique_ptr<operators::IterationTask>> tasks;
  tasks.push_back(std::make_unique<FakeTask>(1, 1, 1.0));
  tasks.push_back(std::make_unique<FakeTask>(3, 1, 5.0));
  WorkMeter warmup;
  ASSERT_TRUE(tasks[0]->Step(&warmup).ok());
  ASSERT_TRUE(tasks[0]->Done());

  WorkScheduler scheduler(SchedulerOptions{});
  WorkMeter meter;
  const auto stats = scheduler.Run(Entries(tasks), &meter);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ((*stats)[0].steps, 0u);
  EXPECT_TRUE((*stats)[0].converged);
  EXPECT_FALSE((*stats)[0].starved);
  EXPECT_TRUE((*stats)[1].converged);
}

TEST(WorkSchedulerTest, StepErrorFailsTheRun) {
  std::vector<std::unique_ptr<operators::IterationTask>> tasks;
  tasks.push_back(std::make_unique<FailingTask>());
  WorkScheduler scheduler(SchedulerOptions{});
  WorkMeter meter;
  EXPECT_FALSE(scheduler.Run(Entries(tasks), &meter).ok());
}

TEST(WorkSchedulerTest, RunBumpsPolicyLabelledMetrics) {
  obs::Counter* runs = obs::MetricsRegistry::Global().GetCounter(
      "vaolib_scheduler_runs_total", {{"policy", "fair_share"}});
  const std::uint64_t before = runs->Value();

  std::vector<std::unique_ptr<operators::IterationTask>> tasks;
  tasks.push_back(std::make_unique<FakeTask>(2, 1, 1.0));
  SchedulerOptions options;
  options.policy = SchedulerPolicy::kFairShare;
  WorkScheduler scheduler(options);
  WorkMeter meter;
  ASSERT_TRUE(scheduler.Run(Entries(tasks), &meter).ok());
  EXPECT_EQ(runs->Value(), before + 1);
}

// ---------------------------------------------------------------------------
// Scheduled MultiQueryExecutor integration
// ---------------------------------------------------------------------------

class ScheduledMultiQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::WorkloadSpec spec;
    spec.rows = 10;
    workload_ = testing::MakeWorkload(spec, /*seed=*/0xC0FFEE);
    for (const engine::QueryKind kind :
         {QueryKind::kSelect, QueryKind::kMax, QueryKind::kSum,
          QueryKind::kTopK}) {
      Rng rng(static_cast<std::uint64_t>(kind) + 7);
      queries_.push_back(testing::MakeQuery(workload_, kind,
                                            /*k=*/2, &rng));
    }
  }

  Result<std::unique_ptr<MultiQueryExecutor>> MakeExecutor(
      SchedulerPolicy policy, std::uint64_t budget) {
    MultiQueryOptions options;
    options.scheduler.policy = policy;
    options.scheduler.budget = budget;
    return MultiQueryExecutor::Create(&workload_.relation, Schema{},
                                      queries_, options);
  }

  testing::Workload workload_;
  std::vector<Query> queries_;
};

TEST_F(ScheduledMultiQueryTest, UnbudgetedTickConvergesAndAccountsExactly) {
  auto executor = MakeExecutor(SchedulerPolicy::kGreedyGlobal, 0);
  ASSERT_TRUE(executor.ok()) << executor.status();
  const auto ticks = (*executor)->ProcessTick({});
  ASSERT_TRUE(ticks.ok()) << ticks.status();

  const obs::ExecutionReport& multi = (*executor)->last_tick_report();
  EXPECT_TRUE(multi.scheduled);
  EXPECT_EQ(multi.scheduler_policy, "greedy_global");
  EXPECT_TRUE(multi.converged);

  std::uint64_t spent_sum = 0;
  for (const TickResult& tick : *ticks) {
    EXPECT_TRUE(tick.converged);
    EXPECT_TRUE(tick.report.scheduled);
    EXPECT_EQ(tick.work_units, tick.report.scheduler_spent);
    EXPECT_EQ(tick.work_units, tick.report.work.Total());
    spent_sum += tick.work_units;
  }
  EXPECT_EQ(spent_sum, multi.scheduler_spent);
}

TEST_F(ScheduledMultiQueryTest, BudgetExhaustionDegradesGracefully) {
  // First find the converged spend, then rerun with a fraction of it.
  auto full = MakeExecutor(SchedulerPolicy::kFairShare, 0);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_TRUE((*full)->ProcessTick({}).ok());
  const std::uint64_t full_spend = (*full)->last_tick_report().scheduler_spent;
  ASSERT_GT(full_spend, 4u);

  auto budgeted = MakeExecutor(SchedulerPolicy::kFairShare, full_spend / 4);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status();
  const auto ticks = (*budgeted)->ProcessTick({});
  ASSERT_TRUE(ticks.ok()) << ticks.status();

  const obs::ExecutionReport& multi = (*budgeted)->last_tick_report();
  EXPECT_FALSE(multi.converged);
  std::size_t unconverged = 0;
  std::uint64_t spent_sum = 0;
  for (const TickResult& tick : *ticks) {
    if (!tick.converged) ++unconverged;
    spent_sum += tick.work_units;
    // Sound partial answers still carry valid bounds.
    if (tick.kind == QueryKind::kMax || tick.kind == QueryKind::kSum) {
      EXPECT_TRUE(tick.aggregate_bounds.IsValid());
    }
  }
  EXPECT_GT(unconverged, 0u);
  EXPECT_EQ(spent_sum, multi.scheduler_spent);
}

TEST_F(ScheduledMultiQueryTest, SchedulesMustMatchQueryCount) {
  MultiQueryOptions options;
  options.schedules.resize(queries_.size() + 1);
  EXPECT_FALSE(MultiQueryExecutor::Create(&workload_.relation, Schema{},
                                          queries_, options)
                   .ok());
}

}  // namespace
}  // namespace vaolib::engine

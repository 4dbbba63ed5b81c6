// WorkScheduler policy semantics and accounting, with controllable fake
// tasks, plus scheduled MultiQueryExecutor integration: the per-policy
// guarantees DESIGN.md section 4d documents -- exact budget accounting,
// greedy benefit/cost ordering, fair-share proportionality, EDF ordering
// with reserves, starvation and deadline-miss flags.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "engine/multi_query.h"
#include "engine/scheduler.h"
#include "obs/metrics.h"
#include "testing/workload_gen.h"
#include "vao/prepayable.h"
#include "vao/synthetic_result_object.h"

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

// A FakeTask that counts CurrentUncertainty() calls.
class CountingTask : public FakeTask {
 public:
  using FakeTask::FakeTask;
  double CurrentUncertainty() const override {
    ++evaluations;
    return FakeTask::CurrentUncertainty();
  }
  mutable int evaluations = 0;
};

TEST(WorkSchedulerTest, OnlyGreedyGlobalEvaluatesUncertainty) {
  // The benefit estimate is kGreedyGlobal's: driving a task to completion,
  // or scheduling it under a policy that never ranks by benefit, must not
  // ask the task for its uncertainty at all.
  CountingTask driven(4, 2, 8.0);
  WorkMeter drive_meter;
  ASSERT_TRUE(operators::DriveTask(&driven, &drive_meter).ok());
  EXPECT_TRUE(driven.Converged());
  EXPECT_EQ(driven.evaluations, 0);

  for (const SchedulerPolicy policy :
       {SchedulerPolicy::kDeadline, SchedulerPolicy::kFairShare,
        SchedulerPolicy::kGreedyGlobal}) {
    std::vector<std::unique_ptr<operators::IterationTask>> tasks;
    tasks.push_back(std::make_unique<CountingTask>(5, 2, 10.0));
    tasks.push_back(std::make_unique<CountingTask>(3, 1, 4.0));
    SchedulerOptions options;
    options.policy = policy;
    options.budget = 9;  // lands mid-task on purpose
    WorkScheduler scheduler(options);
    WorkMeter meter;
    ASSERT_TRUE(scheduler.Run(Entries(tasks), &meter).ok());
    int evaluations = 0;
    for (const auto& task : tasks) {
      evaluations += static_cast<const CountingTask&>(*task).evaluations;
    }
    if (policy == SchedulerPolicy::kGreedyGlobal) {
      EXPECT_GT(evaluations, 0);
    } else {
      EXPECT_EQ(evaluations, 0) << SchedulerPolicyName(policy);
    }
  }
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
// Step allowances and parked tasks
// ---------------------------------------------------------------------------

// A task whose every step costs `cost` work units: it records the allowance
// each Step() was granted and parks when that cannot pay for a step.
class AllowanceProbe : public operators::IterationTask {
 public:
  AllowanceProbe(std::uint64_t steps_needed, std::uint64_t cost)
      : remaining_(steps_needed), cost_(cost) {}

  const char* name() const override { return "probe"; }
  void set_cost(std::uint64_t cost) { cost_ = cost; }
  std::vector<std::uint64_t> seen;
  /// Runs after every step that did work.
  std::function<void()> after_work;

 protected:
  Status StepImpl(WorkMeter* meter) override {
    seen.push_back(allowance());
    if (cost_ > allowance()) {
      Park();
      return Status::OK();
    }
    meter->Charge(WorkKind::kExec, cost_);
    if (--remaining_ == 0) MarkDone(/*converged=*/true);
    if (after_work) after_work();
    return Status::OK();
  }
  double CurrentUncertainty() const override {
    return static_cast<double>(remaining_);
  }

 private:
  std::uint64_t remaining_;
  std::uint64_t cost_;
};

TEST(StepAllowanceTest, EachStepGetsWhatIsLeftOfTheBudget) {
  AllowanceProbe probe(/*steps_needed=*/10, /*cost=*/300);
  SchedulerOptions options;
  options.policy = SchedulerPolicy::kFairShare;
  options.budget = 1000;
  WorkScheduler scheduler(options);
  WorkMeter meter;
  const auto stats = scheduler.Run({{&probe, {}}}, &meter);
  ASSERT_TRUE(stats.ok()) << stats.status();
  // The fourth step could pay for 100 of its 300 units: it is not started.
  EXPECT_EQ(probe.seen, (std::vector<std::uint64_t>{1000, 700, 400, 100}));
  EXPECT_EQ(meter.Total(), 900u);
  EXPECT_TRUE(probe.Parked());
  EXPECT_TRUE((*stats)[0].parked);
  EXPECT_FALSE((*stats)[0].converged);
  EXPECT_EQ((*stats)[0].steps, 3u);
  EXPECT_EQ((*stats)[0].spent, 900u);
}

TEST(StepAllowanceTest, UnbudgetedStepsAreUnlimited) {
  AllowanceProbe probe(/*steps_needed=*/3, /*cost=*/300);
  WorkScheduler scheduler(SchedulerOptions{});
  WorkMeter meter;
  ASSERT_TRUE(scheduler.Run({{&probe, {}}}, &meter).ok());
  EXPECT_EQ(probe.seen,
            std::vector<std::uint64_t>(3, operators::IterationTask::kUnlimited));
  EXPECT_TRUE(probe.Converged());
}

TEST(StepAllowanceTest, DeadlineAllowanceHoldsOtherReservesBack) {
  AllowanceProbe early(/*steps_needed=*/20, /*cost=*/100);
  AllowanceProbe reserved(/*steps_needed=*/2, /*cost=*/100);
  QuerySchedule early_schedule;
  early_schedule.deadline = 10;
  QuerySchedule reserved_schedule;
  reserved_schedule.reserve = 400;
  SchedulerOptions options;
  options.policy = SchedulerPolicy::kDeadline;
  options.budget = 1000;
  WorkScheduler scheduler(options);
  WorkMeter meter;
  const auto stats = scheduler.Run(
      {{&early, early_schedule}, {&reserved, reserved_schedule}}, &meter);
  ASSERT_TRUE(stats.ok()) << stats.status();
  // The early task may not touch the 400 units the other one reserves.
  ASSERT_FALSE(early.seen.empty());
  EXPECT_EQ(early.seen.front(), 600u);
  ASSERT_FALSE(reserved.seen.empty());
  EXPECT_EQ(reserved.seen.front(), 400u);
  EXPECT_TRUE(reserved.Converged());
  EXPECT_LE(meter.Total(), options.budget);
}

TEST(StepAllowanceTest, ParkedTaskRevivesWhenAReserveHolderFinishes) {
  // 250 does not divide what the reserve leaves: the early task parks at
  // 100 units. The reserve holder finishes 200 units under its reserve, so
  // the early task can pay for one more step out of the 300 left.
  AllowanceProbe early(/*steps_needed=*/20, /*cost=*/250);
  AllowanceProbe reserved(/*steps_needed=*/2, /*cost=*/100);
  QuerySchedule early_schedule;
  early_schedule.deadline = 10;
  QuerySchedule reserved_schedule;
  reserved_schedule.reserve = 400;
  SchedulerOptions options;
  options.policy = SchedulerPolicy::kDeadline;
  options.budget = 1000;
  WorkScheduler scheduler(options);
  WorkMeter meter;
  const auto stats = scheduler.Run(
      {{&early, early_schedule}, {&reserved, reserved_schedule}}, &meter);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(early.seen,
            (std::vector<std::uint64_t>{600, 350, 100, 100, 300, 50}));
  EXPECT_TRUE(reserved.Converged());
  EXPECT_EQ(meter.Total(), 950u);
  EXPECT_EQ((*stats)[0].spent, 750u);
  EXPECT_EQ((*stats)[0].steps, 3u);
  EXPECT_TRUE((*stats)[0].parked);
}

TEST(StepAllowanceTest, ParkedTaskRevivesWhenOtherWorkMakesItAffordable) {
  // The hungry task's step costs more than the whole budget until the
  // helper's first step lowers it, as a published PDE profile turns a
  // mesh solve into a profile load.
  for (const SchedulerPolicy policy :
       {SchedulerPolicy::kGreedyGlobal, SchedulerPolicy::kFairShare,
        SchedulerPolicy::kDeadline}) {
    AllowanceProbe hungry(/*steps_needed=*/1, /*cost=*/1100);
    AllowanceProbe helper(/*steps_needed=*/2, /*cost=*/300);
    helper.after_work = [&hungry] { hungry.set_cost(100); };
    SchedulerOptions options;
    options.policy = policy;
    options.budget = 1000;
    WorkScheduler scheduler(options);
    WorkMeter meter;
    const auto stats =
        scheduler.Run({{&hungry, {}}, {&helper, {}}}, &meter);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_TRUE(hungry.Converged()) << SchedulerPolicyName(policy);
    EXPECT_TRUE(helper.Converged()) << SchedulerPolicyName(policy);
    EXPECT_EQ(meter.Total(), 700u) << SchedulerPolicyName(policy);
    EXPECT_FALSE((*stats)[0].parked) << SchedulerPolicyName(policy);
  }
}

// An object whose one iterate costs what is left of a debt kept outside
// it, as a suspended PDE march outlives the object that started it. All
// but the debt's last unit can be prepaid.
class DebtObject : public vao::ResultObject, public vao::Prepayable {
 public:
  DebtObject(std::uint64_t* debt, WorkMeter* meter)
      : debt_(debt), meter_(meter) {}

  Bounds bounds() const override {
    return iterated_ ? Bounds(1.0, 1.0) : Bounds(0.0, 2.0);
  }
  double min_width() const override { return 0.5; }
  Status Iterate() override {
    meter_->Charge(WorkKind::kExec, *debt_);
    *debt_ = 0;
    iterated_ = true;
    return Status::OK();
  }
  std::uint64_t est_cost() const override {
    if (*debt_ > 1) Report();
    return *debt_;
  }
  std::uint64_t Prepay(std::uint64_t units) const override {
    const std::uint64_t paid = std::min(units, *debt_ > 0 ? *debt_ - 1 : 0);
    meter_->Charge(WorkKind::kExec, paid);
    *debt_ -= paid;
    return paid;
  }
  Bounds est_bounds() const override { return Bounds(1.0, 1.0); }
  int iterations() const override { return iterated_ ? 1 : 0; }
  std::uint64_t traditional_cost() const override { return 0; }

 private:
  std::uint64_t* debt_;
  WorkMeter* meter_;
  bool iterated_ = false;
};

// A task of one iterate of a DebtObject: it parks on the object while the
// allowance cannot pay for it.
class DebtTask : public operators::IterationTask {
 public:
  explicit DebtTask(DebtObject* object) : object_(object) {}
  const char* name() const override { return "debt"; }

 protected:
  Status StepImpl(WorkMeter*) override {
    if (!Affordable(*object_)) {
      Park(object_);
      return Status::OK();
    }
    VAOLIB_RETURN_IF_ERROR(object_->Iterate());
    MarkDone(/*converged=*/true);
    return Status::OK();
  }
  double CurrentUncertainty() const override {
    return object_->bounds().Width();
  }

 private:
  DebtObject* object_;
};

TEST(StepAllowanceTest, LeftoverBudgetPrepaysAnIterateDearerThanTheBudget) {
  // 2500 units against a budget of 1000: no run can start the iterate, so
  // each run's leftover pays towards it until one run can finish it.
  for (const SchedulerPolicy policy :
       {SchedulerPolicy::kGreedyGlobal, SchedulerPolicy::kFairShare,
        SchedulerPolicy::kDeadline}) {
    std::uint64_t debt = 2500;
    std::vector<std::uint64_t> totals;
    bool converged = false;
    for (int run = 0; run < 5 && !converged; ++run) {
      WorkMeter meter;
      DebtObject object(&debt, &meter);
      DebtTask task(&object);
      SchedulerOptions options;
      options.policy = policy;
      options.budget = 1000;
      WorkScheduler scheduler(options);
      const auto stats = scheduler.Run({{&task, {}}}, &meter);
      ASSERT_TRUE(stats.ok()) << stats.status();
      EXPECT_EQ((*stats)[0].spent, meter.Total());
      totals.push_back(meter.Total());
      converged = task.Converged();
    }
    EXPECT_TRUE(converged) << SchedulerPolicyName(policy);
    EXPECT_EQ(totals, (std::vector<std::uint64_t>{1000, 1000, 500}))
        << SchedulerPolicyName(policy);
  }
}

TEST(StepAllowanceTest, PrepaymentTakesOnlyWhatNoIterateCanUse) {
  // The worker's steps all fit; the parked task is prepaid only once the
  // worker is done, with what it left.
  std::uint64_t debt = 2500;
  WorkMeter meter;
  DebtObject object(&debt, &meter);
  DebtTask parked(&object);
  AllowanceProbe worker(/*steps_needed=*/3, /*cost=*/200);
  SchedulerOptions options;
  options.policy = SchedulerPolicy::kGreedyGlobal;
  options.budget = 1000;
  WorkScheduler scheduler(options);
  const auto stats = scheduler.Run({{&parked, {}}, {&worker, {}}}, &meter);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE(worker.Converged());
  EXPECT_EQ((*stats)[1].spent, 600u);
  EXPECT_EQ((*stats)[0].spent, 400u);
  EXPECT_EQ(debt, 2100u);
  EXPECT_FALSE(parked.Converged());
  EXPECT_EQ(meter.Total(), options.budget);
}

// A SUM over synthetic objects whose iterates double in cost: the budget
// runs out in the middle of an iterate the parent scheduler would start.
class DoublingSumTest : public ::testing::Test {
 protected:
  // Fresh objects on a fresh meter.
  void Build() {
    objects_.clear();
    raw_.clear();
    meter_.Reset();
    for (int i = 0; i < 6; ++i) {
      vao::SyntheticResultObject::Config config;
      config.true_value = 10.0 * i;
      config.initial_half_width = 8.0;
      config.shrink = 0.6;
      config.min_width = 1e-6;
      config.cost_per_iteration = 64;
      config.cost_growth = 2.0;
      config.meter = &meter_;
      objects_.push_back(std::make_unique<vao::SyntheticResultObject>(config));
      raw_.push_back(objects_.back().get());
    }
  }

  std::unique_ptr<operators::SumAveIterationTask> MakeTask() {
    operators::SumAveOptions options;
    options.epsilon = 1e-4;
    options.meter = &meter_;
    auto task = operators::SumAveIterationTask::Create(
        options, raw_, std::vector<double>(raw_.size(), 1.0));
    EXPECT_TRUE(task.ok()) << task.status();
    return task.ok() ? std::move(task).value() : nullptr;
  }

  WorkMeter meter_;
  std::vector<std::unique_ptr<vao::SyntheticResultObject>> objects_;
  std::vector<vao::ResultObject*> raw_;
};

TEST_F(DoublingSumTest, UnaffordableIterateIsNotStartedAndTotalStaysInBudget) {
  constexpr std::uint64_t kBudget = 20000;
  for (const SchedulerPolicy policy :
       {SchedulerPolicy::kGreedyGlobal, SchedulerPolicy::kFairShare,
        SchedulerPolicy::kDeadline}) {
    Build();
    auto task = MakeTask();
    ASSERT_NE(task, nullptr);
    SchedulerOptions options;
    options.policy = policy;
    options.budget = kBudget;
    WorkScheduler scheduler(options);
    const auto stats = scheduler.Run({{task.get(), {}}}, &meter_);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_LE(meter_.Total(), kBudget) << SchedulerPolicyName(policy);
    EXPECT_TRUE((*stats)[0].parked) << SchedulerPolicyName(policy);
    EXPECT_FALSE((*stats)[0].converged);
    // Every object's next iterate costs more than what is left.
    const std::uint64_t left = kBudget - meter_.Total();
    for (const vao::ResultObject* object : raw_) {
      EXPECT_GT(object->est_cost(), left);
    }
    // The parked task answers with its sound partial interval.
    double truth = 0.0;
    for (const auto& object : objects_) truth += object->true_value();
    const operators::SumOutcome partial = task->Snapshot();
    EXPECT_FALSE(partial.converged);
    EXPECT_TRUE(partial.sum_bounds.Contains(truth));
  }
}

TEST_F(DoublingSumTest, ParkedTasksUnderGreedyGlobalTerminate) {
  // Two tasks over the same objects under the greedy heap: once both park,
  // the run must end rather than pop a parked task forever.
  Build();
  auto first = MakeTask();
  auto second = MakeTask();
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  SchedulerOptions options;
  options.policy = SchedulerPolicy::kGreedyGlobal;
  options.budget = 20000;
  WorkScheduler scheduler(options);
  const auto stats =
      scheduler.Run({{first.get(), {}}, {second.get(), {}}}, &meter_);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_LE(meter_.Total(), options.budget);
  EXPECT_TRUE((*stats)[0].parked);
  EXPECT_TRUE((*stats)[1].parked);
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

TEST_F(ScheduledMultiQueryTest, NonPositivePriorityFailsTheTick) {
  auto executor = MakeExecutor(SchedulerPolicy::kFairShare, 0);
  ASSERT_TRUE(executor.ok()) << executor.status();
  (*executor)->set_schedule(1, QuerySchedule{.priority = 0.0});
  EXPECT_EQ((*executor)->ProcessTick({}).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace vaolib::engine
